(* The three simulator workloads. A workload is a list of cells, one per
   (registry spec, variant); a pass runs every cell once, through the same
   public calls Benchmarks.Bench_common.run_variant makes (parse, the
   pipeline's stages, Device.create + load_program, spec.run), each wrapped
   in a span, and checks each output against the spec's pure-OCaml
   reference. The simulator runs under Gpusim.Config.default, plus the
   registry size's sampling knobs on the sampled workload. *)

module V = Harness.Variant
module BC = Benchmarks.Bench_common

type workload = {
  size : Benchmarks.Registry.size;
  baseline : V.t;
  optimized : V.t;
  sampled : bool;
      (** Grid sampling on: outputs are extrapolations, so they are checked
          for finiteness, not against the reference. *)
}

let cdp = V.Cdp Dpopt.Pipeline.none
let cdp_a = V.instantiate { t = false; c = false; a = true } V.default_params
let cdp_tca = V.instantiate { t = true; c = true; a = true } V.default_params

let dp_launch =
  { size = Small; baseline = cdp; optimized = cdp_a; sampled = false }

let dp_optimized =
  { size = Small; baseline = V.No_cdp; optimized = cdp_tca; sampled = false }

let large_sampled =
  { size = Large; baseline = cdp; optimized = cdp_tca; sampled = true }

let config w =
  if w.sampled then
    {
      Gpusim.Config.default with
      sampling = Some (Harness.Experiment.sampling_for_size w.size);
    }
  else Gpusim.Config.default

type cell = { spec : BC.spec; variant : V.t; label : string }

(* Dataset generation, then spec construction (which derives every spec's
   workload profile). [Registry.datasets] is memoized per process, so a
   fresh set-up needs a fresh process. *)
let setup w =
  ignore
    (Span.record "workloads.datasets" (fun () ->
         Benchmarks.Registry.datasets w.size));
  let specs =
    Span.record "benchmarks.specs" (fun () ->
        Benchmarks.Registry.all ~size:w.size ())
  in
  List.concat_map
    (fun (spec : BC.spec) ->
      List.map
        (fun variant ->
          {
            spec;
            variant;
            label =
              Printf.sprintf "%s/%s %s" spec.name spec.dataset
                (V.label variant);
          })
        [ w.baseline; w.optimized ])
    specs

(* Every simulated quantity a pass must reproduce exactly. *)
type counters = {
  cycles : float;
  snap : Harness.Experiment.snapshot;
  sampling : Gpusim.Metrics.sampling_stats;
  rel_std_error : float;
}

let counters_of cycles (m : Gpusim.Metrics.t) =
  {
    cycles;
    snap = Harness.Experiment.snapshot_of_metrics m;
    sampling = m.sampling (* the device is dropped after its cell *);
    rel_std_error = Gpusim.Metrics.rel_std_error m;
  }

(* Compile and load the cell's program: Bench_common.load_variant, with the
   pipeline unfolded into its stages so each compiler pass gets its own
   span. *)
let load cfg c =
  let parse src = Span.record "minicu.parse" (fun () -> Minicu.Parser.program src) in
  let prog, auto_params =
    match c.variant with
    | V.No_cdp -> (parse c.spec.no_cdp_src, [])
    | V.Cdp opts ->
        let prog = parse c.spec.cdp_src in
        Span.record "minicu.typecheck" (fun () -> Minicu.Typecheck.check prog);
        List.fold_left
          (fun (prog, aps) (st : Dpopt.Pipeline.stage) ->
            let so = Span.record ("dpopt." ^ st.st_name) (fun () -> st.st_apply prog) in
            match so.so_report with
            | Agg_reports _ -> (so.so_prog, so.so_auto_params)
            | Threshold_reports _ | Coarsen_reports _ -> (so.so_prog, aps))
          (prog, []) (Dpopt.Pipeline.stages opts)
  in
  Span.record "gpusim.load" (fun () ->
      let dev = Gpusim.Device.create ~cfg () in
      Gpusim.Device.load_program dev prog
        ~auto_params:(BC.to_device_auto auto_params);
      dev)

(* One cell; raises Failure when the output fails its check. *)
let run_cell w cfg c =
  Span.record ~label:c.label "cell" @@ fun () ->
  let dev = load cfg c in
  let t0 = Gpusim.Device.time dev in
  let fp = Span.record ~label:c.label "gpusim.run" (fun () -> c.spec.run dev) in
  let m = Gpusim.Device.metrics dev in
  let k = counters_of (Gpusim.Device.time dev -. t0) m in
  if w.sampled then begin
    let extrapolated_ok =
      match Costmodel.Extrapolate.of_metrics m with
      | None -> true
      | Some r ->
          List.for_all Float.is_finite
            [ r.ex_est_total; r.ex_rel_std_error; r.ex_ci95_lo; r.ex_ci95_hi ]
    in
    if not (Float.is_finite k.cycles && k.cycles > 0.0 && extrapolated_ok) then
      failwith (Printf.sprintf "%s: non-finite extrapolation" c.label)
  end
  else begin
    let expected = Span.record "benchmarks.reference" c.spec.reference in
    if fp <> expected then
      failwith
        (Printf.sprintf "%s: fingerprint %d, reference %d" c.label fp expected)
  end;
  k

(* Geomean over specs of baseline cycles / optimized cycles; cells come in
   (baseline, optimized) pairs. [None] if any cell failed. *)
let speedup_geomean (ks : counters option list) =
  let rec pairs = function
    | Some b :: Some o :: rest -> Option.map (List.cons (b.cycles /. o.cycles)) (pairs rest)
    | [] -> Some []
    | _ -> None
  in
  Option.map Harness.Stats.geomean (pairs ks)
