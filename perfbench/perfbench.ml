(* The repository's benchmark, one workload per run:

     perfbench.exe --workload W --seed N --seconds S --trace 0|1

   Set-up is timed in this process and in fresh child processes (the
   registry memoizes its datasets per process); then passes run until the
   time budget is spent. With --trace 0 the last line of stdout is a JSON
   object holding the end-to-end metrics. With --trace 1 untraced and
   traced passes alternate, the spans are written under .perfbench/, and
   the JSON holds the per-layer metrics. perfbench/README.md documents
   them. *)

let end_to_end_units =
  [
    ("wall_s", "s"); ("setup_s", "s"); ("speedup_geomean", "x");
    ("success_rate", "ratio"); ("peak_heap_mb", "MB"); ("req_per_s", "1/s");
    ("p50_ms", "ms"); ("p99_ms", "ms");
  ]

(* Layers timed inside a pass; each gives a "<layer>_s" metric. *)
let timed_layers =
  [
    "minicu.parse"; "minicu.typecheck"; "minicu.pretty"; "dpopt.thresholding";
    "dpopt.coarsening"; "dpopt.aggregation"; "analysis.dpcheck";
    "costmodel.predict"; "gpusim.load"; "gpusim.run"; "benchmarks.reference";
  ]

let serve_stages =
  [ "parse"; "pass:thresholding"; "pass:coarsening"; "pass:aggregation"; "dpcheck"; "predict" ]

let stage_metric st =
  "serve." ^ String.map (function ':' -> '_' | c -> c) st ^ ".misses"

let per_layer_units =
  [
    ("workloads.datasets_s", "s"); ("workloads.datasets_words", "words");
    ("benchmarks.specs_s", "s");
  ]
  @ List.map (fun l -> (l ^ "_s", "s")) timed_layers
  @ [ ("other_s", "s"); ("trace.wall_s", "s"); ("trace.overhead_s", "s");
      ("serve.hit_rate", "ratio") ]
  @ List.map (fun st -> (stage_metric st, "count")) serve_stages
  @ [
      ("serve.tail_excess_s", "s"); ("serve.miss_share", "ratio");
      ("gpusim.run_minor_words", "words"); ("gpusim.run_major_words", "words");
      ("gpusim.ns_per_thread", "ns"); ("gpusim.words_per_thread", "words");
      ("gpusim.us_per_grid", "us"); ("gpusim.threads_executed", "count");
      ("gpusim.blocks_executed", "count"); ("gpusim.grids_launched", "count");
      ("gpusim.device_launches", "count");
      ("gpusim.serialized_launches", "count");
      ("gpusim.max_pending_launches", "count");
      ("gpusim.launch_cycles", "cycles"); ("gpusim.agg_cycles", "cycles");
      ("gpusim.disagg_cycles", "cycles"); ("gpusim.sampled_blocks", "count");
      ("gpusim.skipped_blocks", "count"); ("gpusim.skipped_launches", "count");
      ("gpusim.rel_std_error_max", "ratio");
    ]

let now = Span.now
let median xs = Harness.Stats.percentile xs 0.5
let setup_runs = 5
let trace_dir = ".perfbench"

let sim_workloads =
  [
    ("dp-launch", Sim.dp_launch);
    ("dp-optimized", Sim.dp_optimized);
    ("large-sampled", Sim.large_sampled);
  ]

let workloads = List.map fst sim_workloads @ [ "serve-mixed" ]

type options = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
}

let usage () =
  prerr_endline
    ("usage: perfbench.exe --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let parse_args () =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest when List.mem w workloads ->
        go { o with workload = w } rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        go { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest when float_of_string_opt s <> None ->
        go { o with seconds = float_of_string s } rest
    | "--trace" :: (("0" | "1") as t) :: rest -> go { o with trace = t = "1" } rest
    | "--setup-only" :: rest -> go { o with setup_only = true } rest
    | _ -> usage ()
  in
  let o =
    go
      { workload = ""; seed = 0; seconds = 0.0; trace = false; setup_only = false }
      (List.tl (Array.to_list Sys.argv))
  in
  if o.workload = "" then usage ();
  o

(* ---- set-up ---- *)

type context =
  | Sim_ctx of Sim.workload * Sim.cell list
  | Serve_ctx of Serve_mixed.ctx

let setup o =
  match List.assoc_opt o.workload sim_workloads with
  | Some w -> Sim_ctx (w, Sim.setup w)
  | None -> Serve_ctx (Serve_mixed.setup ~seed:o.seed)

let timed_setup o = Calib.timed (fun () -> setup o)

(* Set-up time of a fresh process: this binary in --setup-only mode. *)
let child_setup o =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--workload"; o.workload; "--seed";
         string_of_int o.seed; "--setup-only" |]
  in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith "set-up child process failed"

(* ---- passes ---- *)

type 'a pass = { traced : bool; wall : float; root : int; result : 'a }

(* The heap's peak, in words, after set-up and the first pass. *)
let first_pass_top_heap = ref 0

(* Passes run until another one would overrun the budget, but at least
   two, so every operation is repeated; under --trace untraced and traced
   passes alternate. Each starts from a collected heap, so no pass pays for
   another's garbage. A traced pass is one root span, with id [root].
   [pass] returns the wall seconds of its timed region, which excludes the
   output checks it does afterwards. *)
let run_passes o (pass : traced:bool -> float * 'a) =
  let start = now () in
  let rec go n acc =
    let traced = o.trace && n mod 2 = 1 in
    Gc.full_major ();
    Span.enabled := traced;
    let root = !Span.next_id in
    let wall, result =
      Span.record ~label:(Printf.sprintf "pass %d" n) "pass" (fun () -> pass ~traced)
    in
    Span.enabled := false;
    if n = 0 then first_pass_top_heap := (Gc.quick_stat ()).top_heap_words;
    let acc = { traced; wall; root; result } :: acc in
    let typical = median (List.map (fun p -> p.wall) acc) in
    if n < 1 || now () -. start +. typical <= o.seconds then go (n + 1) acc
    else begin
      let acc = List.rev acc in
      Printf.printf "# pass walls (s):%s\n"
        (String.concat ""
           (List.map
              (fun p -> Printf.sprintf " %.4f%s" p.wall (if p.traced then "t" else ""))
              acc));
      acc
    end
  in
  go 0 []

let walls ~traced passes =
  List.filter_map (fun p -> if p.traced = traced then Some p.wall else None) passes

let untraced passes = List.filter (fun p -> not p.traced) passes
let traced passes = List.filter (fun p -> p.traced) passes

(* ---- metrics ---- *)

(* The peak at the end of the run would grow with the number of passes,
   which depends on the host's speed; after one pass it does not. *)
let peak_heap_mb () =
  float_of_int (!first_pass_top_heap * (Sys.word_size / 8)) /. 1e6

(* Each operation's latency is the mean of its repetitions over the
   untraced passes, each in reference seconds (see Calib). A pass starts
   from a collected heap and replays the same operations in the same
   order, so its garbage collections fall on the same operations every
   time. *)
let mean_latency passes latencies =
  match untraced passes with
  | [] -> [||]
  | p :: ps ->
      let sum =
        List.fold_left
          (fun acc p -> Array.map2 ( +. ) acc (latencies p.result))
          (latencies p.result) ps
      in
      Array.map (fun x -> x /. float_of_int (1 + List.length ps)) sum

(* Every end-to-end metric, from the operation latencies [ops] (cells, or
   requests); [wall_s] is their sum. *)
let end_to_end ~setup_s ~speedup ~attempted ~failed ops =
  let ops = Array.to_list ops in
  let wall = List.fold_left ( +. ) 0.0 ops in
  Printf.printf "# latency samples: %d\n" (List.length ops);
  [
    ("wall_s", wall);
    ("setup_s", setup_s);
    ("speedup_geomean", speedup);
    ("success_rate", float_of_int (attempted - failed) /. float_of_int (max 1 attempted));
    ("peak_heap_mb", peak_heap_mb ());
    ("req_per_s", float_of_int (List.length ops) /. wall);
    ("p50_ms", 1e3 *. Harness.Stats.percentile ops 0.5);
    ("p99_ms", 1e3 *. Harness.Stats.percentile ops 0.99);
  ]

(* Span-derived metrics every traced run reports. Layer times are self
   times summed over the traced passes, per traced pass; set-up spans lie
   outside every pass and are reported as measured once. [other_s] is the
   traced passes' wall time that no timed layer covers. *)
let layer_metrics summaries passes =
  let roots = List.map (fun p -> p.root) (traced passes) in
  let n = float_of_int (List.length roots) in
  let in_pass name (s : Span.summary) = s.span.name = name && List.mem s.root roots in
  let per_pass name =
    List.fold_left
      (fun acc s -> if in_pass name s then acc +. s.Span.self_s else acc)
      0.0 summaries
    /. n
  in
  let at_setup name f =
    List.fold_left
      (fun acc (s : Span.summary) ->
        if s.span.name = name && s.span.parent < 0 then acc +. f s else acc)
      0.0 summaries
  in
  let layers = List.map (fun l -> (l ^ "_s", per_pass l)) timed_layers in
  let covered = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layers in
  let traced_wall = median (walls ~traced:true passes) in
  [
    ("workloads.datasets_s", at_setup "workloads.datasets" (fun s -> s.self_s));
    ( "workloads.datasets_words",
      at_setup "workloads.datasets" (fun s -> Span.allocated s.span) );
    ("benchmarks.specs_s", at_setup "benchmarks.specs" (fun s -> s.self_s));
  ]
  @ layers
  @ [
      ( "other_s",
        (List.fold_left (fun acc p -> acc +. p.wall) 0.0 (traced passes) /. n)
        -. covered );
      ("trace.wall_s", traced_wall);
      ("trace.overhead_s", traced_wall -. median (walls ~traced:false passes));
    ]

(* The median calibration sample of each untraced pass. *)
let print_calibration passes calib =
  Printf.printf "# median kernel sample per untraced pass (ms; reference %g):%s\n"
    (1e3 *. Calib.reference_s)
    (String.concat ""
       (List.map (fun p -> Printf.sprintf " %.4f" (1e3 *. calib p.result)) (untraced passes)))

(* ---- the simulator workloads ---- *)

type sim_pass = {
  results : (Sim.counters, string) result array;
  latencies : float array;  (** Reference seconds (see Calib). *)
  calib : float;  (** Median calibration sample, seconds. *)
}

let sim_pass w cells ~traced:_ =
  let cfg = Sim.config w in
  let n = Array.length cells in
  let starts = Array.make n 0.0 and stops = Array.make n 0.0 in
  Calib.start ();
  let results =
    Array.mapi
      (fun i c ->
        starts.(i) <- now ();
        let r = try Ok (Sim.run_cell w cfg c) with e -> Error (Printexc.to_string e) in
        stops.(i) <- now ();
        r)
      cells
  in
  Calib.stop ();
  ( stops.(n - 1) -. starts.(0),
    {
      results;
      latencies = snd (Calib.measure ~starts ~stops);
      calib = Calib.median_sample ();
    } )

(* The three cells whose spec.run took longest in the first traced pass,
   with what they allocated: the base rows for allocation work. *)
let print_heaviest summaries passes (cells : Sim.cell array) ks =
  let root = (List.hd (traced passes)).root in
  let runs =
    List.filter
      (fun (s : Span.summary) -> s.span.name = "gpusim.run" && s.root = root)
      summaries
    |> List.sort (fun (a : Span.summary) b ->
           compare (Span.duration b.span) (Span.duration a.span))
  in
  List.iteri
    (fun i (s : Span.summary) ->
      if i < 3 then
        let threads =
          match Array.find_index (fun (c : Sim.cell) -> c.label = s.span.label) cells with
          | Some j -> Option.fold ~none:0 ~some:(fun (k : Sim.counters) -> k.snap.threads_executed) ks.(j)
          | None -> 0
        in
        Printf.printf
          "# heavy cell %d: %s run_s=%.3f minor_words=%.0f major_words=%.0f \
           threads=%d words_per_thread=%.1f\n"
          (i + 1) s.span.label (Span.duration s.span) s.span.minor_words
          s.span.major_words threads
          (if threads > 0 then s.span.minor_words /. float_of_int threads else 0.0))
    runs

let run_sim o w cells ~setup_s =
  let cells = Array.of_list cells in
  let passes = run_passes o (sim_pass w cells) in
  let first = (List.hd passes).result.results in
  let failed = ref 0 in
  (* Every pass must reproduce the first pass's simulated counters. *)
  List.iter
    (fun p ->
      Array.iteri
        (fun i r ->
          match (r, first.(i)) with
          | Ok k, Ok k0 when k = k0 -> ()
          | Ok _, Ok _ ->
              prerr_endline ("simulated counters differ between passes: " ^ cells.(i).label);
              incr failed
          | Error e, _ ->
              prerr_endline e;
              incr failed
          | Ok _, Error _ -> incr failed)
        p.result.results)
    passes;
  let attempted = List.length passes * Array.length cells in
  print_calibration passes (fun r -> r.calib);
  let ks = Array.map Result.to_option first in
  Printf.printf "# %d cells per pass, %d passes (%d traced)\n" (Array.length cells)
    (List.length passes) (List.length (traced passes));
  let metrics =
    if not o.trace then
      let ops = mean_latency passes (fun r -> r.latencies) in
      end_to_end ~setup_s
        ~speedup:(Option.value ~default:nan (Sim.speedup_geomean (Array.to_list ks)))
        ~attempted ~failed:!failed
        ops
    else begin
      let summaries = Span.summarize (Span.all ()) in
      print_heaviest summaries passes cells ks;
      let layers = layer_metrics summaries passes in
      let roots = List.map (fun p -> p.root) (traced passes) in
      let n = float_of_int (List.length roots) in
      let run_words f =
        List.fold_left
          (fun acc (s : Span.summary) ->
            if s.span.name = "gpusim.run" && List.mem s.root roots then acc +. f s.span
            else acc)
          0.0 summaries
        /. n
      in
      let minor = run_words (fun s -> s.minor_words) in
      let run_s = List.assoc "gpusim.run_s" layers in
      let fold f init = Array.fold_left (fun acc k -> Option.fold ~none:acc ~some:(f acc) k) init ks in
      let total f = fold (fun acc k -> acc +. f k) 0.0 in
      let count f = total (fun k -> float_of_int (f k)) in
      let threads = count (fun k -> k.Sim.snap.threads_executed) in
      let grids = count (fun k -> k.Sim.snap.grids_launched) in
      let per x d = if d > 0.0 then x /. d else 0.0 in
      layers
      @ [
          ("gpusim.run_minor_words", minor);
          ("gpusim.run_major_words", run_words (fun s -> s.major_words));
          ("gpusim.ns_per_thread", per (run_s *. 1e9) threads);
          ("gpusim.words_per_thread", per minor threads);
          ("gpusim.us_per_grid", per (run_s *. 1e6) grids);
          ("gpusim.threads_executed", threads);
          ("gpusim.blocks_executed", count (fun k -> k.snap.blocks_executed));
          ("gpusim.grids_launched", grids);
          ("gpusim.device_launches", count (fun k -> k.snap.device_launches));
          ("gpusim.serialized_launches", count (fun k -> k.snap.serialized_launches));
          ( "gpusim.max_pending_launches",
            fold (fun acc k -> Float.max acc (float_of_int k.snap.max_pending_launches)) 0.0 );
          ("gpusim.launch_cycles", total (fun k -> k.snap.launch_cycles));
          ("gpusim.agg_cycles", total (fun k -> k.snap.agg_cycles));
          ("gpusim.disagg_cycles", total (fun k -> k.snap.disagg_cycles));
          ("gpusim.sampled_blocks", count (fun k -> k.sampling.sampled_blocks));
          ("gpusim.skipped_blocks", count (fun k -> k.sampling.skipped_blocks));
          ("gpusim.skipped_launches", count (fun k -> k.sampling.skipped_launches));
          ( "gpusim.rel_std_error_max",
            fold (fun acc k -> Float.max acc k.rel_std_error) 0.0 );
        ]
    end
  in
  (attempted, !failed, metrics)

(* ---- the compile-service workload ---- *)

let run_serve o (ctx : Serve_mixed.ctx) ~setup_s =
  let ctx = Serve_mixed.with_oracle ctx in
  let passes = run_passes o (Serve_mixed.run_pass ctx) in
  let first = (List.hd passes).result in
  (* Hit and miss counts must repeat exactly on every fresh engine. *)
  let failed =
    List.fold_left
      (fun acc p ->
        let r = p.result in
        acc + r.Serve_mixed.failed
        + if (r.stages, r.evictions) = (first.stages, first.evictions) then 0 else 1)
      0 passes
  in
  let attempted = List.length passes * Array.length ctx.stream in
  print_calibration passes (fun r -> r.Serve_mixed.calib);
  Printf.printf
    "# %d requests per pass, %d distinct jobs, %d passes (%d traced); \
     stage hit rate %.4f, %d cache evictions per pass\n"
    (Array.length ctx.stream) (Array.length ctx.jobs) (List.length passes)
    (List.length (traced passes)) first.hit_rate first.evictions;
  let metrics =
    if not o.trace then
      let ops = mean_latency passes (fun r -> r.Serve_mixed.latencies) in
      end_to_end ~setup_s ~speedup:(Serve_mixed.speedup_geomean ctx) ~attempted
        ~failed ops
    else begin
      let summaries = Span.summarize (Span.all ()) in
      let layers = layer_metrics summaries passes in
      let replayed =
        List.fold_left
          (fun acc l -> acc +. List.assoc (l ^ "_s") layers)
          0.0 timed_layers
      in
      (* Request time above the median, per traced pass: what the misses
         cost beyond a hit. *)
      let excess =
        Harness.Stats.mean
          (List.map
             (fun p ->
               let lat = Array.to_list p.result.Serve_mixed.host_latencies in
               let p50 = median lat in
               List.fold_left (fun acc l -> acc +. Float.max 0.0 (l -. p50)) 0.0 lat)
             (traced passes))
      in
      let misses st =
        Option.fold ~none:0.0
          ~some:(fun (c : Serve.Metrics.stage_counters) -> float_of_int c.misses)
          (List.assoc_opt st first.stages)
      in
      layers
      @ [ ("serve.hit_rate", first.hit_rate) ]
      @ List.map (fun st -> (stage_metric st, misses st)) serve_stages
      @ [
          ("serve.tail_excess_s", excess);
          ("serve.miss_share", if excess > 0.0 then replayed /. excess else 0.0);
        ]
    end
  in
  (attempted, failed, metrics)

(* ---- output ---- *)

(* The result line: exactly the metrics of [units], in that order, with
   per-layer metrics a workload does not exercise reported as 0. *)
let result_json ~correct ~attempted ~failed ~units ~missing metrics =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name units) then
        failwith ("metric not declared: " ^ name))
    metrics;
  let value name =
    match List.assoc_opt name metrics with
    | Some v -> v
    | None -> missing name
  in
  let finite = ref true in
  let fields =
    List.map
      (fun (name, unit) ->
        let v = value name in
        if not (Float.is_finite v) then finite := false;
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
          (if Float.is_finite v then v else 0.0)
          unit)
      units
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct && !finite) attempted failed (String.concat ", " fields)

let () =
  let o = parse_args () in
  if o.setup_only then begin
    let _, s = timed_setup o in
    Printf.printf "%.9f\n" s;
    exit 0
  end;
  let cfg = Gpusim.Config.default in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%b\n" o.workload
    o.seed o.seconds o.trace;
  Printf.printf "# engine=%s block_jobs=%d nproc=%d\n%!"
    (Fmt.str "%a" Gpusim.Config.pp_engine cfg.engine)
    cfg.block_jobs
    (Domain.recommended_domain_count ());
  Span.enabled := o.trace;
  let ctx, setup0 = timed_setup o in
  Span.enabled := false;
  let setups = setup0 :: List.init (setup_runs - 1) (fun _ -> child_setup o) in
  let setup_s = median setups in
  Printf.printf "# setup_s samples: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
  let attempted, failed, metrics =
    match ctx with
    | Sim_ctx (w, cells) ->
        Printf.printf
          "# inputs: the %s registry; Benchmarks.Registry fixes its datasets, \
           so the seed does not change them\n"
          (match w.size with Small -> "small" | Medium -> "medium" | Large -> "large");
        run_sim o w cells ~setup_s
    | Serve_ctx c ->
        let t = Serve_mixed.traffic ~seed:o.seed 0 in
        Printf.printf
          "# inputs: %d Serve.Traffic streams, seeds %d..%d, each distinct=%d \
           requests=%d zipf=%g burst<=%d profiles=%b, interleaved burst by \
           burst; one closed-loop client\n"
          Serve_mixed.streams t.seed
          (t.seed + Serve_mixed.streams - 1)
          t.distinct t.requests t.zipf_s t.burst t.with_profiles;
        run_serve o c ~setup_s
  in
  if o.trace then begin
    if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
    let path =
      Filename.concat trace_dir
        (Printf.sprintf "trace-%s-seed%d.jsonl" o.workload o.seed)
    in
    Span.write path (Span.all ());
    Printf.printf "# spans written to %s\n" path
  end;
  let units = if o.trace then per_layer_units else end_to_end_units in
  let missing name =
    if o.trace then 0.0 else failwith ("end-to-end metric not computed: " ^ name)
  in
  let correct = failed = 0 in
  print_endline (result_json ~correct ~attempted ~failed ~units ~missing metrics);
  exit (if correct then 0 else 1)
