(** dpoptc — the source-to-source compiler CLI.

    Reads a MiniCU (.cu-like) file, applies any combination of the three
    dynamic-parallelism optimizations in the canonical order (thresholding,
    coarsening, aggregation — paper Fig. 8a), and writes the transformed
    source. Mirrors the paper's artifact workflow: .cu in, .cu out.

    Examples:

    {v
    dpoptc input.cu                      # parse + typecheck + print
    dpoptc -T 128 input.cu               # thresholding at 128
    dpoptc -T 128 -C 8 -A multiblock:16 input.cu -o out.cu
    dpoptc -A grid --report input.cu     # + per-site transformation report
    v} *)

open Cmdliner

let granularity_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "warp" -> Ok Dpopt.Aggregation.Warp
    | "block" -> Ok Dpopt.Aggregation.Block
    | "grid" -> Ok Dpopt.Aggregation.Grid
    | s -> (
        match String.index_opt s ':' with
        | Some i
          when String.sub s 0 i = "multiblock"
               || String.sub s 0 i = "multi-block" -> (
            let g = String.sub s (i + 1) (String.length s - i - 1) in
            match int_of_string_opt g with
            | Some g when g > 0 -> Ok (Dpopt.Aggregation.Multi_block g)
            | _ -> Error (`Msg "multiblock:<n> needs a positive integer"))
        | _ ->
            Error
              (`Msg
                (Fmt.str
                   "unknown granularity %S (expected warp | block | \
                    multiblock:<n> | grid)"
                   s)))
  in
  Arg.conv (parse, fun ppf g -> Dpopt.Aggregation.pp_granularity ppf g)

let input =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"INPUT" ~doc:"MiniCU source file to transform.")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write transformed source to $(docv) (default: stdout).")

let threshold =
  Arg.(
    value
    & opt (some int) None
    & info [ "T"; "threshold" ] ~docv:"N"
        ~doc:
          "Enable the thresholding pass: launch a child grid only if the \
           desired number of child threads is at least $(docv); serialize \
           in the parent otherwise.")

let cfactor =
  Arg.(
    value
    & opt (some int) None
    & info [ "C"; "coarsen" ] ~docv:"FACTOR"
        ~doc:
          "Enable the coarsening pass: each coarsened child block executes \
           the work of $(docv) original blocks.")

let granularity =
  Arg.(
    value
    & opt (some granularity_conv) None
    & info [ "A"; "aggregate" ] ~docv:"GRAN"
        ~doc:
          "Enable the aggregation pass at granularity $(docv): warp, block, \
           multiblock:<n>, or grid.")

let agg_threshold =
  Arg.(
    value
    & opt (some int) None
    & info [ "agg-threshold" ] ~docv:"N"
        ~doc:
          "Aggregation threshold (Section V-B): aggregate only if at least \
           $(docv) parents in the group participate; otherwise they launch \
           directly. Warp/block granularity only.")

let report =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:"Print a per-launch-site transformation report to stderr.")

let emit_native =
  Arg.(
    value & flag
    & info [ "emit-native" ]
        ~doc:
          "After the passes, write parallel OCaml (the native backend's \
           kernel module, compiling against its $(b,Nrt) runtime) instead \
           of MiniCU source. Exits 1 with a one-line diagnostic on \
           constructs the backend rejects ($(b,__threadfence), warp \
           collectives, grid-granularity aggregation).")

let promote =
  Arg.(
    value & flag
    & info [ "promote" ]
        ~doc:
          "Also apply KLAP's promotion to eligible self-recursive \
           single-block kernels (the Section IX pattern T/C/A cannot help).")

let check_only =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Run the dpcheck sanitizer instead of writing output: static \
           lints (divergent barriers, warp-scope ops under divergence, \
           constant out-of-bounds) on the input and on every pass \
           combination's output, plus dynamic race/OOB detection for any \
           CHECK-RUN directives in the file. Exits non-zero on findings.")

let predict =
  Arg.(
    value & flag
    & info [ "predict" ]
        ~doc:
          "Instead of writing output, score all 8 pass combinations with \
           the analytical cost model (lib/costmodel) against a synthetic \
           workload profile ($(b,--items), $(b,--mean-size), $(b,--skew), \
           $(b,--rounds), $(b,--parent-block)) and print the predicted \
           ranking with per-term breakdowns. $(b,-T)/$(b,-C)/$(b,-A) set \
           the knob values the combinations use.")

let items =
  Arg.(
    value & opt int 1024
    & info [ "items" ] ~docv:"N"
        ~doc:"Parent work items of the synthetic profile ($(b,--predict)).")

let mean_size =
  Arg.(
    value & opt int 64
    & info [ "mean-size" ] ~docv:"N"
        ~doc:"Mean child-grid size of the synthetic profile.")

let skew =
  Arg.(
    value & opt float 0.5
    & info [ "skew" ] ~docv:"S"
        ~doc:"Size-distribution skew in [0, 1]: 0 uniform, 1 heavy-tailed.")

let rounds =
  Arg.(
    value & opt int 1
    & info [ "rounds" ] ~docv:"N"
        ~doc:"Host launches of the parent kernel over the modelled run.")

let parent_block =
  Arg.(
    value & opt int 128
    & info [ "parent-block" ] ~docv:"N"
        ~doc:"Threads per block of the parent launches.")

(* Score all 8 pass combinations with the cost model against a synthetic
   profile; the parent kernel is the first __global__ with a launch site. *)
let run_predict ~input ~prog ~threshold ~cfactor ~granularity ~agg_threshold
    ~items ~mean_size ~skew ~rounds ~parent_block =
  match
    List.find_opt
      (fun (f : Minicu.Ast.func) ->
        f.f_kind = Minicu.Ast.Global
        && Minicu.Ast_util.launch_sites f.f_body <> [])
      prog
  with
  | None ->
      Fmt.epr "%s: no kernel with a device launch site; nothing to predict@."
        input;
      1
  | Some parent ->
      let profile =
        Costmodel.Profile.synthetic ~rounds ~parent_block ~items:(max 1 items)
          ~mean:(max 1 mean_size) ~skew ()
      in
      let coeffs = Costmodel.Table.current in
      let scored =
        List.map
          (fun (label, opts) ->
            let f =
              Costmodel.Feature.extract ~prog ~parent_kernel:parent.f_name
                ~profile ~opts ~label ()
            in
            (label, Costmodel.Model.predict coeffs f,
             Costmodel.Model.breakdown coeffs f))
          (Dpopt.Pipeline.enumerate ?threshold ?cfactor ?granularity
             ?agg_threshold ())
      in
      let ranking =
        List.stable_sort (fun (_, a, _) (_, b, _) -> Float.compare a b) scored
      in
      Fmt.pr
        "=== predicted ranking: %s (parent %s; %d items, mean size %d, skew \
         %.2f, %d round%s; model v%d) ===@."
        input parent.f_name items mean_size skew rounds
        (if rounds = 1 then "" else "s")
        coeffs.Costmodel.Model.version;
      List.iteri
        (fun i (label, cycles, bd) ->
          Fmt.pr "%2d. %-12s %12.0f cycles  [%a]@." (i + 1) label cycles
            Costmodel.Model.pp_breakdown bd)
        ranking;
      0

let run input output threshold cfactor granularity agg_threshold promote
    report check_only predict items mean_size skew rounds parent_block
    emit_native =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  let dyn_cfg = Gpusim.Config.test_config in
  (* Shared with dpoptd's job rejection (lib/serve): user errors come out
     as one-line loc-bearing diagnostics and exit 1, never a backtrace;
     anything unrecognized exits 125 with a one-line internal error. *)
  Serve.Errors.exit_of ~file:input @@ fun () ->
  let src = In_channel.with_open_text input In_channel.input_all in
  match
    let prog = Minicu.Parser.program ~file:input src in
    Minicu.Typecheck.check prog;
    if predict then
      `Code
        (run_predict ~input ~prog ~threshold ~cfactor ~granularity
           ~agg_threshold ~items ~mean_size ~skew ~rounds ~parent_block)
    else if check_only then begin
      let rep =
        Analysis.Dpcheck.check ?threshold ?cfactor ?granularity ?agg_threshold
          prog
      in
      let dirs = Analysis.Dynamic.directives src in
      let dynamic =
        if dirs = [] then []
        else
          (* the input first, then — if it is statically sound — every
             pass combination's output under the same directives *)
          let on_input =
            List.map
              (fun f -> ("input", f))
              (Analysis.Dynamic.run ~cfg:dyn_cfg prog dirs)
          in
          let on_combos =
            if Analysis.Dpcheck.error_count rep > 0 then []
            else
              List.concat_map
                (fun (label, opts) ->
                  let r = Dpopt.Pipeline.run ~opts prog in
                  List.map
                    (fun f -> (label, f))
                    (Analysis.Dynamic.run ~cfg:dyn_cfg
                       ~auto_params:r.auto_params r.prog dirs))
                (Dpopt.Pipeline.enumerate ?threshold ?cfactor ?granularity
                   ?agg_threshold ())
          in
          on_input @ on_combos
      in
      `Checked (rep, dirs, dynamic)
    end
    else
      let opts =
        Dpopt.Pipeline.make ?threshold ?cfactor ?granularity ?agg_threshold ()
      in
      let r = Dpopt.Pipeline.run ~opts prog in
      if promote then begin
        let p = Dpopt.Promotion.transform r.prog in
        Minicu.Typecheck.check p.prog;
        List.iter
          (fun (sr : Dpopt.Promotion.site_report) ->
            if report then
              Fmt.epr "promotion %s: %s (%s)@." sr.sr_kernel
                (if sr.sr_transformed then "promoted" else "skipped")
                sr.sr_reason)
          p.reports;
        `Result { r with prog = p.prog }
      end
      else `Result r
  with
  | `Code n -> n
  | `Checked (rep, dirs, dynamic) ->
      Analysis.Dpcheck.pp Fmt.stderr rep;
      List.iter (fun (label, f) -> Fmt.epr "[%s] %s@." label f) dynamic;
      let problems = Analysis.Dpcheck.error_count rep + List.length dynamic in
      if problems = 0 then begin
        Fmt.epr "%s: OK (%d pass combinations clean%s)@." input
          (List.length rep.combos)
          (if dirs = [] then ""
           else
             Fmt.str ", %d sanitized directive runs"
               (List.length dirs * (List.length rep.combos + 1)));
        0
      end
      else begin
        Fmt.epr "%s: %d problem(s)@." input problems;
        1
      end
  | `Result r ->
      let text =
        if emit_native then Native.Emit.program r.prog
        else Minicu.Pretty.program r.prog
      in
      (match output with
      | None -> print_string text
      | Some f -> Out_channel.with_open_text f (fun oc ->
            Out_channel.output_string oc text));
      if report then begin
        List.iter
          (fun (sr : Dpopt.Thresholding.site_report) ->
            Fmt.epr "thresholding %s -> %s: %s (%s)@." sr.sr_parent sr.sr_child
              (if sr.sr_transformed then "transformed" else "skipped")
              sr.sr_reason)
          r.threshold_reports;
        List.iter
          (fun (sr : Dpopt.Coarsening.site_report) ->
            Fmt.epr "coarsening %s -> %s: %s (%s)@." sr.sr_parent sr.sr_child
              (if sr.sr_transformed then "transformed" else "skipped")
              sr.sr_reason)
          r.coarsen_reports;
        List.iter
          (fun (sr : Dpopt.Aggregation.site_report) ->
            Fmt.epr "aggregation %s -> %s: %s (%s)@." sr.sr_parent sr.sr_child
              (if sr.sr_transformed then "transformed" else "skipped")
              sr.sr_reason)
          r.agg_reports;
        if r.auto_params <> [] then
          List.iter
            (fun (k, aps) ->
              Fmt.epr
                "note: kernel %S gained %d runtime-allocated buffer \
                 parameters@."
                k (List.length aps))
            r.auto_params;
        (* which output kernels the simulator may batch-dispatch in
           parallel, and which fall back to serial (and why) *)
        Analysis.Parsafety.pp Fmt.stderr (Analysis.Parsafety.report r.prog)
      end;
      0

let cmd =
  let doc =
    "optimize dynamic parallelism in CUDA-like kernels (thresholding, \
     coarsening, aggregation)"
  in
  Cmd.v
    (Cmd.info "dpoptc" ~version:"1.0.0" ~doc)
    Term.(
      const run $ input $ output $ threshold $ cfactor $ granularity
      $ agg_threshold $ promote $ report $ check_only $ predict
      $ items $ mean_size $ skew $ rounds $ parent_block $ emit_native)

let () = exit (Cmd.eval' cmd)
