(** dpoptd — the batched compile service CLI.

    Front end to {!Serve.Engine}: a content-addressed, stage-memoizing
    compile daemon driven either by a batch of input files or by the
    deterministic synthetic traffic generator ({!Serve.Traffic}).

    {v
    dpoptd a.cu b.cu -T 128 -j 4          # batch-compile, status per file
    dpoptd a.cu --emit out/               # also write out/a.cu
    dpoptd --traffic --requests 400 \
           --json BENCH_serve.json \
           --min-hit-rate 0.5             # cold+warm replay, metrics gate
    v}

    Exit codes: 0 — all jobs compiled (and gates passed); 1 — a job was
    rejected with a diagnostic, or a [--min-hit-rate]/[--min-speedup]
    gate failed; 125 — internal error (one line, never a backtrace). *)

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

let inputs =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"INPUT" ~doc:"MiniCU source files to batch-compile.")

let threshold =
  Arg.(
    value
    & opt (some int) None
    & info [ "T"; "threshold" ] ~docv:"N" ~doc:"Thresholding pass knob.")

let cfactor =
  Arg.(
    value
    & opt (some int) None
    & info [ "C"; "coarsen" ] ~docv:"FACTOR" ~doc:"Coarsening pass knob.")

let granularity =
  Arg.(
    value
    & opt (some granularity_conv) None
    & info [ "A"; "aggregate" ] ~docv:"GRAN"
        ~doc:"Aggregation granularity: warp, block, multiblock:<n>, grid.")

let agg_threshold =
  Arg.(
    value
    & opt (some int) None
    & info [ "agg-threshold" ] ~docv:"N"
        ~doc:"Aggregation threshold (warp/block granularity only).")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains of the compile pool.")

let emit =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit" ] ~docv:"DIR"
        ~doc:"Write each job's optimized source to $(docv)/<basename>.")

let traffic =
  Arg.(
    value & flag
    & info [ "traffic" ]
        ~doc:
          "Ignore INPUTs and replay the deterministic synthetic request \
           stream twice (cold cache, then warm) through one engine; print \
           throughput, hit rates and latency percentiles.")

let seed =
  Arg.(
    value & opt int Serve.Traffic.default.seed
    & info [ "seed" ] ~docv:"N" ~doc:"Traffic stream seed.")

let distinct =
  Arg.(
    value & opt int Serve.Traffic.default.distinct
    & info [ "distinct" ] ~docv:"N"
        ~doc:"Distinct jobs in the traffic catalog.")

(* --requests defaults through DPOPTD_REQS so the @serve smoke can be
   sized from the environment, like DPFUZZ_ITERS for @fuzz. *)
let requests =
  Arg.(
    value
    & opt (some int) None
    & info [ "requests" ] ~docv:"N"
        ~doc:
          "Total traffic requests (default: $(b,DPOPTD_REQS) from the \
           environment, else 200).")

let zipf =
  Arg.(
    value & opt float Serve.Traffic.default.zipf_s
    & info [ "zipf" ] ~docv:"S"
        ~doc:"Zipf exponent of the rank distribution (0 = uniform).")

let burst =
  Arg.(
    value & opt int Serve.Traffic.default.burst
    & info [ "burst" ] ~docv:"N" ~doc:"Maximum requests per batch.")

let no_profiles =
  Arg.(
    value & flag
    & info [ "no-profiles" ]
        ~doc:"Generate traffic without cost-model profiles.")

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the run's metrics JSON to $(docv) (traffic mode).")

let min_hit_rate =
  Arg.(
    value
    & opt (some float) None
    & info [ "min-hit-rate" ] ~docv:"F"
        ~doc:"Fail (exit 1) if the warm pass's cache hit rate is below \
              $(docv).")

let min_speedup =
  Arg.(
    value
    & opt (some float) None
    & info [ "min-speedup" ] ~docv:"F"
        ~doc:
          "Fail (exit 1) if the warm/cold throughput ratio is below \
           $(docv). The ratio is the best of 5 replays, each on a fresh \
           engine, because one replay's wall times are noisy.")

let speedup_tries = 5

let run_traffic ~jobs ~seed ~distinct ~requests ~zipf ~burst ~profiles
    ~json_out ~min_hit_rate ~min_speedup =
  let cfg =
    {
      Serve.Traffic.seed;
      distinct;
      requests;
      zipf_s = zipf;
      burst;
      with_profiles = profiles;
    }
  in
  (* The speedup is a ratio of two wall times, so a gate on it takes the
     best of [speedup_tries] replays, each on a fresh engine. *)
  let runs =
    List.init
      (if min_speedup = None then 1 else speedup_tries)
      (fun _ -> Serve.Traffic.replay ~jobs cfg)
  in
  let r =
    List.fold_left
      (fun (b : Serve.Traffic.run) (r : Serve.Traffic.run) ->
        if r.speedup > b.speedup then r else b)
      (List.hd runs) runs
  in
  let r =
    {
      r with
      identical =
        List.for_all (fun (r : Serve.Traffic.run) -> r.identical) runs;
    }
  in
  let s = r.snapshot in
  Fmt.pr
    "dpoptd traffic: %d requests in %d batches (seed %d, %d distinct, zipf \
     %.2f, %d job%s)@."
    r.total r.batches seed distinct zipf jobs (if jobs = 1 then "" else "s");
  Fmt.pr "  cold %.3fs, warm %.3fs — %.1fx%s; responses %s@." r.cold_s r.warm_s
    r.speedup
    (match runs with
    | [ _ ] -> ""
    | _ -> Fmt.str " (best of %d replays)" (List.length runs))
    (if r.identical then "byte-identical" else "DIVERGED");
  Fmt.pr "  warm hit rate %.1f%%; cache: %d entries, %d bytes, %d evictions@."
    (100.0 *. r.warm_hit_rate) r.cache.Serve.Lru.entries
    r.cache.Serve.Lru.bytes r.cache.Serve.Lru.evictions;
  Fmt.pr "  latency p50 %.2fms p90 %.2fms p99 %.2fms over %d requests@."
    s.p50_ms s.p90_ms s.p99_ms s.requests;
  (match json_out with
  | None -> ()
  | Some f ->
      Out_channel.with_open_text f (fun oc ->
          Out_channel.output_string oc (Serve.Traffic.json_of_run r);
          Out_channel.output_char oc '\n');
      Fmt.pr "  wrote %s@." f);
  let fail fmt = Fmt.epr fmt in
  let bad = ref false in
  if not r.identical then begin
    fail "dpoptd: warm responses diverged from cold responses@.";
    bad := true
  end;
  if r.rejected > 0 then begin
    fail "dpoptd: %d generated job(s) rejected@." r.rejected;
    bad := true
  end;
  (match min_hit_rate with
  | Some m when not (r.warm_hit_rate >= m) ->
      fail "dpoptd: warm hit rate %.3f below required %.3f@." r.warm_hit_rate m;
      bad := true
  | _ -> ());
  (match min_speedup with
  | Some m when not (r.speedup >= m) ->
      fail "dpoptd: warm speedup %.2fx below required %.2fx@." r.speedup m;
      bad := true
  | _ -> ());
  if !bad then 1 else 0

let run_batch ~inputs ~opts ~jobs ~emit =
  let eng = Serve.Engine.create () in
  let reqs =
    List.map
      (fun file ->
        let src =
          match
            Serve.Errors.guard ~file (fun () ->
                In_channel.with_open_text file In_channel.input_all)
          with
          | Ok src -> Some src
          | Error d ->
              Fmt.epr "%s@." d;
              None
        in
        (file, src))
      inputs
  in
  let jobs_in =
    List.filter_map
      (fun (file, src) ->
        Option.map
          (fun src ->
            {
              Serve.Engine.rq_file = file;
              rq_src = src;
              rq_opts = opts;
              rq_profile = None;
            })
          src)
      reqs
  in
  let results =
    Harness.Pool.with_pool ~jobs (fun pool ->
        Serve.Engine.compile_batch ~pool eng jobs_in)
  in
  let failures = ref (List.length reqs - List.length jobs_in) in
  List.iter2
    (fun (rq : Serve.Engine.request) -> function
      | Error diag ->
          incr failures;
          Fmt.epr "%s@." diag
      | Ok (rs : Serve.Engine.response) ->
          List.iter (fun d -> Fmt.epr "%s@." d) rs.rs_diags;
          Fmt.pr "%s: ok [%s]%s%s@." rq.rq_file rs.rs_label
            (match rs.rs_diags with
            | [] -> ""
            | ds -> Fmt.str " (%d diagnostic(s))" (List.length ds))
            (match rs.rs_predicted with
            | None -> ""
            | Some c -> Fmt.str " (predicted %.0f cycles)" c);
          Option.iter
            (fun dir ->
              let out = Filename.concat dir (Filename.basename rq.rq_file) in
              Out_channel.with_open_text out (fun oc ->
                  Out_channel.output_string oc rs.rs_optimized))
            emit)
    jobs_in results;
  if !failures > 0 then begin
    Fmt.epr "dpoptd: %d job(s) rejected@." !failures;
    1
  end
  else 0

let run inputs threshold cfactor granularity agg_threshold jobs emit traffic
    seed distinct requests zipf burst no_profiles json_out min_hit_rate
    min_speedup =
  Serve.Errors.exit_of ~file:"dpoptd" (fun () ->
      if traffic then
        let requests =
          match requests with
          | Some n -> n
          | None -> Harness.Env.get "DPOPTD_REQS"
        in
        run_traffic ~jobs ~seed ~distinct ~requests ~zipf ~burst
          ~profiles:(not no_profiles) ~json_out ~min_hit_rate ~min_speedup
      else if inputs = [] then begin
        Fmt.epr "dpoptd: no inputs (pass source files, or --traffic)@.";
        1
      end
      else
        let opts =
          Dpopt.Pipeline.make ?threshold ?cfactor ?granularity ?agg_threshold
            ()
        in
        run_batch ~inputs ~opts ~jobs ~emit)

let cmd =
  let doc =
    "batched, content-addressed compile service for dynamic-parallelism \
     optimization"
  in
  Cmd.v
    (Cmd.info "dpoptd" ~version:"1.0.0" ~doc)
    Term.(
      const run $ inputs $ threshold $ cfactor $ granularity $ agg_threshold
      $ jobs $ emit $ traffic $ seed $ distinct $ requests $ zipf $ burst
      $ no_profiles $ json_out $ min_hit_rate $ min_speedup)

let () = exit (Cmd.eval' cmd)
