(* The compile-service workload: seeded Serve.Traffic streams, interleaved
   burst by burst and replayed by one closed-loop client (the next request
   is sent when the previous one returns) against a fresh Serve.Engine per
   pass. No simulator runs. A single zipf stream's median is set by its
   few hottest jobs, so it moves with the seed; [streams] independent
   streams, each with its own hot set, average that out. *)

module P = Dpopt.Pipeline

let streams = 8

let traffic ~seed i =
  {
    Serve.Traffic.seed = (seed * streams) + i;
    distinct = 250;
    requests = 2500;
    zipf_s = 1.1;
    burst = 32;
    with_profiles = true;
  }

(* Round-robin over the streams' bursts. *)
let rec interleave = function
  | [] -> []
  | qs ->
      List.concat_map (function [] -> [] | b :: _ -> b) qs
      @ interleave (List.filter_map (function [] | [ _ ] -> None | _ :: t -> Some t) qs)

(* What a correct response to a job holds, computed without the engine. *)
type expected = {
  label : string;
  optimized : string;  (** [Pipeline.run_source] on the same source and options. *)
  predicted : float option;
  speedup : float option;
      (** Predicted cycles of plain CDP over the requested options. *)
}

type ctx = {
  stream : Serve.Engine.request array;
  job_of : int array;  (** Request index -> index into [jobs]. *)
  jobs : Serve.Engine.request array;  (** Distinct jobs, first-seen order. *)
  expected : (expected, string) result array;
}

let job_key (rq : Serve.Engine.request) =
  ( rq.rq_file,
    rq.rq_src,
    P.fingerprint rq.rq_opts,
    P.label rq.rq_opts,
    Option.map Serve.Key.profile rq.rq_profile )

(* The engine's predict stage: the first global kernel with a launch site
   is the parent. *)
let parent_kernel (ast : Minicu.Ast.program) =
  List.find_opt
    (fun (f : Minicu.Ast.func) ->
      f.f_kind = Minicu.Ast.Global && Minicu.Ast_util.launch_sites f.f_body <> [])
    ast

let predict ast opts profile =
  Option.map
    (fun (parent : Minicu.Ast.func) ->
      Costmodel.Model.predict Costmodel.Table.current
        (Costmodel.Feature.extract ~prog:ast ~parent_kernel:parent.f_name
           ~profile ~opts ()))
    (parent_kernel ast)

let expect (rq : Serve.Engine.request) =
  let optimized, _ = P.run_source ~opts:rq.rq_opts rq.rq_src in
  let ast = Minicu.Parser.program ~file:rq.rq_file rq.rq_src in
  let predicted, speedup =
    match rq.rq_profile with
    | None -> (None, None)
    | Some profile -> (
        match (predict ast rq.rq_opts profile, predict ast P.none profile) with
        | Some opt, Some base -> (Some opt, Some (base /. opt))
        | opt, _ -> (opt, None))
  in
  { label = P.label rq.rq_opts; optimized; predicted; speedup }

let setup ~seed =
  let stream =
    Array.of_list
      (interleave
         (List.init streams (fun i -> Serve.Traffic.requests (traffic ~seed i))))
  in
  let index = Hashtbl.create 256 and jobs = ref [] in
  let job_of =
    Array.map
      (fun rq ->
        let k = job_key rq in
        match Hashtbl.find_opt index k with
        | Some j -> j
        | None ->
            let j = Hashtbl.length index in
            Hashtbl.add index k j;
            jobs := rq :: !jobs;
            j)
      stream
  in
  { stream; job_of; jobs = Array.of_list (List.rev !jobs); expected = [||] }

(* The oracle: once per distinct job, outside any timed region. *)
let with_oracle ctx =
  {
    ctx with
    expected =
      Array.map
        (fun rq ->
          try Ok (expect rq) with e -> Error (Printexc.to_string e))
        ctx.jobs;
  }

(* Speedups are geomeaned over the jobs whose prediction is a positive
   finite ratio. *)
let speedup_geomean ctx =
  Harness.Stats.geomean
    (Array.to_list ctx.expected
    |> List.filter_map (function
         | Ok { speedup = Some s; _ } when Float.is_finite s && s > 0.0 -> Some s
         | _ -> None))

let matches (e : expected) (r : Serve.Engine.response) =
  r.rs_label = e.label && r.rs_optimized = e.optimized
  && r.rs_predicted = e.predicted

type pass = {
  latencies : float array;  (** Reference seconds (see Calib). *)
  host_latencies : float array;
      (** Host seconds, comparable with the spans' layer times. *)
  calib : float;  (** Median calibration sample, seconds. *)
  failed : int;  (** Error responses and oracle mismatches. *)
  stages : (string * Serve.Metrics.stage_counters) list;
  hit_rate : float;
  evictions : int;
}

(* The calls the engine makes for a job on a cold cache, one span each:
   parse + typecheck + pretty (the parse stage), dpcheck, predict, then
   every pass and the pretty-print of its output. Run after a traced pass,
   outside its timed region, so the miss path reads layer by layer. *)
let replay_miss (rq : Serve.Engine.request) =
  Span.record ~label:rq.rq_file "serve.miss_replay" @@ fun () ->
  let ast =
    Span.record "minicu.parse" (fun () ->
        Minicu.Parser.program ~file:rq.rq_file rq.rq_src)
  in
  Span.record "minicu.typecheck" (fun () -> Minicu.Typecheck.check ast);
  ignore (Span.record "minicu.pretty" (fun () -> Minicu.Pretty.program ast));
  ignore
    (Span.record "analysis.dpcheck" (fun () ->
         List.map (Fmt.str "%a" Analysis.Static.pp_diag)
           (Analysis.Static.check_program ast)));
  Option.iter
    (fun profile ->
      ignore
        (Span.record "costmodel.predict" (fun () ->
             predict ast rq.rq_opts profile)))
    rq.rq_profile;
  ignore
    (List.fold_left
       (fun prog (st : P.stage) ->
         let so = Span.record ("dpopt." ^ st.st_name) (fun () -> st.st_apply prog) in
         ignore (Span.record "minicu.pretty" (fun () -> Minicu.Pretty.program so.so_prog));
         so.so_prog)
       ast (P.stages rq.rq_opts))

let now = Span.now

(* One pass: returns the wall seconds of the request loop, and the
   latencies in reference seconds (see Calib). *)
let run_pass ctx ~traced =
  let eng = Serve.Engine.create () in
  let n = Array.length ctx.stream in
  let starts = Array.make n 0.0 and stops = Array.make n 0.0 in
  let responses = Array.make n (Error "") in
  Calib.start ();
  Array.iteri
    (fun i (rq : Serve.Engine.request) ->
      starts.(i) <- now ();
      responses.(i) <-
        Span.record ~label:rq.rq_file "serve.compile" (fun () ->
            Serve.Engine.compile eng rq);
      stops.(i) <- now ())
    ctx.stream;
  Calib.stop ();
  let wall = stops.(n - 1) -. starts.(0) in
  let host_latencies, latencies = Calib.measure ~starts ~stops in
  let failed = ref 0 in
  Array.iteri
    (fun i r ->
      match (ctx.expected.(ctx.job_of.(i)), r) with
      | Ok e, Ok r when matches e r -> ()
      | _ -> incr failed)
    responses;
  if traced then Array.iter replay_miss ctx.jobs;
  let m = Serve.Engine.metrics eng in
  ( wall,
    {
      latencies;
      host_latencies;
      calib = Calib.median_sample ();
      failed = !failed;
      stages = m.stages;
      hit_rate = m.hit_rate;
      evictions = (Serve.Engine.cache_stats eng).evictions;
    } )
