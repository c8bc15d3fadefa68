module Rng = Workloads.Rng

type config = {
  seed : int;
  distinct : int;
  requests : int;
  zipf_s : float;
  burst : int;
  with_profiles : bool;
}

let default =
  {
    seed = 42;
    distinct = 12;
    requests = 200;
    zipf_s = 1.1;
    burst = 32;
    with_profiles = true;
  }

let sample_opts rng =
  let t = Rng.bool rng 0.5 and c = Rng.bool rng 0.5 and a = Rng.bool rng 0.5 in
  let threshold =
    if t then Some [| 16; 32; 64 |].(Rng.int rng 3) else None
  in
  let cfactor = if c then Some [| 2; 4 |].(Rng.int rng 2) else None in
  let granularity =
    if a then
      Some
        (match Rng.int rng 4 with
        | 0 -> Dpopt.Aggregation.Warp
        | 1 -> Dpopt.Aggregation.Block
        | 2 -> Dpopt.Aggregation.Multi_block 4
        | _ -> Dpopt.Aggregation.Grid)
    else None
  in
  let agg_threshold = if a && Rng.bool rng 0.5 then Some 4 else None in
  Dpopt.Pipeline.make ?threshold ?cfactor ?granularity ?agg_threshold ()

let catalog cfg rng : Engine.request array =
  Array.init (max 1 cfg.distinct) (fun _ ->
      let gseed = Rng.int rng 0x3FFFFFFF in
      let case = Difftest.Gen.case_of_seed gseed in
      let rq_profile =
        if cfg.with_profiles && Rng.bool rng 0.7 then
          Some
            (Costmodel.Profile.synthetic ~seed:(Rng.int rng 10_000)
               ~items:(16 + Rng.int rng 256)
               ~mean:(8 + Rng.int rng 120)
               ~skew:(Rng.float rng) ())
        else None
      in
      {
        Engine.rq_file = Fmt.str "gen-%d.cu" gseed;
        rq_src = Difftest.Gen.source case;
        rq_opts = sample_opts rng;
        rq_profile;
      })

(* Zipf over catalog ranks: weight 1/(r+1)^s, sampled by walking the
   cumulative mass. Catalogs are small (tens), so linear walk is fine. *)
let zipf_sampler cfg rng n =
  let w = Array.init n (fun r -> 1.0 /. ((float_of_int (r + 1)) ** cfg.zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  fun () ->
    let x = Rng.float rng *. total in
    let rec walk r acc =
      if r = n - 1 then r
      else
        let acc = acc +. w.(r) in
        if x < acc then r else walk (r + 1) acc
    in
    walk 0 0.0

let requests cfg =
  let rng = Rng.create ~seed:cfg.seed in
  let cat = catalog cfg rng in
  let pick = zipf_sampler cfg rng (Array.length cat) in
  let burst = max 1 cfg.burst in
  let rec batches remaining =
    if remaining <= 0 then []
    else
      let b = min remaining (1 + Rng.int rng burst) in
      List.init b (fun _ -> cat.(pick ())) :: batches (remaining - b)
  in
  batches (max 0 cfg.requests)

type run = {
  batches : int;
  total : int;
  rejected : int;
  cold_s : float;
  warm_s : float;
  speedup : float;
  identical : bool;
  warm_hit_rate : float;
  cold_stage_runs : int;
  warm_stage_runs : int;
  snapshot : Metrics.snapshot;
  cache : Lru.stats;
}

let stage_totals (s : Metrics.snapshot) =
  List.fold_left
    (fun (h, n) ((_, c) : string * Metrics.stage_counters) ->
      (h + c.hits, n + c.hits + c.misses))
    (0, 0) s.stages

let replay ?jobs cfg =
  let stream = requests cfg in
  let eng = Engine.create () in
  Harness.Pool.with_pool ?jobs (fun pool ->
      let pass () =
        let t0 = Unix.gettimeofday () in
        let rs = List.map (Engine.compile_batch ~pool eng) stream in
        (Unix.gettimeofday () -. t0, rs)
      in
      let cold_s, cold = pass () in
      let mid = Engine.metrics eng in
      let warm_s, warm = pass () in
      let snapshot = Engine.metrics eng in
      let h0, n0 = stage_totals mid in
      let h1, n1 = stage_totals snapshot in
      (* a miss is the one place a stage computes; see [Engine.memo] *)
      let cold_stage_runs = n0 - h0 and warm_stage_runs = n1 - h1 - (n0 - h0) in
      let warm_hit_rate =
        if n1 = n0 then nan
        else float_of_int (h1 - h0) /. float_of_int (n1 - n0)
      in
      let rejected =
        List.fold_left
          (List.fold_left (fun n -> function Error _ -> n + 1 | Ok _ -> n))
          0 cold
      in
      {
        batches = List.length stream;
        total = List.fold_left (fun n b -> n + List.length b) 0 stream;
        rejected;
        cold_s;
        warm_s;
        speedup = (if warm_s > 0.0 then cold_s /. warm_s else infinity);
        identical = cold = warm;
        warm_hit_rate;
        cold_stage_runs;
        warm_stage_runs;
        snapshot;
        cache = Engine.cache_stats eng;
      })

let json_of_run r =
  let num fmt v =
    if Float.is_nan v || Float.abs v = infinity then "null" else Fmt.str fmt v
  in
  Metrics.json
    ~extra:
      [
        ("requests", string_of_int r.total);
        ("batches", string_of_int r.batches);
        ("rejected", string_of_int r.rejected);
        ("cold_s", num "%.6f" r.cold_s);
        ("warm_s", num "%.6f" r.warm_s);
        ("speedup", num "%.3f" r.speedup);
        ("warm_hit_rate", num "%.4f" r.warm_hit_rate);
        ("identical", string_of_bool r.identical);
        ("cache_entries", string_of_int r.cache.Lru.entries);
        ("cache_bytes", string_of_int r.cache.Lru.bytes);
        ("cache_evictions", string_of_int r.cache.Lru.evictions);
      ]
    r.snapshot
