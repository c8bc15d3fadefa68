(** Deterministic synthetic traffic for [dpoptd]: a catalog of distinct
    jobs drawn from the {!Difftest.Gen} corpus, replayed as a
    zipf-distributed, bursty request stream. Everything — program seeds,
    option records, profiles, ranks, burst boundaries — derives from one
    {!Workloads.Rng} seed, so a run is replayed exactly by its seed. *)

type config = {
  seed : int;
  distinct : int;  (** Catalog size: distinct (program, opts, profile) jobs. *)
  requests : int;  (** Total requests across the stream. *)
  zipf_s : float;
      (** Zipf exponent: rank [r] (0-based) is drawn with weight
          [1 / (r+1)^s]. [0.] = uniform; larger = hotter head. *)
  burst : int;  (** Max batch size; batches are 1..[burst] requests. *)
  with_profiles : bool;  (** Attach synthetic cost-model profiles. *)
}

(** seed 42, 12 distinct, 200 requests, s = 1.1, bursts of ≤ 32,
    profiles on. *)
val default : config

(** The request stream, partitioned into bursts. Catalog files are named
    ["gen-<generative seed>.cu"]. *)
val requests : config -> Engine.request list list

type run = {
  batches : int;
  total : int;  (** Requests replayed per pass. *)
  rejected : int;  (** [Error] responses (0 for Gen-corpus traffic). *)
  cold_s : float;  (** Wall time of the first (cold-cache) pass. *)
  warm_s : float;  (** Wall time of the identical second pass. *)
  speedup : float;  (** [cold_s /. warm_s]. *)
  identical : bool;  (** Warm responses byte-equal to cold ones. *)
  warm_hit_rate : float;  (** Cache hit rate of the warm pass alone. *)
  cold_stage_runs : int;
      (** Stage executions (cache misses) in the cold pass. Deterministic
          up to concurrent duplicate misses at [jobs] > 1. *)
  warm_stage_runs : int;
      (** Stage executions in the warm pass: 0 unless the cache evicted. *)
  snapshot : Metrics.snapshot;  (** Engine metrics after both passes. *)
  cache : Lru.stats;
}

(** [replay ?jobs cfg] — drive a fresh engine through the stream twice
    (cold, then warm) on a [jobs]-wide pool and report. *)
val replay : ?jobs:int -> config -> run

(** {!Metrics.json} of the run: the snapshot plus [cold_s], [warm_s],
    [speedup], [warm_hit_rate], [identical], [requests] fields — the
    [BENCH_serve.json] schema (see README). *)
val json_of_run : run -> string
