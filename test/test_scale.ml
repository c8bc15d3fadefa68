(* Paper-scale execution: parallel block dispatch and stratified grid
   sampling (Gpusim.Sched, Gpusim.Blocksafe, Gpusim.Memory typed storage).

   The central invariants pinned here:
   - parallel dispatch ([Config.block_jobs] > 1) is byte-identical to the
     serial drain — memory dumps and every metrics field — and the serial
     outcome matches its frozen golden line;
   - stratified sampling is a deterministic function of (seed, stream,
     grid id): the same config picks the same blocks at any -j, and the
     off-switches ([block_frac = 1.0], [block_threshold = 0], [--exact])
     reproduce the exact scheduler bit-for-bit;
   - sampled runs extrapolate within the documented error bound on the
     benchmarks the @scale gate covers. *)

open Gpusim

let t name f = Alcotest.test_case name `Quick f

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Harness: run a driver under a config, snapshot dump + metrics        *)
(* ------------------------------------------------------------------ *)

(* Everything observable about a finished run: the simulated time, and
   its exact fingerprint ({!Test_helpers.fingerprint}: the time's bits,
   every metrics field — breakdown, sampling stats, counters, race
   reports — with floats as bit patterns, and an MD5 of every memory
   cell). Equal fingerprints are the "byte-identical" check. *)
type outcome = { o_time : float; o_line : string }

let outcome_of dev =
  { o_time = Device.time dev; o_line = Test_helpers.fingerprint dev }

let run_driver ?(cfg = Config.test_config) ~src drive : outcome * Device.t =
  let dev = Device.create ~cfg () in
  Device.load_program dev (Minicu.Parser.program src);
  drive dev;
  ignore (Device.sync dev);
  (outcome_of dev, dev)

let check_same_outcome label (a : outcome) (b : outcome) =
  Alcotest.(check string) label a.o_line b.o_line

(* The -j1 outcomes of the identity and sampling cells are frozen in
   test/corpus/sim_scale.fingerprints. *)
let frozen key (o : outcome) =
  Test_corpus.golden_line ~file:"sim_scale.fingerprints" ~key o.o_line

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

(* Per-thread-window writer: provably cross-block safe (Owned). *)
let owned_src =
  {|
__global__ void owned(int* out, int n, int iters) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int s = 0;
  for (int k = 0; k < iters; k = k + 1) { s = s + k; }
  if (i < n) { out[i] = s + i; }
}
|}

(* Commutative reduction into a shared cell: provably safe (Reduce). *)
let reduce_src =
  {|
__global__ void reduce(int* data, int* sum, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { atomicAdd(&sum[0], data[i]); }
}
|}

(* Block-dependent trip count: non-uniform per-block work, for strata. *)
let skewed_src =
  {|
__global__ void skewed(int* out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int trips = (blockIdx.x % 8) * 12 + 4;
  int s = 0;
  for (int k = 0; k < trips; k = k + 1) { s = s + k; }
  if (i < n) { out[i] = s; }
}
|}

let drive_owned ?(blocks = 8) ?(iters = 50) dev =
  let n = blocks * 32 in
  let out = Device.alloc_int_zeros dev n in
  Device.launch dev ~kernel:"owned" ~grid:(blocks, 1, 1) ~block:(32, 1, 1)
    ~args:[ Value.Ptr out; Value.Int n; Value.Int iters ]

let drive_reduce ?(blocks = 8) dev =
  let n = blocks * 32 in
  let data = Device.alloc_ints dev (Array.init n (fun i -> i + 1)) in
  let sum = Device.alloc_int_zeros dev 1 in
  Device.launch dev ~kernel:"reduce" ~grid:(blocks, 1, 1) ~block:(32, 1, 1)
    ~args:[ Value.Ptr data; Value.Ptr sum; Value.Int n ]

let drive_skewed ?(blocks = 64) dev =
  let n = blocks * 32 in
  let out = Device.alloc_int_zeros dev n in
  Device.launch dev ~kernel:"skewed" ~grid:(blocks, 1, 1) ~block:(32, 1, 1)
    ~args:[ Value.Ptr out; Value.Int n ]

(* ------------------------------------------------------------------ *)
(* Blocksafe classification                                            *)
(* ------------------------------------------------------------------ *)

let analyze src name =
  let prog = Minicu.Parser.program src in
  let f = List.find (fun (f : Minicu.Ast.func) -> f.f_name = name) prog in
  Blocksafe.analyze prog f

let test_blocksafe_classify () =
  let s = analyze owned_src "owned" in
  Alcotest.(check bool) "owned safe" true s.bs_safe;
  (match s.bs_modes.(0) with
  | Blocksafe.Owned 1 -> ()
  | Blocksafe.Read_only -> Alcotest.fail "out: expected Owned 1, got Read_only"
  | Blocksafe.Owned k -> Alcotest.failf "out: expected Owned 1, got Owned %d" k
  | Blocksafe.Reduce -> Alcotest.fail "out: expected Owned 1, got Reduce");
  let s = analyze reduce_src "reduce" in
  Alcotest.(check bool) "reduce safe" true s.bs_safe;
  Alcotest.(check bool) "data is Read_only" true
    (s.bs_modes.(0) = Blocksafe.Read_only);
  Alcotest.(check bool) "sum is Reduce" true (s.bs_modes.(1) = Blocksafe.Reduce);
  (* launching kernels are never batchable *)
  let s = analyze Test_helpers.nested_src "parent" in
  Alcotest.(check bool) "launching parent unsafe" false s.bs_safe

(* ------------------------------------------------------------------ *)
(* Parallel dispatch: byte-identity and occupancy                       *)
(* ------------------------------------------------------------------ *)

let par_identity ~key ~src ~drive () =
  let serial, _ = run_driver ~src drive in
  let par, dev4 =
    run_driver ~cfg:{ Config.test_config with block_jobs = 4 } ~src drive
  in
  check_same_outcome (key ^ " -j1 vs -j4") serial par;
  let batches, blocks = Device.par_stats dev4 in
  Alcotest.(check bool)
    (key ^ ": parallel batches formed")
    true
    (batches > 0 && blocks >= 2 * batches);
  frozen key serial

let test_par_identity_owned =
  par_identity ~key:"owned" ~src:owned_src ~drive:drive_owned

let test_par_identity_reduce =
  par_identity ~key:"reduce" ~src:reduce_src ~drive:drive_reduce

(* Unsafe (launching) kernels fall back to serial execution inside the
   parallel drain — identical results, no concurrent batches. *)
let test_par_identity_unsafe () =
  let run jobs =
    let cfg = { Config.test_config with block_jobs = jobs } in
    let r =
      Dpopt.Pipeline.run ~opts:Dpopt.Pipeline.none
        (Minicu.Parser.program Test_helpers.nested_src)
    in
    let dev, _, _ = Test_helpers.nested_device ~cfg r in
    outcome_of dev
  in
  let a = run 1 in
  check_same_outcome "nested -j1 vs -j4" a (run 4);
  frozen "nested" a

(* Benchmark-level identity: registry cells, exact, -j1 vs -j4.
   BT/T0032-C16 CDP dispatches parallel batches; the other two cells hold
   zero-initialized buffers whose first store chooses their lane. *)
let par_identity_cells =
  let cdp o = Harness.Variant.instantiate o Harness.Variant.default_params in
  [
    ("BT", "T0032-C16", "CDP", Harness.Variant.Cdp Dpopt.Pipeline.none);
    ("BT", "T2048-C64", "CDP+T+C+A", cdp { t = true; c = true; a = true });
    ("TC", "KRON", "CDP+A", cdp { t = false; c = false; a = true });
  ]

let test_par_identity_benchmark () =
  List.iter
    (fun (name, dataset, vname, variant) ->
      let spec =
        match Benchmarks.Registry.find ~name ~dataset () with
        | Some spec -> spec
        | None -> Alcotest.failf "%s/%s missing from registry" name dataset
      in
      let key = Fmt.str "%s/%s %s" name dataset vname in
      let run jobs =
        let cfg = { Config.default with block_jobs = jobs } in
        let dev =
          Benchmarks.Bench_common.load_variant ~cfg spec
            (match variant with
            | Harness.Variant.No_cdp -> `No_cdp
            | Harness.Variant.Cdp o -> `Cdp o)
        in
        let fp = spec.run dev in
        let o = outcome_of dev in
        (fp, { o with o_line = Fmt.str "fp=%d %s" fp o.o_line })
      in
      let fa, a = run 1 and fb, b = run 4 in
      Alcotest.(check int) (key ^ ": reference") (spec.reference ()) fa;
      Alcotest.(check int) (key ^ ": fingerprint") fa fb;
      check_same_outcome (key ^ " -j1 vs -j4") a b;
      frozen key a)
    par_identity_cells

(* ------------------------------------------------------------------ *)
(* Sampling: determinism, off-switches, extrapolation                   *)
(* ------------------------------------------------------------------ *)

let sampled_cfg ?(block_jobs = 1) () =
  { Config.test_config with block_jobs; sampling = Some Config.default_sampling }

let test_sampling_deterministic () =
  let run jobs =
    fst
      (run_driver ~cfg:(sampled_cfg ~block_jobs:jobs ()) ~src:skewed_src
         drive_skewed)
  in
  let a = run 1 and b = run 1 and c = run 4 in
  check_same_outcome "sampled rerun" a b;
  check_same_outcome "sampled -j1 vs -j4" a c;
  frozen "skewed sampled" a

let test_sampling_triggers () =
  let o, dev =
    run_driver ~cfg:(sampled_cfg ()) ~src:skewed_src drive_skewed
  in
  let m = Device.metrics dev in
  Alcotest.(check bool) "sampled" true (Metrics.sampled m);
  Alcotest.(check bool) "skipped blocks" true (m.sampling.skipped_blocks > 0);
  Alcotest.(check bool) "simulated blocks" true
    (m.sampling.sampled_blocks > 0);
  Alcotest.(check bool) "variance accumulated" true
    (m.sampling.est_total > 0.0);
  Alcotest.(check bool) "error bound finite" true
    (Float.is_finite (Metrics.rel_std_error m));
  ignore o

(* frac = 1.0 and threshold = 0 both mean "no sampling": bit-identical to
   [sampling = None]. *)
let test_sampling_off_switches () =
  let exact, _ = run_driver ~src:skewed_src drive_skewed in
  let full_frac =
    {
      Config.test_config with
      sampling =
        Some
          {
            Config.default_sampling with
            block_frac = 1.0;
            launch_frac = 1.0;
          };
    }
  in
  let a, _ = run_driver ~cfg:full_frac ~src:skewed_src drive_skewed in
  check_same_outcome "frac=1.0 is exact" exact a;
  let zero_thresh =
    {
      Config.test_config with
      sampling =
        Some
          {
            Config.default_sampling with
            block_threshold = 0;
            launch_threshold = 0;
          };
    }
  in
  let b, _ = run_driver ~cfg:zero_thresh ~src:skewed_src drive_skewed in
  check_same_outcome "threshold=0 is exact" exact b

(* Extrapolated total time within a loose bound on the skewed kernel (the
   tight 10% bound on real benchmarks is the @scale gate's job). *)
let test_sampling_extrapolation () =
  let exact, _ = run_driver ~src:skewed_src drive_skewed in
  let sampled, _ =
    run_driver ~cfg:(sampled_cfg ()) ~src:skewed_src drive_skewed
  in
  let err = Float.abs (sampled.o_time -. exact.o_time) /. exact.o_time in
  if err > 0.10 then
    Alcotest.failf "extrapolation error %.1f%% (exact %.0f, sampled %.0f)"
      (100.0 *. err) exact.o_time sampled.o_time

(* ------------------------------------------------------------------ *)
(* Large-tier ingredients and the supporting harness fixes              *)
(* ------------------------------------------------------------------ *)

(* The large tier's RMAT graph must be in the paper's regime: hub degree
   two orders of magnitude above the mean (cf. kron_g500 in Table I). *)
let test_kron_degree_skew () =
  let g = Workloads.Graph_gen.kron ~scale:13 ~edge_factor:16 () in
  let ratio =
    float_of_int (Workloads.Csr.max_degree g) /. Workloads.Csr.avg_degree g
  in
  if ratio < 100.0 then
    Alcotest.failf "kron scale 13: max/avg degree %.1f < 100" ratio

(* Large-tier cycle counts must render as exact integers, not float
   mantissa approximations, in the CSV/JSON artifacts. *)
let test_csv_cycles () =
  Alcotest.(check string) "small" "42" (Harness.Csv.cycles 42.0);
  Alcotest.(check string) "zero" "0" (Harness.Csv.cycles 0.0);
  Alcotest.(check string)
    "large integral" "1234567890123456"
    (Harness.Csv.cycles 1234567890123456.0);
  Alcotest.(check string)
    "beyond int range" "10000000000000000000"
    (Harness.Csv.cycles 1e19)

let test_geomean_guard () =
  let raises xs =
    match Harness.Stats.geomean xs with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "rejects inf" true (raises [ 1.0; infinity ]);
  Alcotest.(check bool) "rejects nan" true (raises [ 1.0; nan ]);
  Alcotest.(check bool) "rejects zero" true (raises [ 0.0 ]);
  (* log-domain accumulation: a product that overflows floats is fine *)
  let g = Harness.Stats.geomean (List.init 100 (fun _ -> 1e300)) in
  Alcotest.(check bool) "no overflow" true
    (Float.is_finite g && Float.abs (g /. 1e300 -. 1.0) < 1e-6)

let test_extrapolate_report () =
  let exact, dev = run_driver ~src:skewed_src drive_skewed in
  Alcotest.(check bool) "exact run: no report" true
    (Costmodel.Extrapolate.of_metrics (Device.metrics dev) = None);
  ignore exact;
  let _, dev = run_driver ~cfg:(sampled_cfg ()) ~src:skewed_src drive_skewed in
  match Costmodel.Extrapolate.of_metrics (Device.metrics dev) with
  | None -> Alcotest.fail "sampled run: expected a report"
  | Some r ->
      Alcotest.(check bool) "CI brackets the estimate" true
        (r.ex_ci95_lo <= r.ex_est_total && r.ex_est_total <= r.ex_ci95_hi);
      Alcotest.(check bool) "partial coverage" true
        (r.ex_block_coverage > 0.0 && r.ex_block_coverage < 1.0);
      Alcotest.(check bool) "counts" true
        (r.ex_sampled_blocks > 0 && r.ex_skipped_blocks > 0);
      let s = Fmt.str "%a" Costmodel.Extrapolate.pp r in
      Alcotest.(check bool) "pp mentions CI" true
        (contains ~affix:"95% CI" s)

let test_parsafety_report () =
  let entries =
    Analysis.Parsafety.report (Minicu.Parser.program owned_src)
  in
  (match entries with
  | [ e ] ->
      Alcotest.(check string) "kernel" "owned" e.ps_kernel;
      Alcotest.(check bool) "safe" true e.ps_summary.bs_safe;
      Alcotest.(check bool) "static work positive" true (e.ps_static_work > 0.0)
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l));
  let entries =
    Analysis.Parsafety.report (Minicu.Parser.program Test_helpers.nested_src)
  in
  let parent =
    List.find (fun (e : Analysis.Parsafety.entry) -> e.ps_kernel = "parent")
      entries
  in
  Alcotest.(check bool) "parent serial" false parent.ps_summary.bs_safe;
  let s = Fmt.str "%a" Analysis.Parsafety.pp entries in
  Alcotest.(check bool) "pp mentions serial" true
    (contains ~affix:"serial" s)

(* The @scale gate's bound, pinned on a real registry cell: a sampled
   medium-tier benchmark extrapolates within 10% of the exact run. *)
let test_benchmark_extrapolation_medium () =
  match
    Benchmarks.Registry.find ~size:Benchmarks.Registry.Medium ~name:"BT"
      ~dataset:"T0032-C16" ()
  with
  | None -> Alcotest.fail "BT/T0032-C16 missing from registry"
  | Some spec ->
      let run cfg = Harness.Experiment.run ~cfg spec (Harness.Variant.Cdp Dpopt.Pipeline.none) in
      let exact = run Config.default in
      let sampled =
        run { Config.default with sampling = Some Config.default_sampling }
      in
      Alcotest.(check bool) "sampling triggered" true sampled.sampled;
      let err = Float.abs (sampled.time -. exact.time) /. exact.time in
      if err > 0.10 then
        Alcotest.failf
          "medium BT extrapolation error %.1f%% (exact %.0f, sampled %.0f, \
           reported rse %.3f)"
          (100.0 *. err) exact.time sampled.time sampled.rel_std_error

let suite =
  [
    t "blocksafe classifies owned/reduce/unsafe" test_blocksafe_classify;
    t "parallel dispatch: owned kernel byte-identical"
      test_par_identity_owned;
    t "parallel dispatch: reduce kernel byte-identical"
      test_par_identity_reduce;
    t "parallel dispatch: unsafe kernels fall back, identical"
      test_par_identity_unsafe;
    t "parallel dispatch: benchmark cell identical at -j4"
      test_par_identity_benchmark;
    t "sampling: deterministic at any -j" test_sampling_deterministic;
    t "sampling: triggers and reports error bound" test_sampling_triggers;
    t "sampling: frac=1/threshold=0 are exact" test_sampling_off_switches;
    t "sampling: extrapolation within 10% on skewed kernel"
      test_sampling_extrapolation;
    t "large tier: kron scale 13 has 100x degree skew" test_kron_degree_skew;
    t "csv: cycle counts render as exact integers" test_csv_cycles;
    t "stats: geomean rejects non-finite, no overflow" test_geomean_guard;
    t "extrapolate: report only on sampled runs, CI sane"
      test_extrapolate_report;
    t "parsafety: classifies kernels, renders report" test_parsafety_report;
    t "sampling: medium benchmark cell within 10% of exact"
      test_benchmark_extrapolation_medium;
  ]
