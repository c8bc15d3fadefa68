(* Allocation-free device memory on the default (bytecode) engine.

   Deterministic counters only, no wall clock:
   - minor words allocated per simulated thread on the registry's
     heaviest aggregation cell;
   - spilled stores (Memory.spills) across the small registry;
   - one lane per buffer when first stores race across a parallel batch.
   Dumps and metrics at block_jobs 1 and 4 on registry cells are pinned by
   test_scale's benchmark-cell identity test. *)

open Gpusim
module BC = Benchmarks.Bench_common
module V = Harness.Variant

let slow name f = Alcotest.test_case name `Slow f

let spec name dataset =
  match Benchmarks.Registry.find ~name ~dataset () with
  | Some s -> s
  | None -> Alcotest.failf "%s/%s missing from the registry" name dataset

let device_variant = function
  | V.No_cdp -> `No_cdp
  | V.Cdp o -> `Cdp o

let cdp_a = V.instantiate { t = false; c = false; a = true } V.default_params
let cdp_tca = V.instantiate { t = true; c = true; a = true } V.default_params

let load ?(cfg = Config.default) (s : BC.spec) v =
  BC.load_variant ~cfg s (device_variant v)

(* 5x under the ~375 words per thread this cell cost when every device
   load, store and atomic boxed through Value.t. *)
let words_per_thread_bar = 75.0

(* Thread set-up allocates nothing since the per-block argument template
   and the unboxed thread index (20.7 words per thread before). Measured
   11.4; the bar adds a margin of about 20%. *)
let words_per_thread_tight = 14.0

let test_words_per_thread () =
  let s = spec "TC" "KRON" in
  let dev = load s cdp_a in
  let w0 = Gc.minor_words () in
  ignore (s.run dev);
  let words = Gc.minor_words () -. w0 in
  let threads = (Device.metrics dev).Metrics.threads_executed in
  let per_thread = words /. float_of_int threads in
  Alcotest.(check bool)
    (Fmt.str "%.1f words per thread <= %.0f (%d threads)" per_thread
       words_per_thread_bar threads)
    true
    (threads > 0 && per_thread <= words_per_thread_bar);
  Alcotest.(check bool)
    (Fmt.str "%.1f words per thread <= %.1f" per_thread words_per_thread_tight)
    true
    (per_thread <= words_per_thread_tight)

let test_no_spills () =
  List.iter
    (fun (s : BC.spec) ->
      List.iter
        (fun v ->
          let dev = load s v in
          ignore (s.run dev);
          Alcotest.(check int)
            (Fmt.str "%s/%s %s spills" s.name s.dataset (V.label v))
            0
            (Memory.spills (Device.memory dev)))
        [ V.No_cdp; V.Cdp Dpopt.Pipeline.none; cdp_a; cdp_tca ])
    (Benchmarks.Registry.all ~size:Benchmarks.Registry.Small ())

(* A provably block-safe kernel whose first stores into a fresh zero
   buffer race across the domains of a parallel batch: they must agree on
   one Floats lane. *)
let owned_float_src =
  {|
__global__ void scale(float* out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { out[i] = (float)i * 0.5; }
}
|}

let test_parallel_first_stores () =
  let run block_jobs =
    let dev = Device.create ~cfg:{ Config.test_config with block_jobs } () in
    Device.load_program dev (Minicu.Parser.program owned_float_src);
    let blocks = 16 in
    let n = blocks * 32 in
    let out = Device.alloc_int_zeros dev n in
    Device.launch dev ~kernel:"scale" ~grid:(blocks, 1, 1) ~block:(32, 1, 1)
      ~args:[ Value.Ptr out; Value.Int n ];
    ignore (Device.sync dev);
    (dev, Device.read_floats dev out n)
  in
  let dev1, out1 = run 1 and dev4, out4 = run 4 in
  Alcotest.(check bool) "parallel batches formed" true
    (fst (Device.par_stats dev4) > 0);
  Alcotest.(check (array (float 0.0))) "same floats" out1 out4;
  Alcotest.(check (float 0.0)) "last element" 255.5 out4.(511);
  Alcotest.(check int) "no spills" 0
    (Memory.spills (Device.memory dev1) + Memory.spills (Device.memory dev4))

let suite =
  [
    Alcotest.test_case "parallel first stores share one lane" `Quick
      test_parallel_first_stores;
    slow "TC/KRON CDP+A allocates <= 75 words per thread"
      test_words_per_thread;
    slow "no spilled stores across the small registry" test_no_spills;
  ]
