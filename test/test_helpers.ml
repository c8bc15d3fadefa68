(* Shared helpers for the transformation tests: a standard nested-parallel
   workload whose output must be preserved by every optimization variant. *)

open Gpusim

(* The canonical test program: each parent thread increments a run of a data
   array through a child grid, with heavy-tailed run lengths. *)
let nested_src =
  {|
__global__ void child(int* data, int base, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    data[base + i] = data[base + i] * 2 + 1;
  }
}

__global__ void parent(int* rows, int* data, int n) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < n) {
    int start = rows[v];
    int deg = rows[v + 1] - rows[v];
    if (deg > 0) {
      child<<<(deg + 31) / 32, 32>>>(data, start, deg);
    }
  }
}
|}

let to_device_auto = Benchmarks.Bench_common.to_device_auto

(* Run [prog] (typically a transformed nested_src) on the standard workload:
   [nested_device] returns the finished device, [run_nested] (data after
   run, metrics). [n] parents; parent [v] owns a run
   of length [v * (v - 1) / 2 .. ] — triangular sizes, so small and large
   child grids both occur. *)
let nested_device ?(cfg = Config.test_config) ?(n = 40)
    (r : Dpopt.Pipeline.result) =
  let dev = Device.create ~cfg () in
  Device.load_program dev r.prog ~auto_params:(to_device_auto r.auto_params);
  let rows = Array.init (n + 1) (fun i -> i * (i - 1) / 2) in
  let total = rows.(n) in
  let data = Array.init total (fun i -> i) in
  let d_rows = Device.alloc_ints dev rows in
  let d_data = Device.alloc_ints dev data in
  Device.launch dev ~kernel:"parent"
    ~grid:((n + 31) / 32, 1, 1)
    ~block:(32, 1, 1)
    ~args:[ Value.Ptr d_rows; Value.Ptr d_data; Value.Int n ];
  ignore (Device.sync dev);
  (dev, d_data, total)

let run_nested ?cfg ?n r =
  let dev, d_data, total = nested_device ?cfg ?n r in
  (Device.read_ints dev d_data total, Device.metrics dev)

let expected_nested ?(n = 40) () =
  let rows = Array.init (n + 1) (fun i -> i * (i - 1) / 2) in
  Array.init rows.(n) (fun i -> (i * 2) + 1)

(* Transform nested_src with [opts], run it, and check the output. Returns
   metrics for further assertions. *)
let check_nested_variant ?cfg ?n (opts : Dpopt.Pipeline.options) =
  let r = Dpopt.Pipeline.run ~opts (Minicu.Parser.program nested_src) in
  let got, metrics = run_nested ?cfg ?n r in
  Alcotest.(check (array int)) "output preserved" (expected_nested ?n ()) got;
  (r, metrics)

(* Find a function in a transformed program. *)
let fn (r : Dpopt.Pipeline.result) name = Minicu.Ast.find_func_exn r.prog name

let has_fn (r : Dpopt.Pipeline.result) name =
  Minicu.Ast.find_func r.prog name <> None

(* One exact line for everything a finished device run shows: the
   simulated clock, every [Metrics] field (floats as IEEE-754 bit patterns,
   so nothing is lost to rounding and NaNs compare equal; race reports
   quoted) and the MD5 of a bit-exact dump of every buffer. The simulator
   goldens (test/corpus/sim_*.fingerprints) hold these lines. *)
let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let metrics_fingerprint (m : Metrics.t) =
  let b = m.breakdown and s = m.sampling in
  Printf.sprintf "bd=%s,%s,%s,%s,%s mk=%s n=%d,%d,%d,%d,%d,%d,%d,%d,%d \
           s=%d,%d,%d,%d,%d,%s,%s r=[%s]"
    (bits b.parent_cycles) (bits b.child_cycles) (bits b.agg_cycles)
    (bits b.disagg_cycles) (bits b.launch_cycles) (bits m.makespan)
    m.grids_launched m.device_launches m.host_launches m.blocks_executed
    m.threads_executed m.max_pending_launches m.serialized_launches
    m.races_detected m.oob_detected s.sampled_grids s.sampled_blocks
    s.skipped_blocks s.sampled_launches s.skipped_launches (bits s.est_total)
    (bits s.est_variance)
    (String.concat "; " (List.map (Printf.sprintf "%S") m.race_reports))

let dump_digest dev =
  let b = Buffer.create 4096 in
  List.iteri
    (fun i buf ->
      Buffer.add_string b (Fmt.str "buf%d:" i);
      Array.iter
        (fun v ->
          Buffer.add_char b ' ';
          Buffer.add_string b
            (match v with
            | Value.Float f -> "F:" ^ bits f
            | v -> Value.to_string v))
        buf;
      Buffer.add_char b '\n')
    (Device.dump_memory dev ~first:(Device.buffer_count dev));
  Digest.to_hex (Digest.string (Buffer.contents b))

let fingerprint dev =
  Printf.sprintf "t=%s %s mem=%s" (bits (Device.time dev))
    (metrics_fingerprint (Device.metrics dev))
    (dump_digest dev)
