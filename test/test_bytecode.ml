(* The simulator's frozen verdicts, plus the bytecode lowering's shape.

   Four layers, ordered by how bugs have historically surfaced, then the
   lowering-shape and loop-fusion checks:

     1. golden disassembly of the corpus fixtures — ISA/encoding changes
        become reviewable diffs (CORPUS_PROMOTE=1 rewrites);
     2. hand-written edge-semantics fixtures (NaN/inf, division by zero,
        checked shared-array OOB, atomics ordering, error order) — where
        unboxing bugs hide: memory, metrics and *exceptions* must match
        the golden line frozen while a second engine (a closure-tree
        interpreter, since removed) still ran beside the VM and both
        agreed;
     3. sanitizer findings — dpcheck's dynamic findings (race reports,
        OOB) on the bad_* corpus fixtures, also frozen;
     4. the benchmark matrix — every Table I benchmark under all 8 pass
        combos, plus the full Small registry under the complete pipeline,
        against frozen fingerprints.

   Each cell is one line of a test/corpus/sim_*.fingerprints golden
   ({!Test_helpers.fingerprint}: simulated time, every metrics field with
   floats as IEEE-754 bit patterns, an MD5 of every buffer). *)

open Gpusim

let t name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let fixtures_golden = "sim_fixtures.fingerprints"

(* ------------------------------------------------------------------ *)
(* Layer 1: golden disassembly of corpus fixtures                      *)
(* ------------------------------------------------------------------ *)

(* Representative shapes: arithmetic + casts, barriers in loops, warp
   collectives, control flow, device-function calls, float builtins,
   rotated loops, dim3 manipulation, a nested launch, and a divergent
   barrier. The encoding is mode-dependent, so the loops fixture is also
   pinned under the checked (sanitizer) configuration. *)
let disasm_fixtures =
  [
    ("atomics", false);
    ("barriers", false);
    ("collectives", false);
    ("controlflow", false);
    ("device_calls", false);
    ("dim3s", false);
    ("floats", false);
    ("loops", false);
    ("loops_checked", true);
    ("nested", false);
    ("bad_divergent_barrier", false);
  ]

let disasm_tests =
  List.map
    (fun (base, checked) ->
      let file =
        (if base = "loops_checked" then "loops" else base) ^ ".minicu"
      in
      t (base ^ ": disassembly matches golden") (fun () ->
          let src =
            Test_corpus.read_file (Filename.concat Test_corpus.corpus_dir file)
          in
          let prog = Minicu.Parser.program ~file src in
          let cfg = { Config.default with check = checked } in
          let asm = Bytecode.disassemble (Bytecode.compile cfg prog) in
          Test_corpus.golden_check ~what:"disassembly" ~fixture:file
            ~golden_name:(base ^ ".disasm") asm))
    disasm_fixtures

(* ------------------------------------------------------------------ *)
(* Layer 2: edge-semantics fixtures                                    *)
(* ------------------------------------------------------------------ *)

(* Run [src] to completion (or to an exception): the finished device, or
   the raised exception's rendering. *)
let run_src ~cfg ~grid ~block ~kernel ~mk_args src =
  let dev = Device.create ~cfg () in
  Device.load_program dev (Minicu.Parser.program src);
  let args = mk_args dev in
  match
    Device.launch dev ~kernel ~grid ~block ~args;
    ignore (Device.sync dev)
  with
  | () -> Ok dev
  | exception e -> Error (Printexc.to_string e)

(* An outcome's golden line: the run's fingerprint, or the exception. *)
let outcome_line = function
  | Ok dev -> Test_helpers.fingerprint dev
  | Error e -> "raises " ^ e

let frozen name ?(cfg = Config.test_config) ?(grid = (1, 1, 1))
    ?(block = (1, 1, 1)) ~kernel ~mk_args src =
  t name (fun () ->
      let outcome = run_src ~cfg ~grid ~block ~kernel ~mk_args src in
      Test_corpus.golden_line ~file:fixtures_golden ~key:name
        (outcome_line outcome))

let out_ints n dev = [ Value.Ptr (Device.alloc_int_zeros dev n) ]
let out_floats n dev = [ Value.Ptr (Device.alloc_float_zeros dev n) ]

let edge_tests =
  [
    frozen "NaN and infinity arithmetic is bit-identical" ~kernel:"k"
      ~mk_args:(out_floats 12)
      {|
__global__ void k(float* o) {
  float z = 0.0;
  float pinf = 1.0 / z;
  float qnan = z / z;
  o[0] = qnan;
  o[1] = pinf;
  o[2] = 0.0 - pinf;
  o[3] = pinf + (0.0 - pinf);
  o[4] = qnan < 1.0 ? 1.0 : 2.0;
  o[5] = qnan == qnan ? 1.0 : 2.0;
  o[6] = min(qnan, 3.0);
  o[7] = max(qnan, 3.0);
  o[8] = sqrt(0.0 - 4.0);
  o[9] = log(0.0);
  o[10] = exp(1000.0);
  o[11] = pinf * 0.0;
}
|};
    frozen "negative zero and float cast edges" ~kernel:"k"
      ~mk_args:(out_floats 6)
      {|
__global__ void k(float* o) {
  float nz = 0.0 - 0.0;
  o[0] = nz;
  o[1] = nz == 0.0 ? 1.0 : 2.0;
  o[2] = (float)(int)1.9;
  o[3] = (float)(int)(0.0 - 1.9);
  o[4] = pow(2.0, 0.5);
  o[5] = fabs(nz);
}
|};
    frozen "integer division by zero raises identically" ~kernel:"k"
      ~mk_args:(fun dev ->
        [ Value.Ptr (Device.alloc_int_zeros dev 1); Value.Int 0 ])
      "__global__ void k(int* o, int n) { o[0] = 7 / n; }";
    frozen "integer modulo by zero raises identically" ~kernel:"k"
      ~mk_args:(fun dev ->
        [ Value.Ptr (Device.alloc_int_zeros dev 1); Value.Int 0 ])
      "__global__ void k(int* o, int n) { o[0] = 7 % n; }";
    frozen "checked shared-array OOB store raises at the same loc"
      ~cfg:{ Config.test_config with check = true }
      ~kernel:"k" ~mk_args:(out_ints 4)
      {|
__global__ void k(int* o) {
  __shared__ int s[4];
  s[threadIdx.x + 6] = 1;
  o[0] = s[0];
}
|};
    frozen "checked shared-array OOB load raises at the same loc"
      ~cfg:{ Config.test_config with check = true }
      ~kernel:"k" ~mk_args:(out_ints 4)
      {|
__global__ void k(int* o) {
  __shared__ int s[4];
  s[0] = 1;
  o[0] = s[threadIdx.x + 9];
}
|};
    frozen "global OOB raises identically (unchecked mode)"
      ~kernel:"k" ~mk_args:(out_ints 4)
      "__global__ void k(int* o) { o[100] = 1; }";
    frozen "atomics ordering across a block is deterministic"
      ~block:(64, 1, 1) ~kernel:"k" ~mk_args:(out_ints 8)
      {|
__global__ void k(int* o) {
  atomicAdd(&o[0], threadIdx.x + 1);
  int prev = atomicExch(&o[1], threadIdx.x);
  atomicMax(&o[2], prev);
  int seen = atomicCAS(&o[3], threadIdx.x, threadIdx.x + 1);
  atomicSub(&o[4], seen);
  atomicMin(&o[5], 0 - threadIdx.x);
}
|};
    frozen "atomic float accumulation keeps summation order"
      ~block:(32, 1, 1) ~kernel:"k"
      ~mk_args:(fun dev ->
        [ Value.Ptr (Device.alloc_floats dev [| 0.0; 0.1 |]) ])
      {|
__global__ void k(float* o) {
  atomicAdd(&o[0], 0.1 * (float)(threadIdx.x % 3));
}
|};
    frozen "divergent barrier resolves identically at runtime"
      ~block:(32, 1, 1) ~kernel:"k" ~mk_args:(out_ints 32)
      {|
__global__ void k(int* o) {
  if (threadIdx.x < 16) {
    o[threadIdx.x] = 1;
    __syncthreads();
  }
  o[0] = 2;
}
|};
    frozen "CAS retry loop converges identically" ~block:(16, 1, 1)
      ~kernel:"k" ~mk_args:(out_ints 2)
      {|
__global__ void k(int* o) {
  int seen = o[0];
  while (atomicCAS(&o[0], seen, seen + 1) != seen) {
    seen = o[0];
  }
  atomicAdd(&o[1], 1);
}
|};
  ]

(* ------------------------------------------------------------------ *)
(* Fused memory operands: lowering shape and error order               *)
(* ------------------------------------------------------------------ *)

(* [load]/[addr]/[dim3] coerce their own operands, so lowering keeps a
   separate [as_ptr]/[cast.int] only where something that can raise or
   have an effect is evaluated between the coercion and its consumer
   (DESIGN.md §9). These tests pin both halves of that rule on the logical
   code stream ([bp_code]): what is dropped, and — through error order
   that differs observably if it were dropped — what is kept. *)

let lowered src =
  (Bytecode.compile Config.test_config (Minicu.Parser.program src))
    .Bytecode.bp_code

(* The register an instruction writes, for the instructions these small
   kernels lower to. *)
let writes = function
  | Bytecode.I_const_int (d, _)
  | I_mov (d, _)
  | I_special_comp (d, _, _)
  | I_member (d, _, _)
  | I_binop (_, d, _, _)
  | I_binop_int (_, d, _, _)
  | I_cast_int (d, _)
  | I_as_ptr (d, _)
  | I_dim3 (d, _, _, _)
  | I_load (d, _, _, _) ->
      Some d
  | _ -> None

(* Coercions feeding an operand [operands] picks out of an instruction:
   the last write to that register before it is a [cast.int]/[as_ptr]. *)
let feeding operands code =
  let n = ref 0 in
  Array.iteri
    (fun c i ->
      List.iter
        (fun r ->
          let rec back k =
            if k >= 0 then
              if writes code.(k) = Some r then
                match code.(k) with
                | Bytecode.I_cast_int _ | I_as_ptr _ -> incr n
                | _ -> ()
              else back (k - 1)
          in
          back (c - 1))
        (operands i))
    code;
  !n

let casts_feeding_loads =
  feeding (function Bytecode.I_load (_, _, i, _) -> [ i ] | _ -> [])

let as_ptrs_feeding_loads =
  feeding (function Bytecode.I_load (_, p, _, _) -> [ p ] | _ -> [])

let casts_feeding_dim3 =
  feeding (function Bytecode.I_dim3 (_, x, y, z) -> [ x; y; z ] | _ -> [])

let kernel_of body = Fmt.str "__global__ void k(int* a, int i, int* o) { %s }" body

let shape_tests =
  let shape what body ~as_ptrs =
    t ("lowering: " ^ what) (fun () ->
        let code = lowered (kernel_of body) in
        Alcotest.(check int) (what ^ ": cast.int feeding a load") 0
          (casts_feeding_loads code);
        Alcotest.(check int) (what ^ ": as_ptr feeding a load") as_ptrs
          (as_ptrs_feeding_loads code))
  in
  [
    shape "a[i] loads through the variables' own registers" "o[0] = a[i];"
      ~as_ptrs:0;
    shape "a[3] coerces nothing" "o[0] = a[3];" ~as_ptrs:0;
    shape "a[threadIdx.x] coerces nothing" "o[0] = a[threadIdx.x];"
      ~as_ptrs:0;
    shape "a[a[i]] keeps the outer as_ptr" "o[0] = a[a[i]];" ~as_ptrs:1;
    t "lowering: dim3 keeps only casts followed by non-quiet code" (fun () ->
        let casts src =
          casts_feeding_dim3
            (lowered
               (Fmt.str
                  "__global__ void k(int* o, int x, int y, int z) { dim3 d = \
                   %s; o[0] = d.x; }"
                  src))
        in
        Alcotest.(check int) "dim3(x, 2, z)" 0 (casts "dim3(x, 2, z)");
        Alcotest.(check int) "dim3(x, y / 2, z): z stays" 1
          (casts "dim3(x, y / 2, z)");
        Alcotest.(check int) "dim3(x / 2, y, z): z, y stay" 2
          (casts "dim3(x / 2, y, z)"));
  ]

(* Each fixture checks its golden line (exception text, or memory and
   metrics), that the outcome is the interesting one, and the lowered
   shape the outcome depends on. *)
let error_order name ~mk_args ~outcome ~shape src =
  t name (fun () ->
      let r =
        run_src ~cfg:Config.test_config ~grid:(1, 1, 1) ~block:(1, 1, 1)
          ~kernel:"k" ~mk_args src
      in
      Test_corpus.golden_line ~file:fixtures_golden ~key:name (outcome_line r);
      outcome r;
      shape (lowered src))

let raises fragment = function
  | Error e when Test_analysis.contains e fragment -> ()
  | Error e -> Alcotest.failf "raised %S, expected %S" e fragment
  | Ok _ -> Alcotest.failf "completed, expected an error containing %S" fragment

let as_ptrs n code =
  Alcotest.(check int) "as_ptr feeding a load" n (as_ptrs_feeding_loads code)

let error_order_tests =
  let ints dev xs = Value.Ptr (Device.alloc_ints dev xs) in
  [
    error_order "p[i] on a non-pointer p raises from the load itself"
      ~mk_args:(fun dev -> [ Value.Int 5; Value.Int 0; ints dev [| 0 |] ])
      ~outcome:(raises "expected a pointer, got 5") ~shape:(as_ptrs 0)
      "__global__ void k(int* p, int i, int* o) { o[0] = p[i]; }";
    error_order "p[q[k]]: the pointer error precedes the inner OOB load"
      ~mk_args:(fun dev ->
        [ Value.Int 5; ints dev [| 1; 2 |]; Value.Int 100; ints dev [| 0 |] ])
      ~outcome:(raises "expected a pointer, got 5") ~shape:(as_ptrs 1)
      "__global__ void k(int* p, int* q, int k, int* o) { o[0] = p[q[k]]; }";
    error_order "a float index is truncated by the load"
      ~mk_args:(fun dev -> [ ints dev [| 10; 20; 30 |]; Value.Float 2.9 ])
      ~outcome:(function
        | Ok dev ->
            Alcotest.(check (list int))
              "o" [ 30; 20; 30 ]
              (List.map Value.as_int
                 (Array.to_list (List.hd (Device.dump_memory dev ~first:1))))
        | Error e -> Alcotest.failf "raised %s" e)
      ~shape:(fun code ->
        Alcotest.(check int) "cast.int feeding a load" 0
          (casts_feeding_loads code))
      "__global__ void k(int* o, int i) { o[0] = o[i]; }";
    error_order "dim3(x, y/0, z): a non-int z raises before the division"
      ~mk_args:(fun dev ->
        [ ints dev [| 0 |]; Value.Int 1; Value.Int 2; ints dev [| 0 |] ])
      ~outcome:(raises "expected an int, got ptr(")
      ~shape:(fun code ->
        Alcotest.(check int) "z keeps its cast.int" 1 (casts_feeding_dim3 code))
      "__global__ void k(int* o, int x, int y, int* z) { dim3 d = dim3(x, y / \
       0, z); o[0] = d.x; }";
    error_order "division by a zero literal raises from div.i"
      ~mk_args:(fun dev -> [ ints dev [| 0 |]; Value.Int 7 ])
      ~outcome:(raises "integer division by zero")
      ~shape:(fun code ->
        Alcotest.(check bool) "div.i emitted" true
          (Array.exists
             (function
               | Bytecode.I_binop_int (Minicu.Ast.Div, _, _, 0) -> true
               | _ -> false)
             code))
      "__global__ void k(int* o, int n) { o[0] = n / 0; }";
  ]

(* ------------------------------------------------------------------ *)
(* Layer 3: sanitizer findings                                        *)
(* ------------------------------------------------------------------ *)

(* dpoptc --check runs Analysis.Dynamic over the program; its findings
   embed source locations and are deduplicated per address. They must
   match the golden line byte for byte — epoch tags, locs and dedup. *)
let sanitizer_findings base =
  t (base ^ ": dynamic sanitizer findings match the golden") (fun () ->
      let file = base ^ ".minicu" in
      let src =
        Test_corpus.read_file (Filename.concat Test_corpus.corpus_dir file)
      in
      let prog = Minicu.Parser.program ~file src in
      let dirs = Analysis.Dynamic.directives src in
      let findings = Analysis.Dynamic.run ~cfg:Config.test_config prog dirs in
      if findings = [] then
        Alcotest.failf "%s: expected at least one dynamic finding" base;
      Test_corpus.golden_line ~file:fixtures_golden ~key:base
        (String.concat "; " (List.map (Printf.sprintf "%S") findings)))

let sanitizer_tests =
  List.map sanitizer_findings [ "bad_race_rw"; "bad_race_ww"; "bad_oob_dynamic" ]

(* ------------------------------------------------------------------ *)
(* Layer 4: benchmark matrix                                           *)
(* ------------------------------------------------------------------ *)

(* A benchmark cell's golden line: the benchmark's own output fingerprint
   ([spec.run]) and the run's. *)
let spec_line (spec : Benchmarks.Bench_common.spec) v =
  let dev = Benchmarks.Bench_common.load_variant ~cfg:Config.default spec v in
  let fp = spec.run dev in
  Fmt.str "fp=%d %s" fp (Test_helpers.fingerprint dev)

let spec_cell (spec : Benchmarks.Bench_common.spec) vname =
  Fmt.str "%s/%s under %s" spec.name spec.dataset vname

let spec_golden ~file tier (spec : Benchmarks.Bench_common.spec) (vname, v) =
  let key = spec_cell spec vname in
  tier (key ^ ": engines' frozen fingerprint holds") (fun () ->
      Test_corpus.golden_line ~file ~key (spec_line spec v))

let combos () =
  List.map (fun (l, o) -> (l, `Cdp o)) (Dpopt.Pipeline.enumerate ())

(* Every Table I benchmark (tiny datasets) under all 8 pass combos. *)
let combo_tests =
  List.concat_map
    (fun spec ->
      List.map (spec_golden ~file:"sim_specs.fingerprints" slow spec) (combos ()))
    (Test_benchmarks.specs ())

(* The full Small registry under the complete pipeline: the CDP+T+C+A
   column of the registry-wide golden that test_registry.exe (@ir) checks
   in full. *)
let registry_golden = "sim_registry.fingerprints"

let registry_tests =
  let full = List.assoc "CDP+T+C+A" (combos ()) in
  List.map
    (fun spec -> spec_golden ~file:registry_golden slow spec ("CDP+T+C+A", full))
    (Benchmarks.Registry.all ~size:Benchmarks.Registry.Small ())

(* ------------------------------------------------------------------ *)
(* Loop fusion                                                         *)
(* ------------------------------------------------------------------ *)

(* A counting loop with an empty body runs as one packed dispatch per
   iteration: its only back edge belongs to a fused [loop.cc]/[loop.cci]
   superinstruction (charge; k += 1; compare and branch — opcodes 59/60,
   8 words) that jumps to its own word offset. This fusion is where the
   VM's speed on tight loops comes from. *)
let count_loop_src =
  {|
__global__ void micro(int* out, int iters) {
  int s = 0;
  for (int k = 0; k < iters; k = k + 1) { }
  out[threadIdx.x] = s;
}
|}

let fusion_tests =
  [
    t "count loop: one packed dispatch per iteration" (fun () ->
        let p =
          Bytecode.compile Config.default
            (Minicu.Parser.program count_loop_src)
        in
        let back_edges = ref [] in
        Array.iteri
          (fun j -> function
            | Bytecode.I_cmp_jt (_, _, _, tg)
            | I_cmp_jt_int (_, _, _, tg)
            | I_jump tg
              when tg <= j ->
                back_edges := (j, tg) :: !back_edges
            | _ -> ())
          p.bp_code;
        match !back_edges with
        | [ (j, tg) ] ->
            let w = p.bp_woff.(tg) in
            Alcotest.(check bool)
              "the loop starts a loop.cc/loop.cci superinstruction" true
              (p.bp_ops.(w) = 59 || p.bp_ops.(w) = 60);
            Alcotest.(check int) "the whole loop packs into its 8 words" 8
              (p.bp_woff.(j + 1) - w);
            Alcotest.(check int) "its branch jumps to itself" w
              p.bp_ops.(w + 7)
        | l -> Alcotest.failf "expected one back edge, got %d" (List.length l));
  ]

let suite =
  disasm_tests @ edge_tests @ shape_tests @ error_order_tests @ sanitizer_tests
  @ combo_tests @ registry_tests @ fusion_tests
