(** Closure-compiling interpreter for MiniCU device code.

    Each function is compiled once to a tree of OCaml closures over a
    per-thread execution context; simulated threads then run the closures.
    Compilation resolves every variable reference to a frame slot (no
    hashtable lookups at run time) and attaches cost charging to each
    statement so the simulator's cost model is applied as code executes.

    Threads suspend at barriers and warp collectives by performing effects
    ({!E_sync}, {!E_warp}); the block executor in {!Exec} handles them. *)

open Minicu
open Minicu.Ast

(* ------------------------------------------------------------------ *)
(* Runtime context                                                     *)
(* ------------------------------------------------------------------ *)

type warp_op = W_scan_excl | W_sum | W_max | W_bcast of int | W_sync

type warp_req = { wop : warp_op; warg : Value.t }

type _ Effect.t += E_sync : unit Effect.t
type _ Effect.t += E_warp : warp_req -> Value.t Effect.t

type launch_req = {
  lr_kernel : string;
  lr_grid : int * int * int;
  lr_block : int * int * int;
  lr_args : Value.t list;
  lr_issue_cost : float;
      (** The launching thread's accumulated cost when the launch was issued;
          the scheduler turns this into an issue-time offset. *)
  lr_from_host : bool;
}

type bctx = {
  mem : Memory.t;
  cfg : Config.t;
  metrics : Metrics.t;
  bidx : int * int * int;
  bdim : int * int * int;
  gdim : int * int * int;
  shared : (int, Value.ptr) Hashtbl.t;
      (** Shared-memory buffers, keyed by declaration id (allocated by the
          first thread to reach the declaration; uniform across the block). *)
  mutable launches : launch_req list;  (** Launches issued by this block. *)
  is_host_ctx : bool;  (** True when running a host followup. *)
  racecheck : Racecheck.t option;
      (** Per-block dynamic race detector; [Some] only when [Config.check]
          is set and this is a device block. *)
}

type tctx = {
  mutable frame : Value.t array;
  costs : float array;  (** Per-tag accumulated cycles; see {!Metrics}. *)
  mutable total : float;
  mutable default_idx : int;  (** Resolution of [Tag_none] for this grid. *)
  tidx : int * int * int;
  blk : bctx;
}

let charge_tag (t : tctx) idx (c : float) =
  let idx = if idx = Metrics.tag_default then t.default_idx else idx in
  t.costs.(idx) <- t.costs.(idx) +. c;
  t.total <- t.total +. c

(* Sanitizer hooks. These are only reachable from closures compiled under
   [Config.check]; unchecked runs never execute them. *)

let check_access (t : tctx) ~kind ~loc (ptr : Value.ptr) =
  match t.blk.racecheck with
  | None -> ()
  | Some rc ->
      let x, y, z = t.tidx in
      let bx, by, _ = t.blk.bdim in
      let tid = x + (y * bx) + (z * bx * by) in
      Racecheck.record rc ~tid ~kind ~loc ptr

let access_failed (t : tctx) ~loc msg =
  t.blk.metrics.oob_detected <- t.blk.metrics.oob_detected + 1;
  raise (Value.Runtime_error (Fmt.str "%a: %s" Loc.pp loc msg))

let checked_load (t : tctx) ~loc ptr =
  try Memory.load t.blk.mem ptr
  with Value.Runtime_error msg -> access_failed t ~loc msg

let checked_store (t : tctx) ~loc ptr v =
  try Memory.store t.blk.mem ptr v
  with Value.Runtime_error msg -> access_failed t ~loc msg

(* Control-flow exceptions of the interpreted language. *)
exception Ret of Value.t
exception Brk
exception Cont

type cexpr = tctx -> Value.t
type cstmt = tctx -> unit

type cfunc = {
  cf_name : string;
  cf_kind : func_kind;
  mutable cf_nslots : int;
  cf_nparams : int;
  cf_contains_launch : bool;
  cf_is_serial : bool;
      (** Heuristic: generated thresholding serial versions (names ending in
          ["_serial"]); calls are counted in {!Metrics}. *)
  cf_safety : Blocksafe.summary;
      (** Cross-block independence proof for parallel dispatch. *)
  cf_static_work : float;  (** Per-thread static work estimate. *)
  mutable cf_body : cstmt;
  mutable cf_followup : cstmt option;
      (** Host-followup code (grid-granularity aggregation); runs with the
          kernel's parameter frame after the grid drains. *)
}

type cprog = {
  cp_funcs : (string, cfunc) Hashtbl.t;
  cp_ast : program;
}

let find_func_exn cp name =
  match Hashtbl.find_opt cp.cp_funcs name with
  | Some f -> f
  | None -> Value.error "no such function %S" name

(* ------------------------------------------------------------------ *)
(* Static cost estimation                                              *)
(* ------------------------------------------------------------------ *)

(* Cycles to evaluate [e] once, assuming full evaluation. Short-circuit and
   ternary operators are charged for both sides; this keeps charging O(1)
   per statement at run time. *)
let rec expr_cost (cfg : Config.t) (e : expr) : int =
  let ec = expr_cost cfg in
  match e with
  | Int_lit _ | Float_lit _ | Bool_lit _ | Var _ -> 0
  | Unop (_, a) -> cfg.arith_cost + ec a
  | Binop (_, a, b) -> cfg.arith_cost + ec a + ec b
  | Ternary (c, a, b) -> cfg.branch_cost + ec c + max (ec a) (ec b)
  | Index (p, i) -> cfg.mem_cost + ec p + ec i
  | Member (a, _) -> ec a
  | Cast (_, a) -> cfg.arith_cost + ec a
  | Dim3_ctor (x, y, z) -> cfg.arith_cost + ec x + ec y + ec z
  | Addr_of lv -> addr_cost cfg lv
  | Call (f, args) -> (
      let argc = List.fold_left (fun acc a -> acc + ec a) 0 args in
      match Builtins.find f with
      | Some b ->
          let c =
            match b.b_cost with
            | Builtins.Arith -> cfg.arith_cost
            | Builtins.Mem -> cfg.mem_cost
            | Builtins.Atomic -> cfg.atomic_cost
            | Builtins.Warp_collective -> cfg.warp_collective_cost
            | Builtins.Alloc -> cfg.alloc_cost
          in
          (* atomics evaluate their address operand without the extra load *)
          c + argc
      | None -> cfg.call_cost + argc)

(* Address computation for an lvalue (no load). *)
and addr_cost cfg = function
  | Var _ -> cfg.arith_cost
  | Index (p, i) -> cfg.arith_cost + expr_cost cfg p + expr_cost cfg i
  | Member (a, _) -> cfg.arith_cost + expr_cost cfg a
  | e -> expr_cost cfg e

(* ------------------------------------------------------------------ *)
(* Compile-time environment                                            *)
(* ------------------------------------------------------------------ *)

type cenv = {
  prog : program;
  funcs : (string, cfunc) Hashtbl.t;
  mutable slots : (string * int) list;  (** Innermost binding first. *)
  mutable next_slot : int;
  mutable shared_ids : int;  (** Fresh ids for shared-memory declarations. *)
  cfg : Config.t;
  fname : string;
  mutable cur_loc : Loc.t;
      (** Source location of the statement being compiled; captured by the
          sanitizer closures so dynamic reports carry file:line. *)
}

let bind env x =
  let slot = env.next_slot in
  env.next_slot <- env.next_slot + 1;
  env.slots <- (x, slot) :: env.slots;
  slot

let slot_of env x loc_hint =
  match List.assoc_opt x env.slots with
  | Some s -> s
  | None -> Value.error "in %s: unbound variable %S (%s)" env.fname x loc_hint

(* Save/restore lexical scope around nested blocks. *)
let scoped env f =
  let saved = env.slots in
  let r = f () in
  env.slots <- saved;
  r

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

let dim3_member (x, y, z) = function
  | "x" -> x
  | "y" -> y
  | "z" -> z
  | f -> Value.error "dim3 has no member %S" f

let eval_binop op (a : Value.t) (b : Value.t) : Value.t =
  match op with
  | Add -> (
      match (a, b) with
      | Value.Ptr p, v -> Value.Ptr { p with off = p.off + Value.as_int v }
      | v, Value.Ptr p -> Value.Ptr { p with off = p.off + Value.as_int v }
      | _ ->
          if Value.is_float a || Value.is_float b then
            Value.Float (Value.as_float a +. Value.as_float b)
          else Value.Int (Value.as_int a + Value.as_int b))
  | Sub -> (
      match (a, b) with
      | Value.Ptr p, Value.Ptr q ->
          if p.buf <> q.buf then
            Value.error "subtracting pointers into different buffers";
          Value.Int (p.off - q.off)
      | Value.Ptr p, v -> Value.Ptr { p with off = p.off - Value.as_int v }
      | _ ->
          if Value.is_float a || Value.is_float b then
            Value.Float (Value.as_float a -. Value.as_float b)
          else Value.Int (Value.as_int a - Value.as_int b))
  | Mul ->
      if Value.is_float a || Value.is_float b then
        Value.Float (Value.as_float a *. Value.as_float b)
      else Value.Int (Value.as_int a * Value.as_int b)
  | Div ->
      if Value.is_float a || Value.is_float b then
        Value.Float (Value.as_float a /. Value.as_float b)
      else
        let d = Value.as_int b in
        if d = 0 then Value.error "integer division by zero";
        Value.Int (Value.as_int a / d)
  | Mod ->
      let d = Value.as_int b in
      if d = 0 then Value.error "integer modulo by zero";
      Value.Int (Value.as_int a mod d)
  | Lt | Le | Gt | Ge -> (
      let c =
        if Value.is_float a || Value.is_float b then
          compare (Value.as_float a) (Value.as_float b)
        else compare (Value.as_int a) (Value.as_int b)
      in
      Value.Bool
        (match op with
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | _ -> c >= 0))
  | Eq | Ne -> (
      let eq =
        match (a, b) with
        | Value.Ptr p, Value.Ptr q -> p = q
        | _ ->
            if Value.is_float a || Value.is_float b then
              Value.as_float a = Value.as_float b
            else Value.as_int a = Value.as_int b
      in
      Value.Bool (match op with Eq -> eq | _ -> not eq))
  | LAnd -> Value.Bool (Value.as_bool a && Value.as_bool b)
  | LOr -> Value.Bool (Value.as_bool a || Value.as_bool b)
  | BAnd -> Value.Int (Value.as_int a land Value.as_int b)
  | BOr -> Value.Int (Value.as_int a lor Value.as_int b)
  | BXor -> Value.Int (Value.as_int a lxor Value.as_int b)
  | Shl -> Value.Int (Value.as_int a lsl Value.as_int b)
  | Shr -> Value.Int (Value.as_int a asr Value.as_int b)

let rec compile_expr (env : cenv) (e : expr) : cexpr =
  match e with
  | Int_lit n ->
      let v = Value.Int n in
      fun _ -> v
  | Float_lit f ->
      let v = Value.Float f in
      fun _ -> v
  | Bool_lit b ->
      let v = Value.Bool b in
      fun _ -> v
  | Var "threadIdx" ->
      fun t ->
        let x, y, z = t.tidx in
        Value.Dim3 (x, y, z)
  | Var "blockIdx" ->
      fun t ->
        let x, y, z = t.blk.bidx in
        Value.Dim3 (x, y, z)
  | Var "blockDim" ->
      fun t ->
        let x, y, z = t.blk.bdim in
        Value.Dim3 (x, y, z)
  | Var "gridDim" ->
      fun t ->
        let x, y, z = t.blk.gdim in
        Value.Dim3 (x, y, z)
  | Var x ->
      let s = slot_of env x "use" in
      fun t -> t.frame.(s)
  | Member (Var "threadIdx", f) ->
      fun t -> Value.Int (dim3_member t.tidx f)
  | Member (Var "blockIdx", f) -> fun t -> Value.Int (dim3_member t.blk.bidx f)
  | Member (Var "blockDim", f) -> fun t -> Value.Int (dim3_member t.blk.bdim f)
  | Member (Var "gridDim", f) -> fun t -> Value.Int (dim3_member t.blk.gdim f)
  | Member (a, f) ->
      let ca = compile_expr env a in
      fun t ->
        (match ca t with
        | Value.Dim3 d -> Value.Int (dim3_member d f)
        (* C-style int -> dim3 conversion: n means dim3(n, 1, 1) *)
        | Value.Int n -> Value.Int (dim3_member (n, 1, 1) f)
        | v -> Value.error "member access %S on non-dim3 %a" f Value.pp v)
  | Unop (Neg, a) ->
      let ca = compile_expr env a in
      fun t -> (
        match ca t with
        | Value.Float f -> Value.Float (-.f)
        | v -> Value.Int (-Value.as_int v))
  | Unop (Not, a) ->
      let ca = compile_expr env a in
      fun t -> Value.Bool (not (Value.as_bool (ca t)))
  | Binop (LAnd, a, b) ->
      let ca = compile_expr env a and cb = compile_expr env b in
      fun t -> Value.Bool (Value.as_bool (ca t) && Value.as_bool (cb t))
  | Binop (LOr, a, b) ->
      let ca = compile_expr env a and cb = compile_expr env b in
      fun t -> Value.Bool (Value.as_bool (ca t) || Value.as_bool (cb t))
  | Binop (op, a, b) ->
      let ca = compile_expr env a and cb = compile_expr env b in
      fun t -> eval_binop op (ca t) (cb t)
  | Ternary (c, a, b) ->
      let cc = compile_expr env c
      and ca = compile_expr env a
      and cb = compile_expr env b in
      fun t -> if Value.as_bool (cc t) then ca t else cb t
  | Index (p, i) ->
      let cp = compile_expr env p and ci = compile_expr env i in
      if not env.cfg.check then
        fun t ->
          let ptr = Value.as_ptr (cp t) in
          let i = Value.as_int (ci t) in
          Memory.load t.blk.mem { ptr with off = ptr.off + i }
      else
        let loc = env.cur_loc in
        fun t ->
          let ptr = Value.as_ptr (cp t) in
          let i = Value.as_int (ci t) in
          let ptr = { ptr with Value.off = ptr.off + i } in
          check_access t ~kind:Racecheck.Read ~loc ptr;
          checked_load t ~loc ptr
  | Cast (TInt, a) ->
      let ca = compile_expr env a in
      fun t -> Value.Int (Value.as_int (ca t))
  | Cast (TFloat, a) ->
      let ca = compile_expr env a in
      fun t -> Value.Float (Value.as_float (ca t))
  | Cast (TBool, a) ->
      let ca = compile_expr env a in
      fun t -> Value.Bool (Value.as_bool (ca t))
  | Cast (_, a) -> compile_expr env a
  | Dim3_ctor (x, y, z) ->
      let cx = compile_expr env x
      and cy = compile_expr env y
      and cz = compile_expr env z in
      fun t ->
        Value.Dim3 (Value.as_int (cx t), Value.as_int (cy t), Value.as_int (cz t))
  | Addr_of lv -> compile_addr env lv
  | Call (f, args) -> compile_call env f args

(* Compile an lvalue to its address (pointers only; [&x] of a local is not
   supported because frames are not addressable memory). *)
and compile_addr env (lv : expr) : cexpr =
  match lv with
  | Index (p, i) ->
      let cp = compile_expr env p and ci = compile_expr env i in
      fun t ->
        let ptr = Value.as_ptr (cp t) in
        let i = Value.as_int (ci t) in
        Value.Ptr { ptr with off = ptr.off + i }
  | Var x ->
      (* Pointer-typed variable: &p[0] idiom is Index; &scalar unsupported. *)
      Value.error "in %s: cannot take the address of local variable %S \
                   (MiniCU atomics require a pointer element, e.g. &a[i])"
        env.fname x
  | _ -> Value.error "in %s: '&' requires an indexable lvalue" env.fname

and compile_call env f args : cexpr =
  let cargs = Array.of_list (List.map (compile_expr env) args) in
  let arg i t = cargs.(i) t in
  match f with
  | "min" ->
      fun t ->
        let a = arg 0 t and b = arg 1 t in
        if Value.is_float a || Value.is_float b then
          Value.Float (Float.min (Value.as_float a) (Value.as_float b))
        else Value.Int (min (Value.as_int a) (Value.as_int b))
  | "max" ->
      fun t ->
        let a = arg 0 t and b = arg 1 t in
        if Value.is_float a || Value.is_float b then
          Value.Float (Float.max (Value.as_float a) (Value.as_float b))
        else Value.Int (max (Value.as_int a) (Value.as_int b))
  | "abs" ->
      fun t -> (
        match arg 0 t with
        | Value.Float x -> Value.Float (Float.abs x)
        | v -> Value.Int (abs (Value.as_int v)))
  | "fabs" -> fun t -> Value.Float (Float.abs (Value.as_float (arg 0 t)))
  | "ceil" -> fun t -> Value.Float (Float.ceil (Value.as_float (arg 0 t)))
  | "floor" -> fun t -> Value.Float (Float.floor (Value.as_float (arg 0 t)))
  | "sqrt" -> fun t -> Value.Float (Float.sqrt (Value.as_float (arg 0 t)))
  | "exp" -> fun t -> Value.Float (Float.exp (Value.as_float (arg 0 t)))
  | "log" -> fun t -> Value.Float (Float.log (Value.as_float (arg 0 t)))
  | "pow" ->
      fun t ->
        Value.Float (Float.pow (Value.as_float (arg 0 t)) (Value.as_float (arg 1 t)))
  | "atomicAdd" | "atomicSub" | "atomicMin" | "atomicMax" | "atomicExch" ->
      let combine old v =
        match f with
        | "atomicAdd" -> eval_binop Add old v
        | "atomicSub" -> eval_binop Sub old v
        | "atomicMin" ->
            if Value.is_float old || Value.is_float v then
              Value.Float (Float.min (Value.as_float old) (Value.as_float v))
            else Value.Int (min (Value.as_int old) (Value.as_int v))
        | "atomicMax" ->
            if Value.is_float old || Value.is_float v then
              Value.Float (Float.max (Value.as_float old) (Value.as_float v))
            else Value.Int (max (Value.as_int old) (Value.as_int v))
        | _ -> v
      in
      if not env.cfg.check then
        fun t ->
          let p = Value.as_ptr (arg 0 t) in
          let v = arg 1 t in
          Memory.update t.blk.mem p.buf p.off
            (fun old combine v -> combine old v)
            combine v
      else
        let loc = env.cur_loc in
        fun t ->
          let p = Value.as_ptr (arg 0 t) in
          let v = arg 1 t in
          check_access t ~kind:Racecheck.Atomic ~loc p;
          let old = checked_load t ~loc p in
          checked_store t ~loc p (combine old v);
          old
  | "atomicCAS" ->
      if not env.cfg.check then
        fun t ->
          let p = Value.as_ptr (arg 0 t) in
          let cmp = arg 1 t and v = arg 2 t in
          Memory.update t.blk.mem p.buf p.off
            (fun old cmp v ->
              if Value.as_int old = Value.as_int cmp then v else old)
            cmp v
      else
        let loc = env.cur_loc in
        fun t ->
          let p = Value.as_ptr (arg 0 t) in
          let cmp = arg 1 t and v = arg 2 t in
          check_access t ~kind:Racecheck.Atomic ~loc p;
          let old = checked_load t ~loc p in
          if Value.as_int old = Value.as_int cmp then checked_store t ~loc p v;
          old
  | "malloc" ->
      fun t ->
        let n = Value.as_int (arg 0 t) in
        Value.Ptr (Memory.alloc t.blk.mem n ~init:(Value.Int 0))
  | "warp_scan_excl" ->
      fun t -> Effect.perform (E_warp { wop = W_scan_excl; warg = arg 0 t })
  | "warp_sum" -> fun t -> Effect.perform (E_warp { wop = W_sum; warg = arg 0 t })
  | "warp_max" -> fun t -> Effect.perform (E_warp { wop = W_max; warg = arg 0 t })
  | "warp_bcast" ->
      fun t ->
        let lane = Value.as_int (arg 1 t) in
        Effect.perform (E_warp { wop = W_bcast lane; warg = arg 0 t })
  | _ -> (
      (* device function call *)
      match Hashtbl.find_opt env.funcs f with
      | Some cf ->
          if cf.cf_kind <> Device then
            Value.error "cannot call kernel %S; kernels must be launched" f;
          if Array.length cargs <> cf.cf_nparams then
            Value.error "call to %S: wrong arity" f;
          fun t ->
            let saved = t.frame in
            let frame = Array.make cf.cf_nslots Value.Unit in
            Array.iteri (fun i ca -> frame.(i) <- ca t) cargs;
            t.frame <- frame;
            if cf.cf_is_serial then
              t.blk.metrics.serialized_launches <-
                t.blk.metrics.serialized_launches + 1;
            let result =
              match cf.cf_body t with
              | () -> Value.Unit
              | exception Ret v -> v
            in
            t.frame <- saved;
            result
      | None -> Value.error "in %s: unknown function %S" env.fname f)

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

let compile_store env (lv : expr) : cexpr -> cstmt =
  match lv with
  | Var x ->
      let s = slot_of env x "assignment" in
      fun cv t -> t.frame.(s) <- cv t
  | Index (p, i) ->
      let cp = compile_expr env p and ci = compile_expr env i in
      if not env.cfg.check then
        fun cv t ->
          let ptr = Value.as_ptr (cp t) in
          let i = Value.as_int (ci t) in
          Memory.store t.blk.mem { ptr with off = ptr.off + i } (cv t)
      else
        let loc = env.cur_loc in
        fun cv t ->
          let ptr = Value.as_ptr (cp t) in
          let i = Value.as_int (ci t) in
          let ptr = { ptr with Value.off = ptr.off + i } in
          let v = cv t in
          check_access t ~kind:Racecheck.Write ~loc ptr;
          checked_store t ~loc ptr v
  | Member (Var x, f) when not (is_reserved_var x) ->
      let s = slot_of env x "member assignment" in
      fun cv t ->
        let x', y', z' =
          match t.frame.(s) with
          | Value.Dim3 d -> d
          | Value.Int n -> (n, 1, 1)  (* int -> dim3 conversion *)
          | Value.Unit -> (1, 1, 1)  (* uninitialized dim3 defaults like CUDA *)
          | v -> Value.error "member assignment on non-dim3 %a" Value.pp v
        in
        let n = Value.as_int (cv t) in
        let d =
          match f with
          | "x" -> (n, y', z')
          | "y" -> (x', n, z')
          | "z" -> (x', y', n)
          | _ -> Value.error "dim3 has no member %S" f
        in
        t.frame.(s) <- Value.Dim3 d
  | Member (Index (p, i), f) ->
      let cp = compile_expr env p and ci = compile_expr env i in
      let sloc = env.cur_loc and check = env.cfg.check in
      fun cv t ->
        let ptr = Value.as_ptr (cp t) in
        let idx = Value.as_int (ci t) in
        let loc = { ptr with Value.off = ptr.Value.off + idx } in
        if check then check_access t ~kind:Racecheck.Write ~loc:sloc loc;
        let load m p =
          if check then checked_load t ~loc:sloc p else Memory.load m p
        in
        let x', y', z' =
          match load t.blk.mem loc with
          | Value.Dim3 d -> d
          | Value.Unit | Value.Int 0 -> (1, 1, 1)
          | v -> Value.error "member assignment on non-dim3 %a" Value.pp v
        in
        let n = Value.as_int (cv t) in
        let d =
          match f with
          | "x" -> (n, y', z')
          | "y" -> (x', n, z')
          | "z" -> (x', y', n)
          | _ -> Value.error "dim3 has no member %S" f
        in
        if check then checked_store t ~loc:sloc loc (Value.Dim3 d)
        else Memory.store t.blk.mem loc (Value.Dim3 d)
  | _ -> Value.error "in %s: invalid assignment target" env.fname

let default_value : ty -> Value.t = function
  | TInt -> Value.Int 0
  | TFloat -> Value.Float 0.0
  | TBool -> Value.Bool false
  | TDim3 -> Value.Dim3 (1, 1, 1)
  | TPtr _ | TVoid -> Value.Unit

let rec compile_stmts env (ss : stmt list) : cstmt =
  let compiled = Array.of_list (List.map (compile_stmt env) ss) in
  match Array.length compiled with
  | 0 -> fun _ -> ()
  | 1 -> compiled.(0)
  | 2 ->
      let a = compiled.(0) and b = compiled.(1) in
      fun t ->
        a t;
        b t
  | _ -> fun t -> Array.iter (fun c -> c t) compiled

and compile_stmt env (s : stmt) : cstmt =
  env.cur_loc <- s.sloc;
  let cfg = env.cfg in
  let tag = Metrics.index_of_tag s.stag in
  let charged cost k =
    if cost = 0 then k
    else
      let fc = float_of_int cost in
      fun t ->
        charge_tag t tag fc;
        k t
  in
  match s.sdesc with
  | Decl (ty, x, init) ->
      let cinit = Option.map (compile_expr env) init in
      let cost =
        match init with Some e -> expr_cost cfg e + cfg.arith_cost | None -> 0
      in
      let s = bind env x in
      let dv = default_value ty in
      charged cost (fun t ->
          t.frame.(s) <- (match cinit with Some c -> c t | None -> dv))
  | Decl_shared (ty, x, size) ->
      let csize = compile_expr env size in
      let id = env.shared_ids in
      env.shared_ids <- env.shared_ids + 1;
      let s = bind env x in
      let dv = default_value ty in
      charged cfg.arith_cost (fun t ->
          let ptr =
            match Hashtbl.find_opt t.blk.shared id with
            | Some p -> p
            | None ->
                let n = Value.as_int (csize t) in
                let p = Memory.alloc t.blk.mem n ~init:dv in
                Hashtbl.add t.blk.shared id p;
                p
          in
          t.frame.(s) <- Value.Ptr ptr)
  | Assign (lv, e) ->
      let ce = compile_expr env e in
      let store = compile_store env lv in
      let cost =
        expr_cost cfg e
        + (match lv with
          | Index _ -> cfg.mem_cost + cfg.arith_cost
          | Member (Index _, _) -> (2 * cfg.mem_cost) + cfg.arith_cost
          | _ -> cfg.arith_cost)
      in
      charged cost (store ce)
  | If (c, a, b) ->
      let cc = compile_expr env c in
      let ca = scoped env (fun () -> compile_stmts env a) in
      let cb = scoped env (fun () -> compile_stmts env b) in
      let cost = expr_cost cfg c + cfg.branch_cost in
      charged cost (fun t -> if Value.as_bool (cc t) then ca t else cb t)
  | While (c, body) ->
      let cc = compile_expr env c in
      let cbody = scoped env (fun () -> compile_stmts env body) in
      let iter_cost = float_of_int (expr_cost cfg c + cfg.branch_cost) in
      fun t ->
        (try
           while
             charge_tag t tag iter_cost;
             Value.as_bool (cc t)
           do
             try cbody t with Cont -> ()
           done
         with Brk -> ())
  | For (init, cond, step, body) ->
      scoped env (fun () ->
          let cinit = Option.map (compile_stmt env) init in
          let ccond = Option.map (compile_expr env) cond in
          let cstep = Option.map (compile_stmt env) step in
          let cbody = compile_stmts env body in
          let iter_cost =
            float_of_int
              ((match cond with Some c -> expr_cost cfg c | None -> 0)
              + cfg.branch_cost)
          in
          fun t ->
            (match cinit with Some c -> c t | None -> ());
            try
              let continue_ = ref true in
              while !continue_ do
                charge_tag t tag iter_cost;
                let go =
                  match ccond with
                  | Some c -> Value.as_bool (c t)
                  | None -> true
                in
                if go then begin
                  (try cbody t with Cont -> ());
                  match cstep with Some c -> c t | None -> ()
                end
                else continue_ := false
              done
            with Brk -> ())
  | Return None -> fun _ -> raise_notrace (Ret Value.Unit)
  | Return (Some e) ->
      let ce = compile_expr env e in
      let cost = expr_cost cfg e in
      charged cost (fun t -> raise_notrace (Ret (ce t)))
  | Expr_stmt e ->
      let ce = compile_expr env e in
      charged (expr_cost cfg e) (fun t -> ignore (ce t))
  | Launch l ->
      let cgrid = compile_expr env l.l_grid in
      let cblock = compile_expr env l.l_block in
      let cargs = Array.of_list (List.map (compile_expr env) l.l_args) in
      let cost =
        cfg.launch_issue_cost + expr_cost cfg l.l_grid
        + expr_cost cfg l.l_block
        + List.fold_left (fun acc a -> acc + expr_cost cfg a) 0 l.l_args
      in
      let kernel = l.l_kernel in
      charged cost (fun t ->
          let grid = Value.as_dim3 (cgrid t) in
          let block = Value.as_dim3 (cblock t) in
          let gx, gy, gz = grid in
          if gx <= 0 || gy <= 0 || gz <= 0 then
            Value.error "launch of %S with empty grid (%d,%d,%d)" kernel gx gy
              gz;
          if Value.dim3_total block > cfg.max_threads_per_block then
            Value.error "launch of %S with %d threads per block (max %d)"
              kernel (Value.dim3_total block) cfg.max_threads_per_block;
          let args = Array.to_list (Array.map (fun c -> c t) cargs) in
          t.blk.launches <-
            {
              lr_kernel = kernel;
              lr_grid = grid;
              lr_block = block;
              lr_args = args;
              lr_issue_cost = t.total;
              lr_from_host = t.blk.is_host_ctx;
            }
            :: t.blk.launches)
  | Sync ->
      charged cfg.sync_cost (fun t ->
          if not t.blk.is_host_ctx then Effect.perform E_sync)
  | Syncwarp ->
      charged cfg.sync_cost (fun t ->
          if not t.blk.is_host_ctx then
            ignore (Effect.perform (E_warp { wop = W_sync; warg = Value.Unit })))
  | Threadfence -> charged cfg.fence_cost (fun _ -> ())
  | Break -> fun _ -> raise_notrace Brk
  | Continue -> fun _ -> raise_notrace Cont

(* ------------------------------------------------------------------ *)
(* Program compilation                                                 *)
(* ------------------------------------------------------------------ *)

let has_serial_suffix name =
  let suffix = "_serial" in
  let nl = String.length name and sl = String.length suffix in
  nl >= sl
  &&
  (* "..._serial" or "..._serial_<n>" (fresh-name disambiguation) *)
  (String.sub name (nl - sl) sl = suffix
  ||
  match String.rindex_opt name '_' with
  | Some i when i >= sl ->
      String.sub name (i - sl) sl = suffix
      && int_of_string_opt (String.sub name (i + 1) (nl - i - 1)) <> None
  | _ -> false)

(** [compile cfg prog] compiles a typechecked program. Functions may refer
    to each other in any order. *)
let compile (cfg : Config.t) (prog : program) : cprog =
  Typecheck.check prog;
  let funcs = Hashtbl.create 16 in
  (* Phase 1: create records so calls/launches can resolve. *)
  List.iter
    (fun (f : func) ->
      Hashtbl.add funcs f.f_name
        {
          cf_name = f.f_name;
          cf_kind = f.f_kind;
          cf_nslots = 0;
          cf_nparams = List.length f.f_params;
          cf_contains_launch = Ast_util.contains_launch f.f_body;
          cf_is_serial = f.f_kind = Device && has_serial_suffix f.f_name;
          cf_safety = Blocksafe.analyze prog f;
          cf_static_work = Blocksafe.static_work cfg f;
          cf_body = (fun _ -> ());
          cf_followup = None;
        })
    prog;
  (* Phase 2: compile bodies. *)
  let compiled =
    List.map
      (fun (f : func) ->
        let env =
          {
            prog;
            funcs;
            slots = [];
            next_slot = 0;
            shared_ids = 0;
            cfg;
            fname = f.f_name;
            cur_loc = Loc.dummy;
          }
        in
        List.iter (fun p -> ignore (bind env p.p_name)) f.f_params;
        let body = compile_stmts env f.f_body in
        let followup =
          Option.map (fun ss -> compile_stmts env ss) f.f_host_followup
        in
        (f.f_name, body, followup, env.next_slot))
      prog
  in
  List.iter
    (fun (name, body, followup, nslots) ->
      (* Mutate in place: call sites compiled in phase 2 captured these
         records, so they must see the final body and slot count. *)
      let cf = Hashtbl.find funcs name in
      cf.cf_body <- body;
      cf.cf_followup <- followup;
      cf.cf_nslots <- nslots)
    compiled;
  { cp_funcs = funcs; cp_ast = prog }
