(** The MiniCU → native-OCaml transpiler.

    Emitted code is dynamically typed over {!Nrt.v} and replicates the
    simulator ({!Gpusim.Bytecode}/{!Gpusim.Vm}) construct by construct:
    the same coercions, the same operator semantics (pointer arithmetic, float-if-either promotion, division-by-zero errors), the
    same evaluation order (operands are let-bound in source order — OCaml
    application alone would evaluate right-to-left), the same control-flow
    exceptions ([Nrt.Ret]/[Brk]/[Cont], with [continue] still running a
    for-loop's step), and the same shared-memory declaration-id keying.
    Blocks map to pool tasks, [__syncthreads] to the runtime's fiber
    barrier, atomics to the runtime's locked read-modify-writes, child
    launches to deferred task spawns (see {!Nrt}).

    Constructs the backend cannot honor raise {!Unsupported} with the
    statement's source location:
    - [__threadfence] — the backend has no cross-block ordering weaker
      than completion, so multi-block-granularity aggregation output is
      rejected rather than miscompiled;
    - warp collectives and [__syncwarp] — no SIMT lockstep natively;
    - host followups — the backend is device-only (grid-granularity
      aggregation needs the host relaunch trampoline). *)

open Minicu
open Minicu.Ast

exception Unsupported of Loc.t * string

let unsupported loc fmt = Fmt.kstr (fun s -> raise (Unsupported (loc, s))) fmt

type env = {
  prog : program;
  mutable tmp : int;  (** Fresh let-temp counter (per function). *)
  mutable shared_ids : int;
      (** Per-function shared-decl ids, as the simulator's lowering. *)
  mutable cur_loc : Loc.t;
}

let fresh env =
  let n = env.tmp in
  env.tmp <- n + 1;
  Printf.sprintf "_t%d" n

let mangle_var x = "v_" ^ x
let mangle_fn (f : func) =
  (match f.f_kind with Global -> "k_" | Device -> "f_") ^ f.f_name

let float_lit f =
  Printf.sprintf "(Nrt.Float (Int64.float_of_bits 0x%LxL))"
    (Int64.bits_of_float f)

let default_value = function
  | TInt -> "(Nrt.Int 0)"
  | TFloat -> "(Nrt.Float 0.0)"
  | TBool -> "(Nrt.Bool false)"
  | TDim3 -> "(Nrt.Dim3 (1, 1, 1))"
  | TPtr _ | TVoid -> "Nrt.Unit"

let binop_fn = function
  | Add -> "Nrt.add"
  | Sub -> "Nrt.sub"
  | Mul -> "Nrt.mul"
  | Div -> "Nrt.div"
  | Mod -> "Nrt.mod_"
  | Lt -> "Nrt.lt"
  | Le -> "Nrt.le"
  | Gt -> "Nrt.gt"
  | Ge -> "Nrt.ge"
  | Eq -> "Nrt.eq"
  | Ne -> "Nrt.ne"
  | BAnd -> "Nrt.band"
  | BOr -> "Nrt.bor"
  | BXor -> "Nrt.bxor"
  | Shl -> "Nrt.shl"
  | Shr -> "Nrt.shr"
  | LAnd | LOr -> assert false (* short-circuit forms, handled in [expr] *)

let reserved_ctx = function
  | "threadIdx" -> "(Nrt.thread_idx t)"
  | "blockIdx" -> "(Nrt.block_idx t)"
  | "blockDim" -> "(Nrt.block_dim t)"
  | "gridDim" -> "(Nrt.grid_dim t)"
  | _ -> assert false

(* [seq env args k] — let-bind each of [args] in source order (preserving
   the interpreter's left-to-right evaluation), then apply [k] to the
   bound names. *)
let seq env (args : string list) (k : string list -> string) : string =
  let names = List.map (fun _ -> fresh env) args in
  let binds =
    List.map2 (fun n a -> Printf.sprintf "let %s = %s in " n a) names args
  in
  "(" ^ String.concat "" binds ^ k names ^ ")"

let rec expr env (e : Ast.expr) : string =
  match e with
  | Int_lit n -> Printf.sprintf "(Nrt.Int (%d))" n
  | Float_lit f -> float_lit f
  | Bool_lit b -> Printf.sprintf "(Nrt.Bool %b)" b
  | Var x when is_reserved_var x -> reserved_ctx x
  | Var x -> "!" ^ mangle_var x
  | Member (Var x, f) when is_reserved_var x ->
      Printf.sprintf "(Nrt.member %s %S)" (reserved_ctx x) f
  | Member (a, f) -> Printf.sprintf "(Nrt.member %s %S)" (expr env a) f
  | Unop (Neg, a) -> Printf.sprintf "(Nrt.neg %s)" (expr env a)
  | Unop (Not, a) -> Printf.sprintf "(Nrt.not_ %s)" (expr env a)
  | Binop (LAnd, a, b) ->
      Printf.sprintf "(Nrt.Bool (Nrt.as_bool %s && Nrt.as_bool %s))"
        (expr env a) (expr env b)
  | Binop (LOr, a, b) ->
      Printf.sprintf "(Nrt.Bool (Nrt.as_bool %s || Nrt.as_bool %s))"
        (expr env a) (expr env b)
  | Binop (op, a, b) ->
      seq env [ expr env a; expr env b ] (function
        | [ ta; tb ] -> Printf.sprintf "%s %s %s" (binop_fn op) ta tb
        | _ -> assert false)
  | Ternary (c, a, b) ->
      Printf.sprintf "(if Nrt.as_bool %s then %s else %s)" (expr env c)
        (expr env a) (expr env b)
  | Index (p, i) ->
      seq env [ expr env p; expr env i ] (function
        | [ tp; ti ] -> Printf.sprintf "Nrt.load t %s %s" tp ti
        | _ -> assert false)
  | Cast (TInt, a) -> Printf.sprintf "(Nrt.Int (Nrt.as_int %s))" (expr env a)
  | Cast (TFloat, a) ->
      Printf.sprintf "(Nrt.Float (Nrt.as_float %s))" (expr env a)
  | Cast (TBool, a) ->
      Printf.sprintf "(Nrt.Bool (Nrt.as_bool %s))" (expr env a)
  | Cast (_, a) -> expr env a
  | Dim3_ctor (x, y, z) ->
      seq env [ expr env x; expr env y; expr env z ] (function
        | [ tx; ty; tz ] ->
            Printf.sprintf
              "Nrt.Dim3 (Nrt.as_int %s, Nrt.as_int %s, Nrt.as_int %s)" tx ty tz
        | _ -> assert false)
  | Addr_of (Index (p, i)) ->
      seq env [ expr env p; expr env i ] (function
        | [ tp; ti ] -> Printf.sprintf "Nrt.addr %s %s" tp ti
        | _ -> assert false)
  | Addr_of (Var x) ->
      unsupported env.cur_loc
        "cannot take the address of local variable %S (MiniCU atomics \
         require a pointer element, e.g. &a[i])"
        x
  | Addr_of _ -> unsupported env.cur_loc "'&' requires an indexable lvalue"
  | Call (f, args) -> call env f args

and call env f args : string =
  let arg n =
    match List.nth_opt args n with
    | Some a -> expr env a
    | None -> unsupported env.cur_loc "call to %S: wrong arity" f
  in
  let unary rt = Printf.sprintf "(%s %s)" rt (arg 0) in
  let binary rt =
    seq env [ arg 0; arg 1 ] (function
      | [ ta; tb ] -> Printf.sprintf "%s %s %s" rt ta tb
      | _ -> assert false)
  in
  let atomic rt =
    seq env [ arg 0; arg 1 ] (function
      | [ tp; tv ] -> Printf.sprintf "%s t %s %s" rt tp tv
      | _ -> assert false)
  in
  match f with
  | "min" -> binary "Nrt.min_"
  | "max" -> binary "Nrt.max_"
  | "abs" -> unary "Nrt.abs_"
  | "fabs" -> unary "Nrt.fabs"
  | "ceil" -> unary "Nrt.ceil_"
  | "floor" -> unary "Nrt.floor_"
  | "sqrt" -> unary "Nrt.sqrt_"
  | "exp" -> unary "Nrt.exp_"
  | "log" -> unary "Nrt.log_"
  | "pow" -> binary "Nrt.pow_"
  | "atomicAdd" -> atomic "Nrt.atomic_add"
  | "atomicSub" -> atomic "Nrt.atomic_sub"
  | "atomicMin" -> atomic "Nrt.atomic_min"
  | "atomicMax" -> atomic "Nrt.atomic_max"
  | "atomicExch" -> atomic "Nrt.atomic_exch"
  | "atomicCAS" ->
      seq env [ arg 0; arg 1; arg 2 ] (function
        | [ tp; tc; tv ] -> Printf.sprintf "Nrt.atomic_cas t %s %s %s" tp tc tv
        | _ -> assert false)
  | "malloc" -> Printf.sprintf "(Nrt.malloc t %s)" (arg 0)
  | "warp_scan_excl" | "warp_sum" | "warp_max" | "warp_bcast" ->
      unsupported env.cur_loc
        "warp collective %s() is unsupported by the native backend (no SIMT \
         lockstep); use block or no aggregation"
        f
  | _ -> (
      match find_func env.prog f with
      | Some df when df.f_kind = Device ->
          if List.length args <> List.length df.f_params then
            unsupported env.cur_loc "call to %S: wrong arity" f;
          seq env (List.map (expr env) args) (fun names ->
              String.concat " " (mangle_fn df :: "t" :: names))
      | Some _ ->
          unsupported env.cur_loc "cannot call kernel %S; kernels must be \
                                   launched" f
      | None -> unsupported env.cur_loc "unknown function %S" f)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let pad n = String.make (2 * n) ' '

(* [stmts env ind ss] — a unit-typed OCaml expression (multi-line,
   indented) executing [ss] in order. Declarations let-bind a ref over
   the remainder, so MiniCU shadowing maps onto OCaml shadowing. *)
let rec stmts env ind (ss : stmt list) : string =
  match ss with
  | [] -> pad ind ^ "()"
  | s :: rest -> (
      env.cur_loc <- s.sloc;
      match s.sdesc with
      | Decl (ty, x, init) ->
          let init' =
            match init with
            | Some e -> expr env e
            | None -> default_value ty
          in
          Printf.sprintf "%slet %s = ref %s in\n%s" (pad ind) (mangle_var x)
            init' (stmts env ind rest)
      | Decl_shared (ty, x, size) ->
          let id = env.shared_ids in
          env.shared_ids <- id + 1;
          Printf.sprintf
            "%slet %s = ref (Nrt.shared_alloc t %d (fun () -> %s) %s) in\n%s"
            (pad ind) (mangle_var x) id (expr env size) (default_value ty)
            (stmts env ind rest)
      | _ ->
          let this = stmt env ind s in
          if rest = [] then this
          else this ^ ";\n" ^ stmts env ind rest)

(* One non-declaration statement as a unit expression (no trailing ;). *)
and stmt env ind (s : stmt) : string =
  env.cur_loc <- s.sloc;
  let p = pad ind in
  match s.sdesc with
  | Decl _ | Decl_shared _ -> assert false (* handled in [stmts] *)
  | Assign (Var x, e) when not (is_reserved_var x) ->
      Printf.sprintf "%s%s := %s" p (mangle_var x) (expr env e)
  | Assign (Index (pe, ie), e) ->
      p
      ^ seq env [ expr env pe; expr env ie; expr env e ] (function
          | [ tp; ti; tv ] -> Printf.sprintf "Nrt.store t %s %s %s" tp ti tv
          | _ -> assert false)
  | Assign (Member (Var x, f), e) when not (is_reserved_var x) ->
      (* The interpreter reads the current dim3 before evaluating the
         right-hand side; the let order preserves that. *)
      let tcur = fresh env and tv = fresh env in
      Printf.sprintf
        "%s(let %s = !%s in let %s = %s in %s := Nrt.set_member %s %S %s)" p
        tcur (mangle_var x) tv (expr env e) (mangle_var x) tcur f tv
  | Assign (Member (Index (pe, ie), f), e) ->
      p
      ^ seq env [ expr env pe; expr env ie ] (function
          | [ tp; ti ] ->
              Printf.sprintf "Nrt.store_member t %s %s %S (fun () -> %s)" tp ti
                f (expr env e)
          | _ -> assert false)
  | Assign _ -> unsupported env.cur_loc "invalid assignment target"
  | If (c, a, b) ->
      Printf.sprintf "%sif Nrt.as_bool %s then begin\n%s\n%send else begin\n%s\n%send"
        p (expr env c)
        (stmts env (ind + 1) a)
        p
        (stmts env (ind + 1) b)
        p
  | While (c, body) ->
      Printf.sprintf
        "%s(try\n%swhile Nrt.as_bool %s do\n%s(try\n%s\n%swith Nrt.Cont -> ())\n%sdone\n%swith Nrt.Brk -> ())"
        p
        (pad (ind + 1))
        (expr env c)
        (pad (ind + 2))
        (stmts env (ind + 3) body)
        (pad (ind + 2))
        (pad (ind + 1))
        p
  | For (init, cond, step, body) ->
      let cond' =
        match cond with
        | Some c -> Printf.sprintf "Nrt.as_bool %s" (expr env c)
        | None -> "true"
      in
      let body' = stmts env (ind + 3) body in
      let step' =
        match step with
        | Some st -> stmt env (ind + 2) st ^ "\n"
        | None -> ""
      in
      let loop =
        Printf.sprintf
          "%s(try\n%swhile %s do\n%s(try\n%s\n%swith Nrt.Cont -> ());\n%s%sdone\n%swith Nrt.Brk -> ())"
          p
          (pad (ind + 1))
          cond'
          (pad (ind + 2))
          body'
          (pad (ind + 2))
          (match step' with "" -> "" | s -> s)
          (pad (ind + 1))
          p
      in
      (* The init runs outside the Brk handler, as in the interpreter. *)
      (match init with
      | None -> loop
      | Some ({ sdesc = Decl (ty, x, ie); _ } as is) ->
          env.cur_loc <- is.sloc;
          let init' =
            match ie with Some e -> expr env e | None -> default_value ty
          in
          Printf.sprintf "%s(let %s = ref %s in\n%s)" p (mangle_var x) init'
            loop
      | Some is -> Printf.sprintf "%s(%s;\n%s)" p (String.trim (stmt env 0 is)) loop)
  | Return None -> p ^ "raise_notrace (Nrt.Ret Nrt.Unit)"
  | Return (Some e) ->
      Printf.sprintf "%sraise_notrace (Nrt.Ret %s)" p (expr env e)
  | Expr_stmt e -> Printf.sprintf "%signore %s" p (expr env e)
  | Launch l ->
      let head = [ expr env l.l_grid; expr env l.l_block ] in
      let args = List.map (expr env) l.l_args in
      p
      ^ seq env (head @ args) (fun names ->
            match names with
            | tg :: tb :: rest ->
                Printf.sprintf "Nrt.launch t %S %s %s [%s]" l.l_kernel tg tb
                  (String.concat "; " rest)
            | _ -> assert false)
  | Sync -> p ^ "Nrt.sync_threads t"
  | Syncwarp ->
      unsupported env.cur_loc
        "__syncwarp() is unsupported by the native backend (no SIMT lockstep)"
  | Threadfence ->
      unsupported env.cur_loc
        "__threadfence() is unsupported by the native backend (no cross-block \
         memory ordering under true parallelism)"
  | Break -> p ^ "raise_notrace Nrt.Brk"
  | Continue -> p ^ "raise_notrace Nrt.Cont"

(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

let func_source prog ~first (f : func) : string =
  (match f.f_host_followup with
  | Some (s :: _) ->
      unsupported s.sloc
        "kernel %S has a host followup (grid-granularity aggregation): the \
         native backend is device-only"
        f.f_name
  | Some [] ->
      unsupported Loc.dummy
        "kernel %S has a host followup (grid-granularity aggregation): the \
         native backend is device-only"
        f.f_name
  | None -> ());
  let env = { prog; tmp = 0; shared_ids = 0; cur_loc = Loc.dummy } in
  let kw = if first then "let rec" else "and" in
  let b = Buffer.create 512 in
  (match f.f_kind with
  | Global ->
      Buffer.add_string b
        (Printf.sprintf "%s %s (t : Nrt.tctx) (_args : Nrt.v array) : unit =\n"
           kw (mangle_fn f));
      List.iteri
        (fun i (prm : param) ->
          Buffer.add_string b
            (Printf.sprintf "  let %s = ref _args.(%d) in\n"
               (mangle_var prm.p_name) i))
        f.f_params;
      Buffer.add_string b "  (try\n";
      Buffer.add_string b (stmts env 2 f.f_body);
      Buffer.add_string b "\n  with Nrt.Ret _ -> ())\n"
  | Device ->
      let params =
        String.concat " "
          (List.mapi (fun i _ -> Printf.sprintf "(_a%d : Nrt.v)" i) f.f_params)
      in
      Buffer.add_string b
        (Printf.sprintf "%s %s (t : Nrt.tctx) %s: Nrt.v =\n" kw (mangle_fn f)
           (if params = "" then "" else params ^ " "));
      List.iteri
        (fun i (prm : param) ->
          Buffer.add_string b
            (Printf.sprintf "  let %s = ref _a%d in\n" (mangle_var prm.p_name)
               i))
        f.f_params;
      Buffer.add_string b "  (try\n";
      Buffer.add_string b (stmts env 2 f.f_body);
      Buffer.add_string b ";\n    Nrt.Unit\n  with Nrt.Ret _r -> _r)\n");
  Buffer.contents b

(** [program p] — the kernel-module text: one mutually recursive group of
    per-function definitions plus the [kernels] registry. Raises
    {!Unsupported} (with a source location) on constructs the backend
    rejects. The text is a complete module body compiling against [Nrt]
    alone — the golden [.native.ml] corpus pins it. *)
let program (p : Ast.program) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "(* MiniCU transpiled to parallel OCaml by the native backend. *)\n";
  List.iteri
    (fun i f -> Buffer.add_string b (func_source p ~first:(i = 0) f))
    p;
  Buffer.add_string b "\nlet kernels : Nrt.kernel list = [\n";
  List.iter
    (fun (f : func) ->
      if f.f_kind = Global then
        Buffer.add_string b
          (Printf.sprintf "  { Nrt.k_name = %S; k_arity = %d; k_fn = %s };\n"
             f.f_name
             (List.length f.f_params)
             (mangle_fn f)))
    p;
  Buffer.add_string b "]\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Whole-executable emission (multi-variant units)                     *)
(* ------------------------------------------------------------------ *)

type variant_unit = {
  vu_label : string;
  vu_prog : Ast.program;
  vu_autos : (string * Dpopt.Aggregation.auto_param list) list;
      (** The aggregation pass's runtime-allocated trailing parameters;
          element counts are evaluated at emission time against the
          spec's static launch configurations. *)
}

let int_array_lit (vs : int array) =
  "[| "
  ^ String.concat "; " (Array.to_list (Array.map string_of_int vs))
  ^ " |]"

let float_array_lit (vs : float array) =
  "[| "
  ^ String.concat "; "
      (Array.to_list
         (Array.map
            (fun f ->
              Printf.sprintf "Int64.float_of_bits 0x%LxL"
                (Int64.bits_of_float f))
            vs))
  ^ " |]"

let arg_lit buf_name = function
  | Hostspec.A_buf i -> buf_name i
  | Hostspec.A_int n -> Printf.sprintf "Nrt.Int (%d)" n
  | Hostspec.A_float f ->
      Printf.sprintf "Nrt.Float (Int64.float_of_bits 0x%LxL)"
        (Int64.bits_of_float f)

(* The driver body: the hostspec ops against Nrt, with the aggregation
   auto-buffers of each launch allocated inline right before it (the
   same allocation order as Gpusim.Device.launch, so buffer ids — and
   therefore any Ptr values in dumps — coincide across backends). *)
let driver_source (vu : variant_unit) (host : Hostspec.t) : string =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b s) fmt in
  add "  let run () : string =\n";
  add "    let st = Nrt.create () in\n";
  add "    List.iter (Nrt.register st) kernels;\n";
  let nbuf = ref 0 in
  let nauto = ref 0 in
  let buf_name i = Printf.sprintf "_b%d" i in
  List.iter
    (fun (op : Hostspec.op) ->
      match op with
      | Hostspec.Alloc_ints vs ->
          add "    let %s = Nrt.alloc_ints st %s in\n" (buf_name !nbuf)
            (int_array_lit vs);
          incr nbuf
      | Hostspec.Alloc_floats vs ->
          add "    let %s = Nrt.alloc_floats st %s in\n" (buf_name !nbuf)
            (float_array_lit vs);
          incr nbuf
      | Hostspec.Alloc_int_zeros n ->
          add "    let %s = Nrt.alloc_int_zeros st %d in\n" (buf_name !nbuf) n;
          incr nbuf
      | Hostspec.Alloc_float_zeros n ->
          add "    let %s = Nrt.alloc_float_zeros st %d in\n" (buf_name !nbuf)
            n;
          incr nbuf
      | Hostspec.Launch { kernel; grid = gx, gy, gz; block = bx, by, bz; args }
        ->
          let autos =
            match List.assoc_opt kernel vu.vu_autos with
            | Some aps ->
                List.map
                  (fun (ap : Dpopt.Aggregation.auto_param) ->
                    let n =
                      ap.ap_elems ~grid_blocks:(gx * gy * gz)
                        ~block_threads:(bx * by * bz)
                    in
                    let name = Printf.sprintf "_auto%d" !nauto in
                    incr nauto;
                    add "    let %s = Nrt.alloc_int_zeros st %d in\n" name n;
                    name)
                  aps
            | None -> []
          in
          let args = List.map (arg_lit buf_name) args @ autos in
          add
            "    Nrt.host_launch st ~kernel:%S ~grid:(%d, %d, %d) \
             ~block:(%d, %d, %d) ~args:[ %s ];\n"
            kernel gx gy gz bx by bz (String.concat "; " args)
      | Hostspec.Sync -> add "    Nrt.sync st;\n")
    host.ops;
  add "    Nrt.sync st;\n";
  add "    let d = Nrt.dump st ~first:%d in\n" (Hostspec.user_buffers host);
  add "    Nrt.shutdown st;\n";
  add "    Nrt.render_dump d\n";
  Buffer.contents b

(** [unit_source ~variants ~host] — a complete [main.ml]: one module per
    variant (kernels + driver), and a main that runs every variant in
    order, printing ["== <label> =="] section headers around each dump
    (parsed back by {!Build.sections}). Raises {!Unsupported} if any
    variant's program uses a rejected construct — callers that want to
    skip such variants filter first (see {!supported}). *)
let unit_source ~(variants : variant_unit list) ~(host : Hostspec.t) : string =
  let b = Buffer.create 8192 in
  List.iteri
    (fun i vu ->
      Buffer.add_string b (Printf.sprintf "module V%d = struct\n" i);
      Buffer.add_string b (program vu.vu_prog);
      Buffer.add_string b (driver_source vu host);
      Buffer.add_string b "end\n\n")
    variants;
  Buffer.add_string b "let () =\n";
  List.iteri
    (fun i vu ->
      Buffer.add_string b
        (Printf.sprintf "  print_string \"== %s ==\\n\";\n"
           (String.escaped vu.vu_label));
      Buffer.add_string b (Printf.sprintf "  print_string (V%d.run ());\n" i))
    variants;
  Buffer.contents b

(** [supported p] — [None] if the backend accepts [p], [Some (loc, msg)]
    otherwise (the first rejection, in program order). *)
let supported (p : Ast.program) : (Loc.t * string) option =
  match program p with
  | (_ : string) -> None
  | exception Unsupported (loc, msg) -> Some (loc, msg)
