(** Static checks for MiniCU programs.

    The checker enforces the structural rules that the transformation passes
    and the simulator rely on:

    - all identifiers resolve (params, locals, reserved variables, functions);
    - calls match arity and call only [__device__] functions or builtins;
    - launches target [__global__] kernels with matching argument counts;
    - assignment targets are lvalues; reserved variables are read-only;
    - [__shared__] declarations appear only at kernel top level;
    - [break]/[continue] appear only inside loops.

    Typing is deliberately loose in the C tradition ([int] and [float] mix
    implicitly; pointer arithmetic yields pointers); the simulator is the
    ground truth for value semantics. *)

open Ast

exception Type_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

(* Internal: a [Type_error] that has already been attributed to a source
   statement. Re-raised as plain [Type_error] with a "file:line:col: "
   prefix at the {!check} boundary, so the public exception (and every
   existing handler) is unchanged while CLI diagnostics gain a location. *)
exception Located of Loc.t * string

type env = {
  prog : program;
  vars : (string * ty) list;  (** In-scope variables, innermost first. *)
  in_loop : bool;
  fn : func;  (** Enclosing function. *)
}

let lookup_var env x =
  if is_reserved_var x then Some TDim3 else List.assoc_opt x env.vars

(* [unify a b] combines two loose types for an arithmetic context. *)
let join a b =
  match (a, b) with
  | TFloat, _ | _, TFloat -> TFloat
  | TPtr t, TInt | TInt, TPtr t -> TPtr t
  | TBool, TBool -> TBool
  | TInt, (TInt | TBool) | TBool, TInt -> TInt
  | TDim3, TDim3 -> TDim3
  | a, b when equal_ty a b -> a
  | _ -> fail "incompatible operand types %s and %s" (Pretty.ty_to_string a)
           (Pretty.ty_to_string b)

let rec check_expr env (e : expr) : ty =
  match e with
  | Int_lit _ -> TInt
  | Float_lit _ -> TFloat
  | Bool_lit _ -> TBool
  | Var x -> (
      match lookup_var env x with
      | Some ty -> ty
      | None -> fail "in %s: unbound variable %S" env.fn.f_name x)
  | Unop (Neg, a) -> (
      match check_expr env a with
      | (TInt | TFloat | TBool) as t -> t
      | t -> fail "cannot negate a value of type %s" (Pretty.ty_to_string t))
  | Unop (Not, a) ->
      ignore (check_expr env a);
      TBool
  | Binop (op, a, b) -> (
      let ta = check_expr env a in
      let tb = check_expr env b in
      match op with
      | Add | Sub | Mul | Div | Mod -> join ta tb
      | Lt | Le | Gt | Ge | Eq | Ne | LAnd | LOr ->
          ignore (join ta tb);
          TBool
      | BAnd | BOr | BXor | Shl | Shr -> TInt)
  | Ternary (c, a, b) ->
      ignore (check_expr env c);
      join (check_expr env a) (check_expr env b)
  | Index (p, i) -> (
      (match check_expr env i with
      | TInt | TBool -> ()
      | t -> fail "array index must be integral, got %s" (Pretty.ty_to_string t));
      match check_expr env p with
      | TPtr t -> t
      | t -> fail "cannot index a value of type %s" (Pretty.ty_to_string t))
  | Member (a, f) -> (
      match (check_expr env a, f) with
      | TDim3, ("x" | "y" | "z") -> TInt
      | TDim3, f -> fail "dim3 has no member %S" f
      | t, _ -> fail "cannot access member of type %s" (Pretty.ty_to_string t))
  | Call (name, args) -> check_call env name args
  | Cast (ty, a) ->
      ignore (check_expr env a);
      ty
  | Dim3_ctor (x, y, z) ->
      List.iter (fun e -> ignore (check_expr env e)) [ x; y; z ];
      TDim3
  | Addr_of lv -> (
      (* Only memory locations are addressable: locals live in registers
         (frames), matching the simulator's VM (Gpusim.Vm). *)
      match lv with
      | Index _ -> TPtr (check_expr env lv)
      | Var x ->
          fail
            "cannot take the address of local variable %S; atomics need a \
             memory element such as &a[i]"
            x
      | _ -> fail "'&' requires an indexable lvalue")

and check_call env name args =
  let tys = List.map (check_expr env) args in
  match Builtins.find name with
  | Some b ->
      if List.length args <> b.b_arity then
        fail "builtin %S expects %d arguments, got %d" name b.b_arity
          (List.length args);
      b.b_result tys
  | None -> (
      match find_func env.prog name with
      | Some f ->
          if f.f_kind <> Device then
            fail "cannot call kernel %S directly; use a launch" name;
          if List.length args <> List.length f.f_params then
            fail "call to %S expects %d arguments, got %d" name
              (List.length f.f_params) (List.length args);
          f.f_ret
      | None -> fail "in %s: unknown function %S" env.fn.f_name name)

let is_lvalue = function Var _ | Index _ | Member _ -> true | _ -> false

let rec check_stmts env ss = ignore (List.fold_left check_stmt env ss)

(* Attribute a failure to the innermost statement that owns it: nested
   statements raise [Located] themselves, which passes through untouched,
   while a bare [Type_error] from this statement's own expressions picks
   up [s.sloc] (unless the statement is compiler-generated). *)
and check_stmt env s : env =
  try check_stmt_desc env s
  with Type_error m when not (Loc.is_dummy s.sloc) ->
    raise (Located (s.sloc, m))

and check_stmt_desc env s : env =
  match s.sdesc with
  | Decl (ty, x, init) ->
      (match init with
      | Some e -> ignore (check_expr env e)
      | None -> ());
      if is_reserved_var x then fail "cannot redeclare reserved variable %S" x;
      { env with vars = (x, ty) :: env.vars }
  | Decl_shared (ty, x, size) ->
      (* Allowed in kernels and in device functions (which execute within a
         block's context) — the coarsening pass extracts kernel bodies into
         device functions and must preserve shared declarations. *)
      ignore (check_expr env size);
      { env with vars = (x, TPtr ty) :: env.vars }
  | Assign (lv, e) ->
      if not (is_lvalue lv) then fail "assignment target is not an lvalue";
      (match lv with
      | Var x when is_reserved_var x ->
          fail "cannot assign to reserved variable %S" x
      | _ -> ());
      ignore (check_expr env lv);
      ignore (check_expr env e);
      env
  | If (c, a, b) ->
      ignore (check_expr env c);
      check_stmts env a;
      check_stmts env b;
      env
  | For (init, cond, step, body) ->
      let env_hdr =
        match init with Some s -> check_stmt env s | None -> env
      in
      (match cond with Some c -> ignore (check_expr env_hdr c) | None -> ());
      (match step with
      | Some s -> ignore (check_stmt env_hdr s)
      | None -> ());
      check_stmts { env_hdr with in_loop = true } body;
      env
  | While (c, body) ->
      ignore (check_expr env c);
      check_stmts { env with in_loop = true } body;
      env
  | Return e ->
      (match (e, env.fn.f_ret) with
      | None, TVoid -> ()
      | None, t ->
          fail "in %s: return without a value in a function returning %s"
            env.fn.f_name (Pretty.ty_to_string t)
      | Some _, TVoid ->
          fail "in %s: returning a value from a void function" env.fn.f_name
      | Some e, _ -> ignore (check_expr env e));
      env
  | Expr_stmt e ->
      ignore (check_expr env e);
      env
  | Launch l -> (
      ignore (check_expr env l.l_grid);
      ignore (check_expr env l.l_block);
      List.iter (fun e -> ignore (check_expr env e)) l.l_args;
      match find_func env.prog l.l_kernel with
      | Some f ->
          if f.f_kind <> Global then
            fail "launch target %S is not a __global__ kernel" l.l_kernel;
          if List.length l.l_args <> List.length f.f_params then
            fail "launch of %S expects %d arguments, got %d" l.l_kernel
              (List.length f.f_params)
              (List.length l.l_args);
          env
      | None -> fail "launch of unknown kernel %S" l.l_kernel)
  | Sync | Syncwarp | Threadfence -> env
  | Break | Continue ->
      if not env.in_loop then fail "break/continue outside of a loop";
      env

let check_func prog (f : func) =
  List.iter
    (fun p ->
      if is_reserved_var p.p_name then
        fail "parameter %S shadows a reserved variable" p.p_name)
    f.f_params;
  let env =
    {
      prog;
      vars = List.map (fun p -> (p.p_name, p.p_ty)) f.f_params;
      in_loop = false;
      fn = f;
    }
  in
  check_stmts env f.f_body;
  match f.f_host_followup with
  | None -> ()
  | Some ss -> check_stmts env ss

(** [check p] validates a whole program.
    @raise Type_error describing the first violation found, prefixed with
    the offending statement's location when it has one. *)
let check (p : program) =
  try
    let seen = Hashtbl.create 16 in
    List.iter
      (fun f ->
        if Hashtbl.mem seen f.f_name then
          fail "duplicate function name %S" f.f_name;
        Hashtbl.add seen f.f_name ())
      p;
    List.iter (check_func p) p
  with Located (loc, m) ->
    raise (Type_error (Fmt.str "%a: %s" Loc.pp loc m))

(** [check_result p] is [Ok ()] or [Error msg]. *)
let check_result p =
  match check p with () -> Ok () | exception Type_error m -> Error m
