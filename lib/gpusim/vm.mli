(** Register VM for the bytecode engine ({!Bytecode}).

    Executes lowered MiniCU over unboxed per-thread register banks; threads
    are explicit state machines rather than fibers, and per-block thread
    records live in a reusable {!scratch} arena owned by the scheduler.
    Block-level semantics (warp-by-warp advance, barrier epochs, warp
    collectives, {!Racecheck} hooks, cost aggregation) mirror {!Exec}
    exactly; the cross-engine differential suite pins both engines
    bit-for-bit. *)

(** Reusable per-scheduler arena of thread records (register banks, call
    stacks, cost counters) and the per-block argument template. One
    scratch must only be used by one block execution at a time. *)
type scratch

val create_scratch : unit -> scratch

(** Execute one block under the bytecode engine; same contract (arguments,
    errors, result, metrics side effects) as {!Exec.run_block}. *)
val run_block :
  scratch ->
  Bytecode.prog ->
  Bytecode.func ->
  args:Value.t list ->
  gdim:int * int * int ->
  bdim:int * int * int ->
  bidx:int * int * int ->
  mem:Memory.t ->
  cfg:Config.t ->
  metrics:Metrics.t ->
  default_idx:int ->
  Exec.result

(** Execute a host followup starting at code index [entry] (the kernel's
    [bf_followup]); same contract as {!Exec.run_host_stmts}. *)
val run_host_stmts :
  Bytecode.prog ->
  Bytecode.func ->
  entry:int ->
  args:Value.t list ->
  grid:int * int * int ->
  block:int * int * int ->
  mem:Memory.t ->
  cfg:Config.t ->
  metrics:Metrics.t ->
  Compile.launch_req list
