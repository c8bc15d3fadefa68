(** Register VM: the simulator's execution engine for {!Bytecode}.

    Executes lowered MiniCU over unboxed per-thread register banks; threads
    are explicit state machines, and per-block thread records live in a
    reusable {!scratch} arena owned by the scheduler. A block advances warp
    by warp: warp collectives evaluate over a warp's live lanes,
    [__syncthreads] is a block-wide epoch barrier, threads that returned
    early count as arrived. A warp's cost per tag is the maximum over its
    lanes; a block's is the sum over warps, scaled by
    {!Config.sm_warp_parallelism}. *)

(** A launch issued during block execution, to be scheduled by {!Sched}. *)
type launch_req = {
  lr_kernel : string;
  lr_grid : int * int * int;
  lr_block : int * int * int;
  lr_args : Value.t list;
  lr_issue_cost : float;
      (** The launching thread's accumulated cost at issue; the scheduler
          turns it into an issue-time offset within the block. *)
  lr_from_host : bool;
}

type result = {
  r_launches : launch_req list;  (** In issue order. *)
  r_compute_cycles : float;
      (** Parallelism-scaled compute cycles (block duration minus the
          scheduling overhead). *)
  r_tag_cycles : float array;  (** Per-tag scaled cycles. *)
}

(** Reusable per-scheduler arena of thread records (register banks, call
    stacks, cost counters) and the per-block argument template. One
    scratch must only be used by one block execution at a time. *)
type scratch

val create_scratch : unit -> scratch

(** Execute one block; memory side effects happen immediately.
    @raise Value.Runtime_error on memory faults, divergent warp
    collectives, argument-count mismatches, or blocks that neither finish
    nor reach a barrier. *)
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
  result

(** Execute a host followup (grid-granularity aggregation) starting at code
    index [entry] (the kernel's [bf_followup]), in a single pseudo-thread
    with host-launch semantics; returns the launches issued. No device
    cost is charged: the host is not the simulated device. *)
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
  launch_req list
