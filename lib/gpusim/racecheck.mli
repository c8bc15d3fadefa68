(** Dynamic intra-block data-race detector ("racecheck" half of dpcheck).

    One value of type {!t} shadows one thread block: every instrumented
    global/shared memory access (enabled by [Config.check]; see {!Vm})
    is logged per address with its thread, warp, barrier epoch and warp
    epoch. Two same-address accesses race iff they come from different
    threads in the same barrier epoch, are not ordered by a warp-collective
    epoch of a common warp, are not both atomic, and at least one writes.

    The executor drives the epochs: {!bump_epoch} at every [__syncthreads]
    release, {!bump_wepoch} when a warp converges on a collective
    (including [__syncwarp]). After the block retires, {!commit} folds the
    findings into {!Metrics} ([races_detected], [race_reports]).

    The simulator is deterministic, so reports are stable and can be
    pinned as golden test expectations. *)

type kind = Read | Write | Atomic

type t

val create : warp_size:int -> nwarps:int -> t

(** Block-wide barrier released: accesses before and after are ordered. *)
val bump_epoch : t -> unit

(** Warp [w] converged on a collective: its own accesses before and after
    are ordered (other warps are unaffected). *)
val bump_wepoch : t -> int -> unit

(** [record t ~tid ~kind ~loc ptr] logs one access by linear thread [tid]
    and reports any conflict with retained accesses to the same address. *)
val record : t -> tid:int -> kind:kind -> loc:Minicu.Loc.t -> Value.ptr -> unit

(** Fold this block's findings into [metrics]: total conflict count plus
    rendered reports (deduplicated per address, capped). *)
val commit : t -> kernel:string -> bidx:int * int * int -> Metrics.t -> unit
