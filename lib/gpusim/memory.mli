(** Simulated device global memory: a table of buffers of {!Value.t}
    elements. Out-of-bounds and use-after-free accesses raise
    {!Value.Runtime_error}, so the simulator doubles as a memory checker for
    transformed code.

    Each buffer stores its elements in one unboxed {!lane}. [Int n] and
    [Float f] initializers pick [Ints] and [Floats] at allocation, at any
    size. A zero initializer ([Int 0], as [malloc] and aggregation
    auto-buffers use) starts the buffer as [Zero]; its first store then
    chooses the lane of the stored value ([Ptr] values get a [Ptrs] lane;
    values no lane encodes get [Boxed]). The typed stores {!store_int},
    {!store_float} and {!store_ptr} follow the same rules without boxing.
    Observable behavior is identical to a boxed array of values:
    - {b exact zero}: a never-written element loads and dumps as [Int 0]
      in every lane ([Floats] encode it as the reserved NaN
      {!zero_payload}, [Ptrs] as -1), and storing [Int 0]
      writes that encoding;
    - {b spills}: a store the lane cannot encode exactly — a [Float] into
      [Ints], or {!zero_payload} itself into [Floats] — goes to a
      per-buffer spill table and loads back verbatim; {!spills} counts
      them;
    - {b publication}: the lane is chosen under the memory's mutex and
      published atomically, and is never replaced afterwards, so parallel
      block batches storing into one fresh buffer share a single array.

    Thread-safety: allocation, [free] and the bulk accessors belong to the
    single domain driving the owning {!Device.t}. Loads and stores may
    additionally be called from parallel block batches ({!Sched}), which
    only ever race at provably-disjoint offsets; same-element cross-domain
    traffic must go through {!update}. Distinct [t] values are fully
    independent. *)

type t

val create : unit -> t

(** [alloc t n ~init] allocates [n] elements initialized to [init].
    @raise Value.Runtime_error if [n < 0]. *)
val alloc : t -> int -> init:Value.t -> Value.ptr

(** [free t p] releases [p]'s buffer. [p] must be the base pointer of a
    live buffer. *)
val free : t -> Value.ptr -> unit

val load : t -> Value.ptr -> Value.t
val store : t -> Value.ptr -> Value.t -> unit

(** {1 Int-addressed access}

    The same operations addressed by buffer id and element offset, with
    the same checks and error messages as {!load}/{!store}. The bytecode
    VM uses them to move values between its register lanes and a buffer's
    unboxed arrays without allocating. Every function below raises
    [Value.Runtime_error] on an invalid or out-of-bounds access. *)

(** Where an element lives, for a loader. [`Floats] elements equal to
    {!zero_payload} read [Int 0], as do negative [`Ptrs] elements. *)
type lane =
  [ `Zero  (** No lane chosen yet: every element reads [Int 0]. *)
  | `Ints of int array
  | `Floats of float array
  | `Ptrs of int array  (** Packed pointers, see {!ptr_buf}. *)
  | `Boxed of Value.t array
  | `Spilled  (** The buffer has spilled elements: use {!load_at}. *) ]

(** [lane t buf off] checks element [off] of buffer [buf] as {!load} does
    and returns the storage to read it from. The arrays are for reading
    only: stores go through the functions below. *)
val lane : t -> int -> int -> lane

val load_at : t -> int -> int -> Value.t
val store_at : t -> int -> int -> Value.t -> unit

(** [store_int t buf off n] is [store_at t buf off (Int n)] without
    boxing: in place when the lane holds ints. *)
val store_int : t -> int -> int -> int -> unit

(** [store_float t buf off src i] stores [Float src.(i)]. The float is
    passed inside its array so the call boxes nothing. *)
val store_float : t -> int -> int -> float array -> int -> unit

(** [store_ptr t buf off pbuf poff] stores [Ptr { buf = pbuf; off = poff }]. *)
val store_ptr : t -> int -> int -> int -> int -> unit

(** [update t buf off f x y] atomically replaces the element with
    [f old x y] and returns [old]: the one primitive that may target the
    same element from several domains at once — parallel block batches
    funnel commutative-reduction atomics through it; serial execution
    shares the same code path (uncontended mutex). Passing the operands
    separately lets callers use a closed [f], so the call allocates no
    closure. The mutex is released if [f] (or the access check) raises. *)
val update :
  t -> int -> int -> (Value.t -> 'a -> 'b -> Value.t) -> 'a -> 'b -> Value.t

(** A [`Ptrs] element is one int: the buffer id above bit 32 and the
    offset as a signed 32-bit value below, or -1 for [Int 0]. Pointers
    with an id of 2{^30} or more, or an offset outside 32 bits, spill.
    [ptr_buf] and [ptr_off] decode a non-negative element. *)
val ptr_buf : int -> int

val ptr_off : int -> int

(** The reserved NaN that encodes [Int 0] inside a [Floats] lane. No float
    operation produces it; storing it as a [Float] spills. *)
val zero_payload : float

(** Stores so far that landed in a spill table. *)
val spills : t -> int

(** Element count of the buffer [p] points into. *)
val size : t -> Value.ptr -> int

(** Total elements ever allocated (high-water accounting for stats). *)
val allocated_elems : t -> int

(** Number of buffers ever allocated (live or freed); buffer ids are dense
    in [0 .. buffer_count - 1], in allocation order. *)
val buffer_count : t -> int

(** [dump t ~first] — value-level copies of the first [first] buffers, in
    allocation order. The differential-testing oracle ([lib/difftest])
    snapshots driver-allocated buffers this way and compares them
    bit-for-bit across transformed program variants.
    @raise Value.Runtime_error if [first] exceeds {!buffer_count}. *)
val dump : t -> first:int -> Value.t array list

(** {1 Bulk host-side accessors} (no cost accounting; drivers use these) *)

val write_array : t -> Value.ptr -> Value.t array -> unit
val read_array : t -> Value.ptr -> int -> Value.t array
val write_ints : t -> Value.ptr -> int array -> unit
val read_ints : t -> Value.ptr -> int -> int array
val write_floats : t -> Value.ptr -> float array -> unit
val read_floats : t -> Value.ptr -> int -> float array
