(** Simulated device global memory.

    Memory is a table of buffers; each buffer holds an array of {!Value.t}
    elements. Pointers ({!Value.ptr}) are a buffer id plus an element offset,
    and pointer arithmetic moves the offset within a buffer. Out-of-bounds
    and use-after-free accesses raise {!Value.Runtime_error} with a precise
    description — the simulator doubles as a memory checker for transformed
    code.

    {b Lanes.} A buffer's elements live in one {e lane}: an unboxed
    [int array] ([Ints]), [float array] ([Floats]), an [int array] of
    packed pointers ([Ptrs], see {!pack_ptr}), or boxed {!Value.t}s
    ([Boxed]). An [Int n] or [Float f] initializer picks [Ints] or
    [Floats] at allocation, at any size. A zero initializer ([Int 0], what
    [malloc] and the aggregation pass's auto-buffers use) picks nothing
    yet: the buffer starts as [Zero], reads [Int 0] everywhere and owns no
    array. Its {e first store} chooses the lane of the stored value ([Int]
    → [Ints], [Float] → [Floats], [Ptr] → [Ptrs], anything else →
    [Boxed]), so a [(float * )malloc(n)] buffer holds unboxed floats.

    {b Exact zero.} Every lane can still hold a never-written element,
    which must read [Int 0]: [Ints] stores 0; [Floats] stores a reserved
    NaN payload ({!zero_payload}) that no float operation produces; [Ptrs]
    stores -1, which no pointer packs to. A store of [Int 0] writes that
    encoding, and a store of the reserved payload itself spills (below),
    so loads return exactly the value stored.

    {b Access.} Only this module writes a lane: {!store_at} and the typed
    {!store_int}/{!store_float}/{!store_ptr} (which box nothing) write in
    place when the lane encodes the value and take the mutex otherwise.
    {!lane} hands loaders the storage to read from.

    {b Spills.} A store whose value the lane cannot encode (a [Float] into
    [Ints], say) lands in a per-buffer {e spill} table keyed by offset;
    loads consult it only when it is non-empty (an {!Atomic} count keeps
    the common path branch-cheap), and {!spills} counts such stores. A
    lane, once chosen, is never replaced or promoted, so concurrent
    matching stores from parallel block execution are never lost.

    {b Publication.} The lane is chosen under the memory's mutex and
    published with {!Atomic.set}: two domains of a parallel block batch
    storing into the same fresh buffer agree on one array, and a domain
    that still sees [Zero] at an offset nobody in its batch wrote reads
    [Int 0], which is what that offset holds. Spill tables are touched only
    under the mutex.

    Thread-safety: buffer {e allocation} is single-domain (kernels that
    allocate are never dispatched in parallel batches — {!Blocksafe} rejects
    [malloc] and [__shared__]), while loads and stores may race across
    domains only at provably-disjoint offsets, which is safe on every lane.
    {!update} is the one primitive that may target the same element from
    several domains at once. *)

(* Polymorphic variants so that [lane] widens a buffer's storage to the
   loader's view, which adds [`Spilled], with a free coercion. *)
type storage =
  [ `Zero
  | `Ints of int array
  | `Floats of float array
  | `Ptrs of int array
  | `Boxed of Value.t array ]

type lane = [ storage | `Spilled ]

(* Mismatched-type elements, keyed by offset. [nspilled] mirrors the table
   size so readers can skip it without taking the lock; the table is
   created and touched only under the memory's mutex. *)
type buffer = {
  len : int;
  storage : storage Atomic.t;
  mutable spill_tbl : (int, Value.t) Hashtbl.t option;
  nspilled : int Atomic.t;
  mutable live : bool;
}

type t = {
  mutable table : buffer option array;
  mutable count : int;
  mutable allocated_elems : int;  (** Total elements ever allocated. *)
  spills : int Atomic.t;  (** Stores that landed in a spill table. *)
  lock : Mutex.t;
      (** Guards lane choice, spill tables and read-modify-writes; never
          held by the common load/store paths. *)
}

let create () =
  {
    table = Array.make 64 None;
    count = 0;
    allocated_elems = 0;
    spills = Atomic.make 0;
    lock = Mutex.create ();
  }

let grow t =
  if t.count >= Array.length t.table then begin
    let bigger = Array.make (2 * Array.length t.table) None in
    Array.blit t.table 0 bigger 0 t.count;
    t.table <- bigger
  end

(* A signaling NaN with a payload no float operation yields (they return
   quiet NaNs), so it can stand for [Int 0] inside a [Floats] lane. *)
let zero_bits = 0x7ff4_2f5e_0dd0_0000L
let zero_payload = Int64.float_of_bits zero_bits
let[@inline] is_zero_payload f = f <> f && Int64.bits_of_float f = zero_bits

(* A pointer packs into one int: the buffer id above bit 32, the offset
   as a signed 32-bit value below. Buffer ids are non-negative, so packed
   pointers are too, and -1 is free to stand for [Int 0]. Pointers with a
   larger id or offset have no packed form (-1) and spill. *)
let pack_ptr buf off =
  if buf >= 0 && buf < 1 lsl 30 && off >= -(1 lsl 31) && off < 1 lsl 31 then
    (buf lsl 32) lor (off land 0xFFFF_FFFF)
  else -1

let ptr_buf w = w asr 32
let ptr_off w = ((w land 0xFFFF_FFFF) lxor 0x8000_0000) - 0x8000_0000

let lane_for n (v : Value.t) : storage =
  match v with
  | Value.Int 0 -> `Zero
  | Value.Int k -> `Ints (Array.make n k)
  | Value.Float f when not (is_zero_payload f) -> `Floats (Array.make n f)
  | _ -> `Boxed (Array.make n v)

(* The lane a [Zero] buffer takes on its first store of [v]. *)
let lane_of_first_store n (v : Value.t) : storage =
  match v with
  | Value.Int _ -> `Ints (Array.make n 0)
  | Value.Float _ -> `Floats (Array.make n zero_payload)
  | Value.Ptr _ -> `Ptrs (Array.make n (-1))
  | _ -> `Boxed (Array.make n (Value.Int 0))

(** [alloc t n ~init] allocates a buffer of [n] elements initialized to
    [init], returning a pointer to its first element. *)
let alloc t n ~init : Value.ptr =
  if n < 0 then Value.error "negative allocation size %d" n;
  grow t;
  let id = t.count in
  t.table.(id) <-
    Some
      {
        len = n;
        storage = Atomic.make (lane_for n init);
        spill_tbl = None;
        nspilled = Atomic.make 0;
        live = true;
      };
  t.count <- t.count + 1;
  t.allocated_elems <- t.allocated_elems + n;
  { buf = id; off = 0 }

let buffer_exn t id =
  if id < 0 || id >= t.count then Value.error "invalid buffer id %d" id;
  match t.table.(id) with
  | Some b -> b
  | None -> Value.error "invalid buffer id %d" id

(** [free t p] releases the buffer [p] points into. Subsequent accesses
    raise. Freeing a non-base pointer or a dead buffer raises. *)
let free t (p : Value.ptr) =
  let b = buffer_exn t p.buf in
  if not b.live then Value.error "double free of buffer %d" p.buf;
  if p.off <> 0 then Value.error "free of interior pointer (offset %d)" p.off;
  b.live <- false

let check_failed t buf off =
  let b = buffer_exn t buf in
  if not b.live then Value.error "use after free (buffer %d)" buf;
  if off < 0 || off >= b.len then
    Value.error "out-of-bounds access: offset %d in buffer %d of size %d" off
      buf b.len;
  b

(* Inlined into every access; [check_failed] raises the precise error. *)
let[@inline] check t buf off =
  if buf >= 0 && buf < t.count then
    match Array.unsafe_get t.table buf with
    | Some b when b.live && off >= 0 && off < b.len -> b
    | _ -> check_failed t buf off
  else check_failed t buf off

let[@inline] has_spill b = Atomic.get b.nspilled > 0

(* ---- locked element access ------------------------------------------ *)

let spilled b off =
  if has_spill b then
    match b.spill_tbl with Some tbl -> Hashtbl.find_opt tbl off | None -> None
  else None

(* The element at [off] of a lane, ignoring spills. *)
let lane_value (lane : storage) off : Value.t =
  match lane with
  | `Zero -> Value.Int 0
  | `Boxed a -> a.(off)
  | `Ints a -> Value.Int a.(off)
  | `Floats a ->
      let f = a.(off) in
      if is_zero_payload f then Value.Int 0 else Value.Float f
  | `Ptrs a ->
      let w = a.(off) in
      if w < 0 then Value.Int 0 else Value.Ptr { buf = ptr_buf w; off = ptr_off w }

(* Spill-aware element access; the caller holds the lock (or is provably
   the only accessor, as in host-side [dump]). *)
let raw_load b off : Value.t =
  match spilled b off with
  | Some v -> v
  | None -> lane_value (Atomic.get b.storage) off

let unspill b off =
  if has_spill b then
    match b.spill_tbl with
    | Some tbl when Hashtbl.mem tbl off ->
        Hashtbl.remove tbl off;
        Atomic.decr b.nspilled
    | _ -> ()

let spill t b off v =
  let tbl =
    match b.spill_tbl with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 8 in
        b.spill_tbl <- Some tbl;
        tbl
  in
  if not (Hashtbl.mem tbl off) then Atomic.incr b.nspilled;
  Hashtbl.replace tbl off v;
  Atomic.incr t.spills

(* Choose a [Zero] buffer's lane for the first stored value [v]. Caller
   holds the lock. *)
let settle_locked _ b () v =
  match Atomic.get b.storage with
  | `Zero -> Atomic.set b.storage (lane_of_first_store b.len v)
  | _ -> ()

(* Caller holds the lock. *)
let rec raw_store t b off (v : Value.t) =
  match (Atomic.get b.storage, v) with
  | `Zero, Value.Int 0 -> ()
  | `Zero, _ ->
      settle_locked t b () v;
      raw_store t b off v
  | `Boxed a, _ -> a.(off) <- v
  | `Ints a, Value.Int n ->
      unspill b off;
      a.(off) <- n
  | `Floats a, Value.Int 0 ->
      unspill b off;
      a.(off) <- zero_payload
  | `Floats a, Value.Float f when not (is_zero_payload f) ->
      unspill b off;
      a.(off) <- f
  | `Ptrs a, Value.Int 0 ->
      unspill b off;
      a.(off) <- -1
  | `Ptrs a, Value.Ptr p when pack_ptr p.buf p.off >= 0 ->
      unspill b off;
      a.(off) <- pack_ptr p.buf p.off
  | (`Ints _ | `Floats _ | `Ptrs _), _ -> spill t b off v

(* Run [f t b off x] under the lock, releasing it on both exits. *)
let locked t f b off x =
  Mutex.lock t.lock;
  match f t b off x with
  | r ->
      Mutex.unlock t.lock;
      r
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let load_locked _ b off () = raw_load b off

(* ---- int-addressed entry points --------------------------------------- *)

let lane t buf off : lane =
  let b = check t buf off in
  if has_spill b then `Spilled else (Atomic.get b.storage :> lane)

let load_at t buf off : Value.t =
  let b = check t buf off in
  if has_spill b then locked t load_locked b off ()
  else lane_value (Atomic.get b.storage) off

(* Typed stores into a checked buffer: in place when the lane encodes the
   value exactly and the buffer has no spills, else under the lock, where
   [raw_store] chooses a [`Zero] buffer's lane, heals or spills. *)

let[@inline] store_int_in t b off n =
  match Atomic.get b.storage with
  | `Ints a when not (has_spill b) -> a.(off) <- n
  | `Zero when n = 0 -> ()
  | _ -> locked t raw_store b off (Value.Int n)

let[@inline] store_float_in t b off f =
  match Atomic.get b.storage with
  | `Floats a when not (has_spill b || is_zero_payload f) -> a.(off) <- f
  | _ -> locked t raw_store b off (Value.Float f)

let[@inline] store_ptr_in t b off pbuf poff =
  let w = pack_ptr pbuf poff in
  match Atomic.get b.storage with
  | `Ptrs a when w >= 0 && not (has_spill b) -> a.(off) <- w
  | _ -> locked t raw_store b off (Value.Ptr { buf = pbuf; off = poff })

let store_int t buf off n = store_int_in t (check t buf off) off n

let store_float t buf off src i =
  store_float_in t (check t buf off) off src.(i)

let store_ptr t buf off pbuf poff =
  store_ptr_in t (check t buf off) off pbuf poff

let store_at t buf off (v : Value.t) =
  let b = check t buf off in
  match (Atomic.get b.storage, v) with
  | `Boxed a, _ -> a.(off) <- v
  | _, Value.Int n -> store_int_in t b off n
  | _, Value.Float f -> store_float_in t b off f
  | _, Value.Ptr p -> store_ptr_in t b off p.buf p.off
  | _ -> locked t raw_store b off v

(** [update t buf off f x y] atomically replaces element [off] of buffer
    [buf] with [f old x y] and returns [old]. The one memory primitive that
    may legitimately race across domains on the {e same} element: parallel
    block batches funnel their [Reduce]-mode atomics ({!Blocksafe.Reduce})
    through it. Serial execution uses it too (the mutex is uncontended
    there), so both paths run identical code. *)
let update t buf off f x y =
  Mutex.lock t.lock;
  match
    let b = check t buf off in
    let old = raw_load b off in
    raw_store t b off (f old x y);
    old
  with
  | old ->
      Mutex.unlock t.lock;
      old
  | exception e ->
      Mutex.unlock t.lock;
      raise e

(* ---- pointer-addressed entry points ----------------------------------- *)

let load t (p : Value.ptr) = load_at t p.buf p.off
let store t (p : Value.ptr) v = store_at t p.buf p.off v

let allocated_elems t = t.allocated_elems
let spills t = Atomic.get t.spills

(** Number of buffers ever allocated (live or freed). Buffer ids are dense
    in [0 .. buffer_count - 1], in allocation order. *)
let buffer_count t = t.count

let snapshot b =
  match Atomic.get b.storage with
  | `Zero -> Array.make b.len (Value.Int 0)
  | `Boxed a -> Array.copy a
  | `Ints a when not (has_spill b) -> Array.map (fun n -> Value.Int n) a
  | _ -> Array.init b.len (raw_load b)

(** [dump t ~first] — value-level copies of the first [first] buffers ever
    allocated, in allocation order (freed buffers keep their last
    contents). The differential-testing oracle snapshots the driver's
    buffers this way and requires them to be bit-identical across
    transformed program variants, regardless of what the compiler-inserted
    code allocated afterwards. *)
let dump t ~first : Value.t array list =
  if first < 0 || first > t.count then
    Value.error "Memory.dump: %d buffers requested, %d allocated" first
      t.count;
  List.init first (fun id ->
      match t.table.(id) with
      | Some b -> snapshot b
      | None -> Value.error "Memory.dump: missing buffer %d" id)

let size t (p : Value.ptr) = (buffer_exn t p.buf).len

(** Bulk host-side accessors (no cost accounting; drivers use these). The
    typed fast paths blit directly into unboxed storage — at paper scale
    these move megabytes per experiment cell. *)

let write_array t (p : Value.ptr) (vs : Value.t array) =
  Array.iteri (fun i v -> store t { p with off = p.off + i } v) vs

let read_array t (p : Value.ptr) n : Value.t array =
  Array.init n (fun i -> load t { p with off = p.off + i })

(* Choose a [Zero] buffer's lane for a bulk write whose first value is
   [v], as its first store would. *)
let settle t b v =
  match Atomic.get b.storage with
  | `Zero -> locked t settle_locked b () v
  | _ -> ()

let write_ints t (p : Value.ptr) (vs : int array) =
  let n = Array.length vs in
  if n = 0 then ()
  else
    let b = check t p.buf p.off in
    settle t b (Value.Int vs.(0));
    match Atomic.get b.storage with
    | `Ints a when (not (has_spill b)) && p.off + n <= b.len ->
        Array.blit vs 0 a p.off n
    | _ -> write_array t p (Array.map (fun x -> Value.Int x) vs)

let read_ints t (p : Value.ptr) n =
  if n = 0 then [||]
  else
    let b = check t p.buf p.off in
    match Atomic.get b.storage with
    | `Ints a when (not (has_spill b)) && p.off + n <= b.len ->
        Array.sub a p.off n
    | `Zero when p.off + n <= b.len -> Array.make n 0
    | _ -> Array.map Value.as_int (read_array t p n)

let write_floats t (p : Value.ptr) (vs : float array) =
  let n = Array.length vs in
  if n = 0 then ()
  else
    let b = check t p.buf p.off in
    settle t b (Value.Float vs.(0));
    match Atomic.get b.storage with
    | `Floats a
      when (not (has_spill b))
           && p.off + n <= b.len
           && not (Array.exists is_zero_payload vs) ->
        Array.blit vs 0 a p.off n
    | _ -> write_array t p (Array.map (fun f -> Value.Float f) vs)

let read_floats t (p : Value.ptr) n =
  if n = 0 then [||]
  else
    let b = check t p.buf p.off in
    match Atomic.get b.storage with
    | `Floats a when (not (has_spill b)) && p.off + n <= b.len ->
        Array.map
          (fun f -> if is_zero_payload f then 0.0 else f)
          (Array.sub a p.off n)
    | `Zero when p.off + n <= b.len -> Array.make n 0.0
    | _ -> Array.map Value.as_float (read_array t p n)
