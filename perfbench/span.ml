(* In-memory spans recorded from the benchmark's own code, around its calls
   into the library layers. Tracing is off unless [enabled] is set; [record]
   is then a plain call. Spans nest through [current], so a span's parent is
   whichever span was open when it started; spans are kept in memory and
   written once, by [write], when the run ends. *)

type t = {
  id : int;
  name : string;  (** Layer name, e.g. ["gpusim.run"]. *)
  label : string;  (** What the span worked on: a cell, a request. *)
  parent : int;  (** [-1] at the root. *)
  start : float;  (** Monotonic clock, seconds. *)
  stop : float;
  minor_words : float;  (** Minor-heap words allocated while open. *)
  promoted_words : float;  (** Minor words promoted to the major heap. *)
  major_words : float;  (** Words allocated in or promoted to the major heap. *)
}

(* Monotonic clock, seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let current = ref (-1)

let record ?(label = "") name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let minor0, promoted0, major0 = Gc.counters () in
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        let minor1, promoted1, major1 = Gc.counters () in
        current := parent;
        recorded :=
          {
            id;
            name;
            label;
            parent;
            start;
            stop;
            minor_words = minor1 -. minor0;
            promoted_words = promoted1 -. promoted0;
            major_words = major1 -. major0;
          }
          :: !recorded)
  end

let all () = List.rev !recorded
let duration s = s.stop -. s.start

(* Words a span allocated in all: the minor heap plus the major heap
   directly (promotions are counted once, as minor words). *)
let allocated s = s.minor_words +. s.major_words -. s.promoted_words

type summary = {
  span : t;
  root : int;  (** Id of the outermost span enclosing it. *)
  self_s : float;
      (** Duration minus the part its direct children cover (children never
          overlap: the benchmark is single-threaded). *)
}

let summarize spans =
  let by_id = Hashtbl.create 1024 and child_s = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace by_id s.id s;
      if s.parent >= 0 then
        Hashtbl.replace child_s s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.parent)))
    spans;
  let rec root s = if s.parent < 0 then s.id else root (Hashtbl.find by_id s.parent) in
  List.map
    (fun s ->
      {
        span = s;
        root = root s;
        self_s = duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id);
      })
    spans

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"label\":%S,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"minor_words\":%.0f,\"promoted_words\":%.0f,\"major_words\":%.0f}\n"
        s.id s.name s.label s.parent s.start s.stop s.minor_words s.promoted_words
        s.major_words)
    spans;
  close_out oc
