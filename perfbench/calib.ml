(* Host-speed calibration. The host is shared: its speed drifts by up to
   1.5x over minutes and jitters by 5-15% within a second, so raw seconds
   spread by about 35% between runs of the same code. So while operations
   run, a timer signal interrupts them every [interval] seconds to time a
   fixed kernel, and each operation's time is reported in reference
   seconds: its measured seconds, less the time the samples took inside
   it, times [reference_s] over the mean kernel sample from [window]
   seconds before it to [window] seconds after it. A reference second is
   a second on a host where one kernel sample takes exactly
   [reference_s].

   The kernel uses no code of the repository, so a change to the
   repository cannot move it. It is the kind of work the simulator and
   the compiler do: indirect calls through closures, hash-table updates
   and dependent loads scattered over a table larger than the L2 cache.
   It allocates nothing, so it neither triggers a collection nor pays for
   one the interrupted code left due. *)

(* [Span.now], inlined here so that reading the clock allocates no float. *)
let[@inline] now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* About one sample on a 2-vCPU Xeon VM in a fast phase. *)
let reference_s = 0.5e-3

(* The speed the operation saw is tracked best by samples taken during it
   and just around it: dense samples and a short window. A sample takes
   about 1 ms, so sampling costs about 5% of a pass. *)
let interval = 0.02
let window = 0.1

(* Dependent loads wander over this table, 2^20 ints (8 MB). It lies
   outside the OCaml heap, so it leaves [peak_heap_mb] alone. *)
let table =
  let t = Bigarray.(Array1.create int c_layout (1 lsl 20)) in
  let x = ref 0x9e3779b9 in
  for i = 0 to Bigarray.Array1.dim t - 1 do
    x := (!x * 1103515245) + 12345;
    t.{i} <- (!x lsr 7) land 0xfffff
  done;
  t

let iterations = 4500
let regs = Array.make 4 1
let env = Hashtbl.create 64
let () = for k = 0 to 63 do Hashtbl.replace env k k done

let ops =
  [|
    (fun () -> regs.(0) <- table.{regs.(0)});
    (fun () -> regs.(1) <- (regs.(1) * 31) + regs.(0));
    (fun () -> Hashtbl.replace env (regs.(1) land 63) regs.(0));
    (fun () -> regs.(2) <- regs.(2) + Hashtbl.find env (regs.(0) land 63));
    (fun () ->
      for i = 0 to 3 do
        regs.(3) <- regs.(3) + table.{(regs.(0) + i) land 0xfffff}
      done);
  |]

let sink = ref 0

let kernel () =
  for _ = 1 to iterations do
    Array.iter (fun f -> f ()) ops
  done;
  sink := !sink + regs.(1) + regs.(2) + regs.(3)

(* Samples are kept outside the OCaml heap, and taking one allocates
   nothing: the interrupted code's collections fall where they would
   without the sampling, and [peak_heap_mb] does not depend on when the
   timer fired. Sample [k] ran from [froms.{k}] to [ats.{k}]; the fastest
   of its three kernel runs took [secs.{k}] seconds, so that an interrupt
   in one run does not count. Room for 10 minutes of samples. *)
let capacity = 1 lsl 15
let column () = Bigarray.(Array1.create float64 c_layout capacity)
let froms = column ()
let ats = column ()
let secs = column ()

(* Samples taken since the last [start]. *)
let count = ref 0

let take () =
  let k = !count in
  if k < capacity then begin
    froms.{k} <- now ();
    secs.{k} <- infinity;
    for _ = 1 to 3 do
      let a = now () in
      kernel ();
      let d = now () -. a in
      if d < secs.{k} then secs.{k} <- d
    done;
    ats.{k} <- now ();
    count := k + 1
  end

(* Whether the timer's samples are wanted. The handler stays installed,
   so a signal that arrives after [stop] does nothing. *)
let sampling = ref false

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         if !sampling then begin
           (* A signal during a sample waits for the next one. *)
           sampling := false;
           take ();
           sampling := true
         end))

let set_timer seconds =
  ignore (Unix.setitimer Unix.ITIMER_REAL { it_interval = seconds; it_value = seconds })

(* Sampling starts with a sample, then takes one every [interval] seconds
   until [stop]; the first kernel run warms the table into the cache. *)
let start () =
  kernel ();
  count := 0;
  take ();
  sampling := true;
  set_timer interval

let stop () =
  set_timer 0.0;
  sampling := false;
  take ()

(* Operations ran over [starts.(i), stops.(i)], read with [now]. Their
   latencies, less the samples taken during them: in host seconds, and in
   reference seconds. Call after [stop]. *)
let measure ~starts ~stops =
  let n = !count in
  (* The first sample that ends at or after [t], or [n]. *)
  let first_after t =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if ats.{mid} >= t then go lo mid else go (mid + 1) hi
    in
    go 0 n
  in
  let own = Array.make (Array.length starts) 0.0 in
  let reference =
    Array.mapi
      (fun i start ->
        let stop = stops.(i) in
        let first = first_after start in
        (* Samples taken during the operation: their time is not its own. *)
        let rec stolen j acc =
          if j >= n || froms.{j} >= stop then acc
          else
            stolen (j + 1)
              (acc +. Float.max 0.0 (Float.min stop ats.{j} -. Float.max start froms.{j}))
        in
        let lo = max 0 (min (first - 1) (first_after (start -. window))) in
        let hi = min (n - 1) (max first (first_after (stop +. window) - 1)) in
        let around = List.init (hi - lo + 1) (fun j -> secs.{lo + j}) in
        own.(i) <- stop -. start -. stolen first 0.0;
        own.(i) *. reference_s /. Harness.Stats.mean around)
      starts
  in
  (own, reference)

(* [f ()] and its time in reference seconds. *)
let timed f =
  start ();
  let a = now () in
  let r = f () in
  let b = now () in
  stop ();
  (r, (snd (measure ~starts:[| a |] ~stops:[| b |])).(0))

(* The median sample since [start], in seconds. *)
let median_sample () =
  Harness.Stats.percentile (List.init !count (fun k -> secs.{k})) 0.5
