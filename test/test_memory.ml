(* Tests for the simulated device memory and the event queue. *)

open Gpusim

let t name f = Alcotest.test_case name `Quick f

let raises_rte name f =
  t name (fun () ->
      match f () with
      | _ -> Alcotest.fail "expected a runtime error"
      | exception Value.Runtime_error _ -> ())

let mem_suite =
  [
    t "alloc and rw" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 4 ~init:(Value.Int 0) in
        Memory.store m { p with off = 2 } (Value.Int 42);
        Alcotest.(check int) "load" 42
          (Value.as_int (Memory.load m { p with off = 2 }));
        Alcotest.(check int) "init" 0 (Value.as_int (Memory.load m p)));
    t "independent buffers" (fun () ->
        let m = Memory.create () in
        let a = Memory.alloc m 2 ~init:(Value.Int 1) in
        let b = Memory.alloc m 2 ~init:(Value.Int 2) in
        Memory.store m a (Value.Int 9);
        Alcotest.(check int) "b untouched" 2 (Value.as_int (Memory.load m b)));
    t "many buffers force table growth" (fun () ->
        let m = Memory.create () in
        let ptrs =
          List.init 200 (fun i -> (i, Memory.alloc m 1 ~init:(Value.Int i)))
        in
        List.iter
          (fun (i, p) ->
            Alcotest.(check int) "value" i (Value.as_int (Memory.load m p)))
          ptrs);
    t "write/read helpers round-trip" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 5 ~init:(Value.Int 0) in
        Memory.write_ints m p [| 1; 2; 3; 4; 5 |];
        Alcotest.(check (array int)) "ints" [| 1; 2; 3; 4; 5 |]
          (Memory.read_ints m p 5);
        let q = Memory.alloc m 3 ~init:(Value.Float 0.) in
        Memory.write_floats m q [| 1.5; 2.5; 3.5 |];
        Alcotest.(check (array (float 0.0))) "floats" [| 1.5; 2.5; 3.5 |]
          (Memory.read_floats m q 3));
    t "size reports buffer length" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 7 ~init:(Value.Int 0) in
        Alcotest.(check int) "size" 7 (Memory.size m p));
    raises_rte "out of bounds high" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 4 ~init:(Value.Int 0) in
        Memory.load m { p with off = 4 });
    raises_rte "out of bounds negative" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 4 ~init:(Value.Int 0) in
        Memory.load m { p with off = -1 });
    raises_rte "use after free" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 4 ~init:(Value.Int 0) in
        Memory.free m p;
        Memory.load m p);
    raises_rte "double free" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 4 ~init:(Value.Int 0) in
        Memory.free m p;
        Memory.free m p);
    raises_rte "free of interior pointer" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 4 ~init:(Value.Int 0) in
        Memory.free m { p with off = 1 });
    raises_rte "negative allocation" (fun () ->
        let m = Memory.create () in
        Memory.alloc m (-1) ~init:(Value.Int 0));
    t "zero-length allocation is fine until accessed" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 0 ~init:(Value.Int 0) in
        Alcotest.(check int) "size 0" 0 (Memory.size m p));
    raises_rte "invalid buffer id" (fun () ->
        let m = Memory.create () in
        Memory.load m { Value.buf = 99; off = 0 });
    (* Large Int/Float-initialized buffers take the unboxed typed-storage
       path; everything observable must match the boxed representation. *)
    t "typed int buffer round-trips and dumps" (fun () ->
        let m = Memory.create () in
        let n = 2048 in
        let p = Memory.alloc m n ~init:(Value.Int 0) in
        Memory.store m { p with off = 7 } (Value.Int 42);
        Memory.store m { p with off = n - 1 } (Value.Int (-5)) ;
        Alcotest.(check int) "load" 42
          (Value.as_int (Memory.load m { p with off = 7 }));
        let dump = List.hd (Memory.dump m ~first:1) in
        Alcotest.(check int) "dump length" n (Array.length dump);
        Alcotest.(check bool) "dump cells" true
          (dump.(7) = Value.Int 42 && dump.(n - 1) = Value.Int (-5)
          && dump.(0) = Value.Int 0);
        Memory.write_ints m p (Array.init n (fun i -> i * 3));
        Alcotest.(check int) "bulk read" (3 * (n - 1))
          (Memory.read_ints m p n).(n - 1));
    t "typed float buffer round-trips and dumps" (fun () ->
        let m = Memory.create () in
        let n = 1536 in
        let p = Memory.alloc m n ~init:(Value.Float 0.5) in
        Memory.store m { p with off = 3 } (Value.Float 2.25);
        Alcotest.(check (float 0.0)) "load" 2.25
          (Value.as_float (Memory.load m { p with off = 3 }));
        let dump = List.hd (Memory.dump m ~first:1) in
        Alcotest.(check bool) "dump cells" true
          (dump.(3) = Value.Float 2.25 && dump.(0) = Value.Float 0.5));
    t "mismatched-type store spills, dump still exact" (fun () ->
        let m = Memory.create () in
        let n = 1024 in
        let p = Memory.alloc m n ~init:(Value.Int 1) in
        (* a Float landing in an int-typed buffer must survive verbatim *)
        Memory.store m { p with off = 100 } (Value.Float 6.75);
        Alcotest.(check (float 0.0)) "spilled load" 6.75
          (Value.as_float (Memory.load m { p with off = 100 }));
        let dump = List.hd (Memory.dump m ~first:1) in
        Alcotest.(check bool) "dump has the spilled value" true
          (dump.(100) = Value.Float 6.75 && dump.(99) = Value.Int 1);
        (* overwriting with the native type heals the cell *)
        Memory.store m { p with off = 100 } (Value.Int 8);
        Alcotest.(check int) "healed" 8
          (Value.as_int (Memory.load m { p with off = 100 }));
        let arr = Memory.read_array m p n in
        Alcotest.(check bool) "bulk read sees healed cell" true
          (arr.(100) = Value.Int 8));
    (* Zero-initialized buffers choose their lane at the first store. *)
    t "first store chooses the lane; unwritten elements stay Int 0"
      (fun () ->
        let m = Memory.create () in
        let lane_name p =
          match Memory.lane m p.Value.buf 0 with
          | `Zero -> "zero"
          | `Ints _ -> "ints"
          | `Floats _ -> "floats"
          | `Ptrs _ -> "ptrs"
          | `Boxed _ -> "boxed"
          | `Spilled -> "spilled"
        in
        let fresh () = Memory.alloc m 6 ~init:(Value.Int 0) in
        (* the typed stores the bytecode VM uses follow the same rules *)
        let typed_store (p : Value.ptr) (v : Value.t) =
          match v with
          | Value.Int n -> Memory.store_int m p.buf p.off n
          | Value.Float f -> Memory.store_float m p.buf p.off [| f |] 0
          | Value.Ptr q -> Memory.store_ptr m p.buf p.off q.buf q.off
          | _ -> Memory.store_at m p.buf p.off v
        in
        List.iter
          (fun ((v, expect), store) ->
            let p = fresh () in
            Alcotest.(check string) "fresh" "zero" (lane_name p);
            (* a zero store keeps every lane open *)
            store { p with off = 1 } (Value.Int 0);
            Alcotest.(check string) "after Int 0" "zero" (lane_name p);
            store { p with off = 4 } v;
            Alcotest.(check string) (Value.to_string v) expect (lane_name p);
            Alcotest.(check bool) "loaded back" true
              (Memory.load m { p with off = 4 } = v);
            Alcotest.(check bool) "unwritten loads Int 0" true
              (Memory.load m { p with off = 2 } = Value.Int 0
              && Memory.load_at m p.buf 1 = Value.Int 0);
            let d = List.nth (Memory.dump m ~first:(p.buf + 1)) p.buf in
            Alcotest.(check bool) "unwritten dumps Int 0" true
              (d.(0) = Value.Int 0 && d.(5) = Value.Int 0 && d.(4) = v))
          (List.concat_map
             (fun case -> [ (case, Memory.store m); (case, typed_store) ])
             [
               (Value.Int 7, "ints");
               (Value.Float 2.5, "floats");
               (Value.Ptr { buf = 0; off = 3 }, "ptrs");
               (Value.Bool true, "boxed");
             ]);
        (* pointers pack into one int; those that do not fit spill *)
        let r = fresh () in
        let store_ptr off v =
          Memory.store m { r with off } v;
          Alcotest.(check bool) (Value.to_string v) true
            (Memory.load m { r with off } = v)
        in
        store_ptr 0 (Value.Ptr { buf = 3; off = -5 });
        store_ptr 1 (Value.Ptr { buf = 0; off = (1 lsl 31) - 1 });
        Alcotest.(check string) "pointer lane" "ptrs" (lane_name r);
        Alcotest.(check int) "packed, no spill" 0 (Memory.spills m);
        store_ptr 2 (Value.Ptr { buf = 2; off = 1 lsl 40 });
        Alcotest.(check int) "unpackable pointer spills" 1 (Memory.spills m);
        let q = fresh () in
        Memory.store m { q with off = 0 } (Value.Float 1.5);
        Alcotest.(check (array (float 0.0))) "bulk float read"
          [| 1.5; 0.0; 0.0 |] (Memory.read_floats m q 3);
        Alcotest.(check int) "no more spills" 1 (Memory.spills m));
    t "mismatched stores into a chosen lane round-trip exactly" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 8 ~init:(Value.Int 0) in
        Memory.store m p (Value.Float 0.25);
        let same v off =
          match (v, Memory.load m { p with off }) with
          | Value.Float a, Value.Float b ->
              Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
          | a, b -> a = b
        in
        let spills = ref 0 in
        List.iteri
          (fun i (v, spill) ->
            let off = i + 1 in
            Memory.store m { p with off } v;
            if spill then incr spills;
            Alcotest.(check bool) (Value.to_string v ^ " exact") true
              (same v off);
            Alcotest.(check int) (Value.to_string v ^ " spills") !spills
              (Memory.spills m))
          [
            (Value.Int 7, true);
            (Value.Ptr { buf = 0; off = 1 }, true);
            (* Int 0 has an encoding in every lane *)
            (Value.Int 0, false);
            (* the reserved NaN itself must not read back as Int 0 *)
            (Value.Float Memory.zero_payload, true);
            (Value.Float Float.nan, false);
            (Value.Float Float.neg_infinity, false);
          ];
        let d = List.hd (Memory.dump m ~first:1) in
        Alcotest.(check bool) "dump" true
          (d.(1) = Value.Int 7 && d.(3) = Value.Int 0 && d.(7) = Value.Int 0);
        (* a matching store heals a spilled cell *)
        Memory.store m { p with off = 1 } (Value.Float 3.0);
        Alcotest.(check bool) "healed" true
          (Memory.load m { p with off = 1 } = Value.Float 3.0));
    t "update releases the lock when it raises" (fun () ->
        let m = Memory.create () in
        let p = Memory.alloc m 2 ~init:(Value.Int 5) in
        let add old d () = Value.Int (Value.as_int old + d) in
        (match Memory.update m p.buf 0 (fun _ () () -> failwith "boom") () ()
         with
        | _ -> Alcotest.fail "expected Failure"
        | exception Failure _ -> ());
        (match Memory.update m p.buf 2 add 1 () with
        | _ -> Alcotest.fail "expected an out-of-bounds error"
        | exception Value.Runtime_error _ -> ());
        Alcotest.(check bool) "old value" true
          (Memory.update m p.buf 0 add 10 () = Value.Int 5);
        Alcotest.(check bool) "new value" true
          (Memory.load m p = Value.Int 15));
    t "concurrent first stores publish one lane" (fun () ->
        for _ = 1 to 20 do
          let m = Memory.create () in
          let n = 4096 in
          let p = Memory.alloc m n ~init:(Value.Int 0) in
          let fill lo =
            Domain.spawn (fun () ->
                for i = lo to lo + (n / 2) - 1 do
                  Memory.store m { p with off = i } (Value.Float (float i))
                done)
          in
          let a = fill 0 and b = fill (n / 2) in
          Domain.join a;
          Domain.join b;
          Alcotest.(check (array (float 0.0))) "every store kept"
            (Array.init n float) (Memory.read_floats m p n);
          Alcotest.(check int) "no spills" 0 (Memory.spills m)
        done);
  ]

let eq_suite =
  [
    t "pops in time order" (fun () ->
        let q = Event_queue.create () in
        Event_queue.push q 3.0 "c";
        Event_queue.push q 1.0 "a";
        Event_queue.push q 2.0 "b";
        let order = List.init 3 (fun _ -> snd (Event_queue.pop q)) in
        Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] order);
    t "ties resolve in insertion order" (fun () ->
        let q = Event_queue.create () in
        List.iteri (fun i v -> Event_queue.push q (if i = 1 then 0.0 else 0.0) v)
          [ "x"; "y"; "z" ];
        let order = List.init 3 (fun _ -> snd (Event_queue.pop q)) in
        Alcotest.(check (list string)) "fifo ties" [ "x"; "y"; "z" ] order);
    t "is_empty and length" (fun () ->
        let q = Event_queue.create () in
        Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
        Event_queue.push q 1.0 ();
        Alcotest.(check int) "len" 1 (Event_queue.length q);
        ignore (Event_queue.pop q);
        Alcotest.(check bool) "empty again" true (Event_queue.is_empty q));
    t "peek_time" (fun () ->
        let q = Event_queue.create () in
        Alcotest.(check (option (float 0.))) "none" None (Event_queue.peek_time q);
        Event_queue.push q 5.0 ();
        Event_queue.push q 2.0 ();
        Alcotest.(check (option (float 0.))) "min" (Some 2.0)
          (Event_queue.peek_time q));
    t "pop on empty raises" (fun () ->
        let q : unit Event_queue.t = Event_queue.create () in
        match Event_queue.pop q with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"heap sorts any float list"
         QCheck.(list (float_bound_inclusive 1000.0))
         (fun xs ->
           let q = Event_queue.create () in
           List.iter (fun x -> Event_queue.push q x x) xs;
           let out = List.init (List.length xs) (fun _ -> fst (Event_queue.pop q)) in
           out = List.sort compare xs));
  ]

let value_suite =
  [
    t "int coercions" (fun () ->
        Alcotest.(check int) "bool true" 1 (Value.as_int (Value.Bool true));
        Alcotest.(check int) "float trunc" 3 (Value.as_int (Value.Float 3.9));
        Alcotest.(check int) "neg float trunc" (-3)
          (Value.as_int (Value.Float (-3.9))));
    t "float coercions" (fun () ->
        Alcotest.(check (float 0.)) "int" 4.0 (Value.as_float (Value.Int 4)));
    t "bool coercions" (fun () ->
        Alcotest.(check bool) "nonzero" true (Value.as_bool (Value.Int 5));
        Alcotest.(check bool) "zero" false (Value.as_bool (Value.Int 0));
        Alcotest.(check bool) "float zero" false (Value.as_bool (Value.Float 0.0)));
    t "as_dim3 accepts ints" (fun () ->
        Alcotest.(check (triple int int int)) "int" (7, 1, 1)
          (Value.as_dim3 (Value.Int 7));
        Alcotest.(check (triple int int int)) "dim3" (1, 2, 3)
          (Value.as_dim3 (Value.Dim3 (1, 2, 3))));
    raises_rte "as_ptr on int" (fun () -> Value.as_ptr (Value.Int 3));
    raises_rte "as_int on ptr" (fun () ->
        Value.as_int (Value.Ptr { buf = 0; off = 0 }));
  ]

let suite = mem_suite @ eq_suite @ value_suite
