(* Sanity tests for the differential-testing subsystem (lib/difftest): the
   oracle must pass honest pipeline variants, catch a deliberately broken
   pass, and shrink the counterexample to a small reproducer. *)

open Difftest

let t name f = Alcotest.test_case name `Quick f

(* Keep the oracle's own tests fast: one simulator configuration. *)
let unit_config = [ List.hd Oracle.sim_configs ]

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* A generated case's golden line under the unit config: the baseline's
   exact fingerprint ({!Test_helpers.fingerprint}) and an MD5 over every
   default variant's. *)
let seed_line seed =
  let case = Gen.case_of_seed seed in
  let cfg = snd (List.hd unit_config) in
  let line (v : Oracle.variant) prog =
    match Oracle.run_device ~cfg (v.v_compile prog) case with
    | dev, _ -> Test_helpers.fingerprint dev
    | exception e -> "raises " ^ Printexc.to_string e
  in
  match Minicu.Parser.program (Minicu.Pretty.program (Gen.build case)) with
  | exception e -> "invalid " ^ Printexc.to_string e
  | prog ->
      let variants =
        List.map
          (fun (v : Oracle.variant) -> v.v_label ^ " " ^ line v prog)
          (Oracle.default_variants ())
      in
      Fmt.str "base=%s variants=%s"
        (line Oracle.baseline_variant prog)
        (Digest.to_hex (Digest.string (String.concat "\n" variants)))

let suite =
  [
    t "cases are fully determined by their seed" (fun () ->
        let a = Gen.case_of_seed 42 and b = Gen.case_of_seed 42 in
        Alcotest.(check string) "same source" (Gen.source a) (Gen.source b);
        Alcotest.(check (array int)) "same workload" a.degs b.degs;
        let c = Gen.case_of_seed 43 in
        Alcotest.(check bool) "different seed, different case" false
          (Gen.source a = Gen.source c && a.degs = c.degs));
    t "generated cases survive a print/parse round trip" (fun () ->
        for seed = 0 to 19 do
          let case = Gen.case_of_seed seed in
          let src = Gen.source case in
          match Minicu.Parser.program src with
          | exception exn ->
              Alcotest.failf "seed %d: reproducer does not re-parse: %s" seed
                (Printexc.to_string exn)
          | reparsed ->
              Minicu.Typecheck.check reparsed
        done);
    t "honest variants pass the oracle" (fun () ->
        for seed = 0 to 14 do
          match Oracle.check ~configs:unit_config (Gen.case_of_seed seed) with
          | Pass -> ()
          | Fail f ->
              Alcotest.failf "seed %d: false positive: %a" seed
                Oracle.pp_failure f
          | Invalid msg ->
              Alcotest.failf "seed %d: generator produced an invalid case: %s"
                seed msg
        done);
    t "a broken coarsening pass is caught" (fun () ->
        let variants = [ Oracle.broken_coarsening () ] in
        let rec scan seed =
          if seed > 100 then
            Alcotest.fail
              "broken coarsening survived 100 random cases undetected"
          else
            match
              Oracle.check ~variants ~configs:unit_config
                (Gen.case_of_seed seed)
            with
            | Fail f -> (Gen.case_of_seed seed, f)
            | Pass | Invalid _ -> scan (seed + 1)
        in
        let case, f = scan 0 in
        Alcotest.(check bool) "memory difference detected" true
          (has_prefix ~prefix:"device memory differs" f.f_reason
          || has_prefix ~prefix:"launch metrics" f.f_reason);
        (* ... and shrinks to a small reproducer that still fails *)
        let still_fails c =
          match Oracle.check ~variants ~configs:unit_config c with
          | Fail _ -> true
          | Pass | Invalid _ -> false
        in
        let small = Shrink.minimize ~still_fails case in
        Alcotest.(check bool) "shrunk case still fails" true
          (still_fails small);
        Alcotest.(check bool) "shrinking made progress" true
          (Shrink.case_size small < Shrink.case_size case);
        let lines = Gen.source_lines small in
        (* smallest idiomatic reproducer: a guarded single-site parent
           (the emptiness guard costs 2 lines) plus a minimal child *)
        if lines > 12 then
          Alcotest.failf "shrunk reproducer has %d non-empty lines:\n%s" lines
            (Gen.source small));
    t "sanitize mode passes honest variants" (fun () ->
        for seed = 0 to 9 do
          match
            Oracle.check ~sanitize:true ~configs:unit_config
              (Gen.case_of_seed seed)
          with
          | Pass -> ()
          | Fail f ->
              Alcotest.failf "seed %d: sanitize false positive: %a" seed
                Oracle.pp_failure f
          | Invalid msg ->
              Alcotest.failf "seed %d: generator produced an invalid case: %s"
                seed msg
        done);
    t "an injected racy variant is caught by sanitize mode and shrunk"
      (fun () ->
        let variants = [ Oracle.racy_injection () ] in
        (* Without sanitize mode the variant is memory-neutral: the plain
           oracle must NOT flag it. *)
        (match
           Oracle.check ~variants ~configs:unit_config (Gen.case_of_seed 0)
         with
        | Pass | Invalid _ -> ()
        | Fail f ->
            Alcotest.failf
              "racy variant failed the plain (non-sanitize) oracle: %a"
              Oracle.pp_failure f);
        let check = Oracle.check ~sanitize:true ~variants ~configs:unit_config in
        let rec scan seed =
          if seed > 100 then
            Alcotest.fail "racy variant survived 100 sanitized cases undetected"
          else
            match check (Gen.case_of_seed seed) with
            | Fail f -> (Gen.case_of_seed seed, f)
            | Pass | Invalid _ -> scan (seed + 1)
        in
        let case, f = scan 0 in
        Alcotest.(check bool) "race report in the failure reason" true
          (has_prefix ~prefix:"race detected: " f.f_reason);
        let still_fails c =
          match check c with Fail _ -> true | Pass | Invalid _ -> false
        in
        let small = Shrink.minimize ~still_fails case in
        Alcotest.(check bool) "shrunk case still fails" true (still_fails small);
        Alcotest.(check bool) "shrinking made progress" true
          (Shrink.case_size small < Shrink.case_size case));
    t "shrink candidates are strictly smaller" (fun () ->
        for seed = 0 to 9 do
          let case = Gen.case_of_seed seed in
          let size = Shrink.case_size case in
          List.iter
            (fun c ->
              if Shrink.case_size c >= size then
                Alcotest.failf
                  "seed %d: candidate of size %d is not smaller than %d" seed
                  (Shrink.case_size c) size;
              Alcotest.(check int) "shrunk cases lose their seed" (-1) c.Gen.seed)
            (Shrink.candidates case)
        done);
    t "minimize is a fixpoint" (fun () ->
        (* With a property that accepts everything, minimize must terminate
           at a case none of whose candidates are accepted-and-smaller;
           rerunning it makes no further progress. *)
        let still_fails _ = true in
        let small = Shrink.minimize ~still_fails (Gen.case_of_seed 7) in
        let again = Shrink.minimize ~still_fails small in
        Alcotest.(check int) "no further progress"
          (Shrink.case_size small) (Shrink.case_size again));
    Alcotest.test_case "300 generated cases match their frozen fingerprints"
      `Slow (fun () ->
        Test_corpus.golden_lines ~file:"sim_gen.fingerprints"
          (List.init 300 (fun seed -> (Fmt.str "seed %d" seed, seed_line seed))));
  ]
