(* The full Small registry under all 8 pass combos against the frozen
   test/corpus/sim_registry.fingerprints golden (one line per cell, see
   Test_bytecode's benchmark layer). Not part of runtest: it takes about
   80 s. The @ir alias runs it; CORPUS_PROMOTE=1 rewrites the golden like
   the other corpus goldens. *)

let () =
  Alcotest.run "sim-registry"
    [
      ( "registry",
        List.concat_map
          (fun spec ->
            List.map
              (Test_bytecode.spec_golden ~file:Test_bytecode.registry_golden
                 Test_bytecode.slow spec)
              (Test_bytecode.combos ()))
          (Benchmarks.Registry.all ~size:Benchmarks.Registry.Small ()) );
    ]
