(* Golden-corpus suite. Every test/corpus/*.minicu fixture must:

     1. parse, and for good fixtures, typecheck;
     2. round-trip — parse → pretty → parse yields an equal AST;
     3. pretty-print byte-for-byte to its committed .golden file;
     4. (bad_* fixtures) produce exactly the dpcheck diagnostics pinned in
        its .diags golden — static lints first, then dynamic findings from
        any CHECK-RUN directives — and at least one finding.

   After an intentional pretty-printer or diagnostic change, run with
   CORPUS_PROMOTE=1 to rewrite the goldens, then review the diff. *)

module Static = Analysis.Static
module Dynamic = Analysis.Dynamic

let t name f = Alcotest.test_case name `Quick f

(* Under `dune runtest` the suite runs in _build/default/test with a
   copied corpus/; under `dune exec` from the repo root it is
   test/corpus. *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus"
  else if Sys.file_exists "test/corpus" then "test/corpus"
  else Fmt.failwith "cannot locate the corpus directory from %s" (Sys.getcwd ())

(* Promotion must write to the source tree, not the build copy. *)
let promote_dir =
  if Sys.file_exists "../../../test/corpus" then "../../../test/corpus"
  else corpus_dir

let promoting = Sys.getenv_opt "CORPUS_PROMOTE" <> None

let read_file path = In_channel.with_open_text path In_channel.input_all

let write_file path s =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s)

let fixtures =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".minicu")
  |> List.sort compare

let golden_check ~what ~fixture ~golden_name actual =
  let committed = Filename.concat corpus_dir golden_name in
  if promoting then
    write_file (Filename.concat promote_dir golden_name) actual
  else if not (Sys.file_exists committed) then
    Alcotest.failf "%s: no %s golden; run with CORPUS_PROMOTE=1 to create %s"
      fixture what golden_name
  else
    let expected = read_file committed in
    if expected <> actual then
      Alcotest.failf
        "%s: %s deviates from its golden (%s).@.--- expected@.%s@.--- got@.%s@.\
         If the change is intentional, rerun with CORPUS_PROMOTE=1."
        fixture what golden_name expected actual

(* Line-keyed goldens for the simulator's frozen verdicts: one
   "<key>\t<value>" line per cell, so each test checks only its own lines
   and CORPUS_PROMOTE=1 rewrites only those, in place (new keys are
   appended). *)
let golden_table file =
  let path = Filename.concat (if promoting then promote_dir else corpus_dir) file in
  if not (Sys.file_exists path) then []
  else
    read_file path |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.index_opt line '\t' with
           | Some i ->
               Some
                 ( String.sub line 0 i,
                   String.sub line (i + 1) (String.length line - i - 1) )
           | None -> None)

let golden_lines ~file (cells : (string * string) list) =
  List.iter
    (fun (k, v) ->
      if String.contains k '\t' || String.contains k '\n'
         || String.contains v '\t' || String.contains v '\n'
      then Alcotest.failf "%s: cell %S does not fit on one line" file k)
    cells;
  let table = golden_table file in
  if promoting then begin
    let replaced =
      List.map
        (fun (k, v) ->
          (k, Option.value (List.assoc_opt k cells) ~default:v))
        table
    in
    let added = List.filter (fun (k, _) -> not (List.mem_assoc k table)) cells in
    write_file
      (Filename.concat promote_dir file)
      (String.concat "" (List.map (fun (k, v) -> k ^ "\t" ^ v ^ "\n") (replaced @ added)))
  end
  else
    let wrong =
      List.filter_map
        (fun (k, v) ->
          match List.assoc_opt k table with
          | Some expected when expected = v -> None
          | Some expected ->
              Some (Fmt.str "%s@.  expected %s@.  got      %s" k expected v)
          | None -> Some (Fmt.str "%s@.  no golden line; got %s" k v))
        cells
    in
    if wrong <> [] then
      Alcotest.failf
        "%d of %d cells deviate from %s:@.%s@.If the change is intentional, \
         rerun with CORPUS_PROMOTE=1."
        (List.length wrong) (List.length cells) file
        (String.concat "\n" (List.filteri (fun i _ -> i < 5) wrong))

let golden_line ~file ~key value = golden_lines ~file [ (key, value) ]

let diags_of src prog =
  let static =
    List.map (Fmt.str "%a" Static.pp_diag) (Static.check_program prog)
  in
  let dynamic = Dynamic.run prog (Dynamic.directives src) in
  static @ dynamic

let fixture_tests file =
  let base = Filename.chop_suffix file ".minicu" in
  let is_bad = String.length base >= 4 && String.sub base 0 4 = "bad_" in
  let load () =
    let src = read_file (Filename.concat corpus_dir file) in
    (src, Minicu.Parser.program ~file src)
  in
  [
    t (base ^ ": parse/pretty/parse round-trip") (fun () ->
        let _, prog = load () in
        if not is_bad then Minicu.Typecheck.check prog;
        let printed = Minicu.Pretty.program prog in
        let reparsed = Minicu.Parser.program ~file printed in
        if not (Minicu.Ast.equal_program prog reparsed) then
          Alcotest.failf "%s: pretty output parses to a different AST:@.%s"
            file printed);
    t (base ^ ": pretty output matches golden") (fun () ->
        let _, prog = load () in
        golden_check ~what:"pretty output" ~fixture:file
          ~golden_name:(base ^ ".golden")
          (Minicu.Pretty.program prog));
  ]
  @
  if is_bad then
    [
      t (base ^ ": dpcheck diagnostics match golden") (fun () ->
          let src, prog = load () in
          let diags = diags_of src prog in
          if diags = [] then
            Alcotest.failf "%s: a bad fixture produced no diagnostics" file;
          golden_check ~what:"diagnostics" ~fixture:file
            ~golden_name:(base ^ ".diags")
            (String.concat "\n" diags ^ "\n"));
    ]
  else
    [
      t (base ^ ": no static errors") (fun () ->
          let _, prog = load () in
          match Static.errors (Static.check_program prog) with
          | [] -> ()
          | d :: _ -> Alcotest.failf "%s: %a" file Static.pp_diag d);
    ]

let suite = List.concat_map fixture_tests fixtures
