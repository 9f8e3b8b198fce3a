(* ccsim-lint: each fixture under lint_fixtures_typed/ must produce
   exactly the findings its name promises — a bad module per rule, ok
   twins silent under each rule's escape hatch, and misused
   [@lint.allow] attributes that are findings themselves — and the
   committed tree must be clean. The fixtures are a compiled library:
   the linter reads their .cmt files. *)

module L = Lint_core

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

(* The build context: the test directory's parent under `dune runtest`,
   _build/default from the repository root under `dune exec`. *)
let build_root = if Sys.file_exists "lint_fixtures_typed" then ".." else "_build/default"

let fixtures = "test/lint_fixtures_typed"

let fixture_findings =
  lazy (Lint_typed.scan ~root:build_root ~cmt_roots:[ fixtures ] ~paths:[ fixtures ] ())

let findings_for name =
  List.filter
    (fun (f : L.finding) -> String.equal f.file (fixtures ^ "/" ^ name))
    (Lazy.force fixture_findings)

let summarize findings = List.map (fun (f : L.finding) -> (f.rule, f.line, f.col)) findings

let check_fixture ~name ~expected () =
  Alcotest.(check (list (triple string int int))) name expected (summarize (findings_for name))

(* In bad_r1_by_type.ml only the types show the hazards: line 5 holds
   a table a helper returns, line 8 a record literal with a mutable
   field, line 11 a queue inside a plain sub-module. *)
let test_r1 () =
  check_fixture ~name:"bad_r1_global_mutable.ml"
    ~expected:[ ("R1", 4, 4); ("R1", 5, 4); ("R1", 6, 4) ] ();
  check_fixture ~name:"bad_r1_by_type.ml"
    ~expected:[ ("R1", 5, 4); ("R1", 8, 4); ("R1", 11, 6) ] ()

(* In bad_r2_by_path.ml only the resolved paths show them: line 6 reads
   the clock through `open Unix`, lines 10 and 12 reach the global
   Random through a module alias and a local alias of it. *)
let test_r2 () =
  check_fixture ~name:"bad_r2_nondeterminism.ml"
    ~expected:[ ("R2", 4, 16); ("R2", 6, 15); ("R2", 8, 17); ("R2", 10, 20) ] ();
  check_fixture ~name:"bad_r2_by_path.ml"
    ~expected:[ ("R2", 6, 15); ("R2", 10, 16); ("R2", 12, 40); ("R2", 12, 48) ] ()

let test_annotations_silence = check_fixture ~name:"ok_annotated.ml" ~expected:[]

(* The typedtree of a source text, typed against the stdlib. *)
let typed src =
  Compmisc.init_path ();
  let str, _, _, _, _ =
    Typemod.type_structure (Compmisc.initial_env ()) (Parse.implementation (Lexing.from_string src))
  in
  str

let test_r2_exemption () =
  (* The same clock and GC reads are findings in engine code and exempt
     in telemetry/profiling code; the global Random is not. *)
  let str = typed "let t0 = Sys.time ()\nlet words = Gc.minor_words ()\nlet r = Random.bits ()\n" in
  let lines file = List.map (fun (f : L.finding) -> f.line) (Lint_typed.scan_structure ~file str) in
  Alcotest.(check (list int)) "flagged in lib/engine" [ 1; 2; 3 ]
    (List.sort Int.compare (lines "lib/engine/x.ml"));
  Alcotest.(check (list int)) "clock and GC exempt in lib/runner" [ 3 ]
    (List.sort Int.compare (lines "lib/runner/x.ml"))

(* A payload that is not one catalogue rule and one string is no escape
   hatch the linter can read: it stops the scan, naming where it is. *)
let test_allow_malformed () =
  List.iter
    (fun payload ->
      let src = Printf.sprintf "let same (a : float) b = (a = b) [@lint.allow %s]\n" payload in
      match Lint_typed.scan_structure ~file:"lib/x.ml" (typed src) with
      | _ -> Alcotest.fail ("read as an escape hatch: " ^ payload)
      | exception Lint_typed.Scan_error msg ->
          Alcotest.(check bool) (payload ^ " is malformed") true
            (contains ~affix:":1:33: malformed [@lint.allow]" msg))
    [ "R6 R7"; "R4 \"why\""; "\"why\"" ]

(* Line 7's attribute is stale (an int comparison is no R6 finding),
   line 9's has no reason and line 11's a blank one; R5 and R8 take
   their own attributes, so line 13's silences nothing and the
   allocation under it (col 36) stands, and line 15's silences nothing;
   line 17's annotates a type, where it covers no expression. *)
let test_allow_misuse =
  check_fixture ~name:"bad_allow.ml"
    ~expected:
      [
        ("R6", 7, 35);
        ("R6", 9, 39);
        ("R6", 11, 39);
        ("R5", 13, 36);
        ("R5", 13, 45);
        ("R8", 15, 16);
        ("R6", 17, 15);
      ]

let test_json_shape () =
  let json = L.render_json (findings_for "bad_r2_nondeterminism.ml") in
  let has affix = contains ~affix json in
  Alcotest.(check bool) "is an array" true (String.length json > 1 && json.[0] = '[');
  List.iter
    (fun field -> Alcotest.(check bool) ("has " ^ field) true (has ("\"" ^ field ^ "\": ")))
    [ "file"; "line"; "col"; "rule"; "message" ];
  Alcotest.(check bool) "one stage: no stage field" false (has "\"stage\"");
  Alcotest.(check bool) "carries the path" true (has (fixtures ^ "/bad_r2_nondeterminism.ml"));
  Alcotest.(check bool) "carries the rule" true (has "\"rule\": \"R2\"")

let test_json_empty () = Alcotest.(check string) "empty array" "[]\n" (L.render_json [])

(* Line 14 is a call to the tuple-returning Float.frexp. *)
let test_r5_typed =
  check_fixture ~name:"bad_r5.ml"
    ~expected:[ ("R5", 8, 12); ("R5", 10, 32); ("R5", 12, 25); ("R5", 14, 33) ]

(* Lines 15 and 17 are float = / <> that only the types reveal: the
   operands carry no annotation. *)
let test_r6_typed =
  check_fixture ~name:"bad_r6.ml"
    ~expected:[ ("R6", 6, 43); ("R6", 8, 41); ("R6", 10, 40); ("R6", 15, 32); ("R6", 17, 37) ]

(* Lines 5 and 7 mix dimensions directly, line 10 through a let binding;
   lines 13 and 15 mix scales of one dimension (_s vs _ms, _bps vs
   _mbps). *)
let test_r7_typed =
  check_fixture ~name:"bad_r7.ml"
    ~expected:
      [ ("R7", 5, 55); ("R7", 7, 66); ("R7", 10, 6); ("R7", 13, 54); ("R7", 15, 62) ]

let test_typed_twins_silent () =
  (* Each bad fixture has an ok twin carrying the documented escape
     hatch — [@ccsim.alloc_ok "why"] for R5, [@lint.allow Rn "why"] for
     R6 and R7. All must be silent. *)
  List.iter
    (fun name ->
      Alcotest.(check (list (triple string int int))) name [] (summarize (findings_for name)))
    [ "ok_r5.ml"; "ok_r6.ml"; "ok_r7.ml" ]

let test_messages_name_the_problem () =
  let msgs_of findings = List.map (fun (f : L.finding) -> f.message) findings in
  (match msgs_of (findings_for "bad_r1_global_mutable.ml") with
  | m :: _ ->
      Alcotest.(check bool) "R1 names the binding" true (contains ~affix:"\"hit_count\"" m)
  | [] -> Alcotest.fail "no R1 findings");
  let says file affixes =
    let msgs = msgs_of (findings_for file) in
    List.iter
      (fun affix ->
        Alcotest.(check bool) (file ^ " says " ^ affix) true (List.exists (contains ~affix) msgs))
      affixes
  in
  says "bad_r7.ml" [ "_s vs _ms"; "_bps vs _mbps" ];
  says "bad_allow.ml"
    [
      "[@lint.allow R6] is stale";
      "[@lint.allow R6] requires a reason";
      "R5 takes only [@ccsim.alloc_ok";
      "R8 takes only [@@ccsim.test_only";
    ]

let test_sarif_shape () =
  let findings = findings_for "bad_r2_nondeterminism.ml" @ findings_for "bad_r5.ml" in
  let sarif = L.render_sarif findings in
  let has affix = contains ~affix sarif in
  Alcotest.(check bool) "declares 2.1.0" true (has "\"version\": \"2.1.0\"");
  Alcotest.(check bool) "points at the 2.1.0 schema" true (has "sarif-schema-2.1.0.json");
  Alcotest.(check bool) "driver is ccsim-lint" true (has "\"name\": \"ccsim-lint\"");
  (* Every rule in the catalogue is described, findings or not... *)
  List.iter
    (fun r ->
      Alcotest.(check bool) ("descriptor for " ^ r) true (has ("{\"id\": \"" ^ r ^ "\"")))
    [ "R1"; "R2"; "R5"; "R6"; "R7"; "R8" ];
  Alcotest.(check bool) "descriptors carry no stage" false (has "\"stage\"");
  (* ...and each finding becomes a result with a physical location. *)
  Alcotest.(check bool) "R2 result" true (has "\"ruleId\": \"R2\"");
  Alcotest.(check bool) "R5 result" true (has "\"ruleId\": \"R5\"");
  Alcotest.(check bool) "carries the fixture uri" true
    (has "lint_fixtures_typed/bad_r5.ml");
  Alcotest.(check bool) "locations are physical" true (has "\"physicalLocation\"");
  let empty = L.render_sarif [] in
  Alcotest.(check bool) "clean tree still declares 2.1.0" true
    (contains ~affix:"\"version\": \"2.1.0\"" empty);
  Alcotest.(check bool) "clean tree has an empty results array" true
    (contains ~affix:"\"results\": []" empty)

let tree_findings = lazy (Lint_typed.scan_tree build_root)

let test_repo_tree_typed_clean () =
  (* The tree as `dune build @lint` and CI's SARIF step lint it: every
     rule, every cmt root, and no finding left over by the tree's
     [@lint.allow] attributes, none of them stale. *)
  Alcotest.(check (list string)) "no findings"
    [] (List.map L.render_finding (Lazy.force tree_findings))

(* Every .ml under [dir] in the build context, relative to it. *)
let rec sources dir =
  let full = Filename.concat build_root dir in
  Sys.readdir full |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun entry ->
         let path = dir ^ "/" ^ entry in
         if entry.[0] = '.' then []
         else if Sys.is_directory (Filename.concat build_root path) then sources path
         else if Filename.check_suffix entry ".ml" then [ path ]
         else [])

(* The (file, rule, reason) of each [@lint.allow] attribute in [file];
   a payload not of the form Rn "why" reads as rule "?" and reason "". *)
let allow_attributes file =
  let found = ref [] in
  let attribute _ (a : Parsetree.attribute) =
    if String.equal a.attr_name.txt "lint.allow" then
      found :=
        (match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( {
                        pexp_desc =
                          Pexp_construct
                            ( { txt = Lident rule; _ },
                              Some { pexp_desc = Pexp_constant (Pconst_string (why, _, _)); _ } );
                        _;
                      },
                      _ );
                _;
              };
            ] ->
            (file, rule, why)
        | _ -> (file, "?", ""))
        :: !found
  in
  let it = { Ast_iterator.default_iterator with attribute } in
  In_channel.with_open_text (Filename.concat build_root file) (fun ic ->
      it.structure it (Parse.implementation (Lexing.from_channel ic)));
  List.rev !found

(* The tree's escape hatches themselves: each [@lint.allow] in the
   scanned trees names a rule it may silence and gives more than a
   token reason, and the tree is lint-clean under them. *)
let test_repo_tree_clean_under_allow () =
  let allows =
    List.concat_map allow_attributes (List.concat_map sources [ "lib"; "bin"; "tools" ])
  in
  Alcotest.(check bool) "the tree carries [@lint.allow] attributes" true (allows <> []);
  List.iter
    (fun (file, rule, why) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s attribute in %s names R1, R2, R6 or R7" rule file)
        true
        (List.mem rule [ "R1"; "R2"; "R6"; "R7" ]);
      Alcotest.(check bool)
        (Printf.sprintf "%s attribute in %s is justified" rule file)
        true
        (String.length (String.trim why) > 10))
    allows;
  Alcotest.(check (list string)) "no findings"
    [] (List.map L.render_finding (Lazy.force tree_findings))

let test_missing_cmt_reported () =
  (* A source the linter cannot load (no .cmt under the roots, as for an
     executable's main module under dune's default alias) must stop the
     scan, not pass unchecked. *)
  match
    Lint_typed.scan ~root:build_root ~cmt_roots:[ "no-such-cmt-root" ] ~paths:[ fixtures ] ()
  with
  | _ -> Alcotest.fail "sources without a .cmt were skipped silently"
  | exception Lint_typed.Scan_error msg ->
      Alcotest.(check bool) "names the source" true
        (contains ~affix:"test/lint_fixtures_typed/bad_r6.ml" msg)

(* R8 over its fixture: r8_api.mli and the original of the variant it
   re-exports are the checked interfaces, r8_tests.ml the test code. *)
let test_r8_fixture () =
  let dir = fixtures ^ "/" in
  let expected =
    [
      (5, "value R8_api.test_value is reached only from");
      (8, "optional argument ?test_opt of R8_api.tune is reached only from");
      (11, "field R8_api.r.test_field is reached only from");
      (15, "constructor R8_api.Test_built is reached only from");
      (22, "value R8_api.stale is reached outside");
      (23, "value R8_api.blank has a [@ccsim.test_only] that requires a reason");
      (24, "value R8_api.orphan is reached by nothing");
    ]
  in
  Lint_typed.scan ~root:build_root ~cmt_roots:[ fixtures ] ~paths:[ fixtures ]
    ~api:[ dir ^ "r8_api.mli"; dir ^ "r8_base.mli" ]
    ~tests:[ dir ^ "r8_tests.ml" ] ()
  |> List.filter (fun (f : L.finding) -> String.equal f.rule "R8")
  |> List.filter (fun (f : L.finding) ->
         not (String.equal (Filename.basename f.file) "bad_allow.ml"))
  |> List.map (fun (f : L.finding) ->
         ( f.line,
           String.equal (Filename.basename f.file) "r8_api.mli"
           && List.exists (fun (l, what) -> l = f.line && contains ~affix:what f.message) expected
         ))
  |> Alcotest.(check (list (pair int bool)))
       "exact findings, none for the re-exported variant"
       (List.map (fun (l, _) -> (l, true)) expected)

let suite =
  [
    Alcotest.test_case "R1 fixture: exact findings" `Quick test_r1;
    Alcotest.test_case "R2 fixture: exact findings" `Quick test_r2;
    Alcotest.test_case "annotated fixture: silent" `Quick test_annotations_silence;
    Alcotest.test_case "R2: lib/runner is wall-clock exempt" `Quick test_r2_exemption;
    Alcotest.test_case "lint.allow: misuse is a finding" `Quick test_allow_misuse;
    Alcotest.test_case "lint.allow: a malformed payload stops the scan" `Quick
      test_allow_malformed;
    Alcotest.test_case "messages name the problem" `Quick test_messages_name_the_problem;
    Alcotest.test_case "json: shape and fields" `Quick test_json_shape;
    Alcotest.test_case "json: empty input" `Quick test_json_empty;
    Alcotest.test_case "R5 fixture: exact findings" `Quick test_r5_typed;
    Alcotest.test_case "R6 fixture: exact findings" `Quick test_r6_typed;
    Alcotest.test_case "R7 fixture: exact findings" `Quick test_r7_typed;
    Alcotest.test_case "typed twins: silent under escape hatches" `Quick
      test_typed_twins_silent;
    Alcotest.test_case "sarif: shape, descriptors, results" `Quick test_sarif_shape;
    Alcotest.test_case "repo tree: typed stage clean" `Quick test_repo_tree_typed_clean;
    Alcotest.test_case "repo tree: lint-clean under lint.allow" `Quick
      test_repo_tree_clean_under_allow;
    Alcotest.test_case "typed stage: a source without .cmt is reported" `Quick
      test_missing_cmt_reported;
    Alcotest.test_case "R8 fixture: exact findings" `Quick test_r8_fixture;
  ]
