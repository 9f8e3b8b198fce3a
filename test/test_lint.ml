(* ccsim-lint: each fixture under lint_fixtures/ must produce exactly
   the findings its name promises — one file per rule, plus an
   annotated file the linter must stay silent on — and the allowlist
   machinery must suppress, report stale entries, and reject entries
   without a justification. *)

module L = Lint_core

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let drop_prefix ~prefix s =
  let n = String.length prefix in
  if String.length s >= n && String.sub s 0 n = prefix then
    Some (String.sub s n (String.length s - n))
  else None

(* Under `dune runtest` the cwd is the test directory; under
   `dune exec test/test_main.exe` it is wherever the caller stood.
   Resolve both the fixture dir and the repo root by probing. *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let fixture name = Filename.concat fixture_dir name

let repo_root = if Sys.file_exists "lint.allow" then "." else "../../.."

let summarize findings =
  List.map (fun (f : L.finding) -> (f.rule, f.line, f.col)) findings

let check_fixture ~name ~expected () =
  let found = summarize (L.scan_file (fixture name)) in
  Alcotest.(check (list (triple string int int))) name expected found

let test_r1 =
  check_fixture ~name:"bad_r1_global_mutable.ml"
    ~expected:[ ("R1", 4, 4); ("R1", 5, 4); ("R1", 6, 4) ]

let test_r2 =
  check_fixture ~name:"bad_r2_nondeterminism.ml"
    ~expected:[ ("R2", 4, 16); ("R2", 6, 15); ("R2", 8, 17); ("R2", 10, 20) ]

let test_annotations_silence = check_fixture ~name:"ok_annotated.ml" ~expected:[]

let test_r2_exemption () =
  (* The same wall-clock read is a finding in engine code and exempt in
     telemetry/profiling code. *)
  let source = "let t0 = Unix.gettimeofday ()\n" in
  let in_engine = L.scan_source ~file:"lib/engine/x.ml" source in
  let in_runner = L.scan_source ~file:"lib/runner/x.ml" ~wall_clock_exempt:true source in
  Alcotest.(check int) "flagged in lib/engine" 1 (List.length in_engine);
  Alcotest.(check int) "exempt in lib/runner" 0 (List.length in_runner)

let test_json_shape () =
  let findings = L.scan_file (fixture "bad_r2_nondeterminism.ml") in
  let json = L.render_json findings in
  let has affix = contains ~affix json in
  Alcotest.(check bool) "is an array" true
    (String.length json > 1 && json.[0] = '[');
  List.iter
    (fun field -> Alcotest.(check bool) ("has " ^ field) true (has ("\"" ^ field ^ "\": ")))
    [ "file"; "line"; "col"; "rule"; "stage"; "message" ];
  Alcotest.(check bool) "parse findings say so" true (has "\"stage\": \"parse\"");
  Alcotest.(check bool) "carries the path" true (has (fixture "bad_r2_nondeterminism.ml"));
  Alcotest.(check bool) "carries the rule" true (has "\"rule\": \"R2\"")

let test_json_empty () = Alcotest.(check string) "empty array" "[]\n" (L.render_json [])

let test_allowlist_suppresses () =
  let entry =
    {
      L.a_rule = "R1";
      a_path = fixture "bad_r1_global_mutable.ml";
      a_justification = "fixture";
      a_line = 1;
    }
  in
  let findings = L.scan_file (fixture "bad_r1_global_mutable.ml") in
  let kept, stale = L.apply_allowlist [ entry ] findings in
  Alcotest.(check int) "all R1 findings suppressed" 0 (List.length kept);
  Alcotest.(check int) "entry is live" 0 (List.length stale);
  (* The same entry against another rule's findings is stale. *)
  let other = L.scan_file (fixture "bad_r2_nondeterminism.ml") in
  let kept, stale = L.apply_allowlist [ entry ] other in
  Alcotest.(check int) "R2 findings survive" 4 (List.length kept);
  Alcotest.(check int) "entry reported stale" 1 (List.length stale)

let with_temp_allow contents f =
  let path = Filename.temp_file "lint_allow" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_allowlist_parses () =
  with_temp_allow
    "# comment\n\nR1 lib/app/video.ml constant ladder, never mutated\n"
    (fun path ->
      match L.load_allowlist path with
      | [ e ] ->
          Alcotest.(check string) "rule" "R1" e.L.a_rule;
          Alcotest.(check string) "path" "lib/app/video.ml" e.L.a_path;
          Alcotest.(check string) "justification" "constant ladder, never mutated"
            e.L.a_justification
      | es -> Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length es)))

let test_allowlist_requires_justification () =
  with_temp_allow "R1 lib/app/video.ml\n" (fun path ->
      Alcotest.check_raises "bare entry rejected"
        (L.Malformed_allow
           "line 1: expected `RULE PATH JUSTIFICATION...`, got \"R1 lib/app/video.ml\"")
        (fun () -> ignore (L.load_allowlist path)))

let test_repo_tree_is_clean () =
  (* The committed allowlist must cover the whole tree with no stale
     entries — the same invariant `dune build @lint` gates CI on. *)
  let in_root p = if repo_root = "." then p else Filename.concat repo_root p in
  let findings =
    L.scan_paths [ in_root "lib"; in_root "bin" ]
    |> List.map (fun (f : L.finding) ->
           match drop_prefix ~prefix:(repo_root ^ "/") f.file with
           | Some rest -> { f with L.file = rest }
           | None -> f)
  in
  let allow = L.load_allowlist (in_root "lint.allow") in
  let kept, stale = L.apply_allowlist allow findings in
  Alcotest.(check (list string)) "no findings"
    [] (List.map L.render_finding kept);
  Alcotest.(check (list string)) "no stale allow entries"
    [] (List.map (fun e -> e.L.a_path) stale);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s entry for %s is justified" e.L.a_rule e.L.a_path)
        true
        (String.length e.L.a_justification > 10))
    allow

(* Typed-stage fixtures (R5-R7): lint_fixtures_typed/ is a compiled
   library, so its .cmt files sit next to the copied sources in the
   build tree. Resolve the cmt root and the source root (for
   comment-form suppression recovery) from either cwd, as above. *)
let typed_cmt_root, typed_source_root =
  if Sys.file_exists "lint_fixtures_typed" then ("lint_fixtures_typed", "..")
  else ("_build/default/test/lint_fixtures_typed", ".")

let typed_findings =
  lazy
    (Lint_typed.scan
       ~source_roots:[ typed_source_root ]
       ~cmt_roots:[ typed_cmt_root ]
       ~paths:[ "test/lint_fixtures_typed" ] ())

let typed_for name =
  List.filter
    (fun (f : L.finding) ->
      String.equal f.L.file ("test/lint_fixtures_typed/" ^ name))
    (Lazy.force typed_findings)

let check_typed ~name ~expected () =
  Alcotest.(check (list (triple string int int))) name expected (summarize (typed_for name))

let test_r5_typed =
  check_typed ~name:"bad_r5.ml"
    ~expected:[ ("R5", 8, 12); ("R5", 10, 32); ("R5", 12, 25) ]

(* Lines 15 and 17 are float = / <> that only the types reveal: the
   operands carry no annotation. *)
let test_r6_typed =
  check_typed ~name:"bad_r6.ml"
    ~expected:[ ("R6", 6, 43); ("R6", 8, 41); ("R6", 10, 40); ("R6", 15, 32); ("R6", 17, 37) ]

(* Lines 5 and 7 mix dimensions directly, line 10 through a let binding;
   lines 13 and 15 mix scales of one dimension (_s vs _ms, _bps vs
   _mbps). *)
let test_r7_typed =
  check_typed ~name:"bad_r7.ml"
    ~expected:
      [ ("R7", 5, 55); ("R7", 7, 66); ("R7", 10, 6); ("R7", 13, 54); ("R7", 15, 62) ]

let test_typed_twins_silent () =
  (* Each bad fixture has an ok twin carrying the documented escape
     hatch — [@ccsim.alloc_ok "why"], [@lint.allow R6], and the
     comment-form annotation respectively. All must be silent. *)
  List.iter
    (fun name ->
      Alcotest.(check (list (triple string int int))) name [] (summarize (typed_for name)))
    [ "ok_r5.ml"; "ok_r6.ml"; "ok_r7.ml" ]

let test_typed_stage_field () =
  let fs = Lazy.force typed_findings in
  Alcotest.(check bool) "typed fixtures produced findings" true (fs <> []);
  List.iter
    (fun (f : L.finding) ->
      Alcotest.(check string)
        (Printf.sprintf "%s:%d stage" f.L.file f.L.line)
        "typed" f.L.stage)
    fs

let test_messages_name_the_problem () =
  let msgs_of findings = List.map (fun (f : L.finding) -> f.message) findings in
  (match msgs_of (L.scan_file (fixture "bad_r1_global_mutable.ml")) with
  | m :: _ ->
      Alcotest.(check bool) "R1 names the binding" true (contains ~affix:"\"hit_count\"" m)
  | [] -> Alcotest.fail "no R1 findings");
  let r7 = msgs_of (typed_for "bad_r7.ml") in
  List.iter
    (fun pair ->
      Alcotest.(check bool) ("R7 names " ^ pair) true (List.exists (contains ~affix:pair) r7))
    [ "_s vs _ms"; "_bps vs _mbps" ]

let test_sarif_shape () =
  let findings = L.scan_file (fixture "bad_r2_nondeterminism.ml") @ typed_for "bad_r5.ml" in
  let sarif = L.render_sarif findings in
  let has affix = contains ~affix sarif in
  Alcotest.(check bool) "declares 2.1.0" true (has "\"version\": \"2.1.0\"");
  Alcotest.(check bool) "points at the 2.1.0 schema" true (has "sarif-schema-2.1.0.json");
  Alcotest.(check bool) "driver is ccsim-lint" true (has "\"name\": \"ccsim-lint\"");
  (* Every rule in the catalogue is described, findings or not... *)
  List.iter
    (fun r ->
      Alcotest.(check bool) ("descriptor for " ^ r) true (has ("{\"id\": \"" ^ r ^ "\"")))
    [ "R1"; "R2"; "R5"; "R6"; "R7" ];
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

let test_repo_tree_typed_clean () =
  (* The typed rules must hold over the whole tree with only in-source
     escape hatches — there are no typed entries in lint.allow, so the
     scan itself must come back empty. Mirrors `dune build @lint`. *)
  (* The .cmt files live in the build context, not the source tree:
     resolve its root the same way as the fixture cmt root above. *)
  let build_root =
    if Sys.file_exists "lint_fixtures_typed" then ".." else "_build/default"
  in
  let roots =
    List.map (Filename.concat build_root) [ "lib"; "bin"; "tools" ]
  in
  let findings =
    Lint_typed.scan ~source_roots:[ build_root ] ~cmt_roots:roots
      ~paths:[ "lib"; "bin"; "tools" ] ()
  in
  Alcotest.(check (list string)) "typed stage: no findings"
    [] (List.map L.render_finding findings)

let suite =
  [
    Alcotest.test_case "R1 fixture: exact findings" `Quick test_r1;
    Alcotest.test_case "R2 fixture: exact findings" `Quick test_r2;
    Alcotest.test_case "annotated fixture: silent" `Quick test_annotations_silence;
    Alcotest.test_case "R2: lib/runner is wall-clock exempt" `Quick test_r2_exemption;
    Alcotest.test_case "messages name the problem" `Quick test_messages_name_the_problem;
    Alcotest.test_case "json: shape and fields" `Quick test_json_shape;
    Alcotest.test_case "json: empty input" `Quick test_json_empty;
    Alcotest.test_case "allowlist: suppresses and reports stale" `Quick test_allowlist_suppresses;
    Alcotest.test_case "allowlist: parses rule/path/justification" `Quick test_allowlist_parses;
    Alcotest.test_case "allowlist: justification mandatory" `Quick
      test_allowlist_requires_justification;
    Alcotest.test_case "repo tree: lint-clean under lint.allow" `Quick test_repo_tree_is_clean;
    Alcotest.test_case "R5 fixture: exact findings" `Quick test_r5_typed;
    Alcotest.test_case "R6 fixture: exact findings" `Quick test_r6_typed;
    Alcotest.test_case "R7 fixture: exact findings" `Quick test_r7_typed;
    Alcotest.test_case "typed twins: silent under escape hatches" `Quick
      test_typed_twins_silent;
    Alcotest.test_case "typed findings carry stage = typed" `Quick test_typed_stage_field;
    Alcotest.test_case "sarif: shape, descriptors, results" `Quick test_sarif_shape;
    Alcotest.test_case "repo tree: typed stage clean" `Quick test_repo_tree_typed_clean;
  ]
