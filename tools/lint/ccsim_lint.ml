(* ccsim-lint CLI: scan the given files/directories and fail on any
   finding that is neither annotated inline nor covered by a reviewed
   allowlist entry. Exit codes: 0 clean, 1 findings (or a stale or
   malformed allowlist), 2 usage/scan errors.

   Two stages share one finding stream, one allowlist, and one exit
   code: the parsetree pass (R1-R2) always runs over the sources; the
   typed pass runs when at least one --cmt-root is given. R5-R7 cover
   every compiled unit whose recorded source path falls under a scanned
   PATH; R8 checks the interfaces under lib/ against the uses in every
   unit under the cmt roots (uses from test/ are the tests'). *)

let usage () =
  prerr_endline
    "usage: ccsim_lint [--json] [--sarif OUT.json] [--allow FILE] [--cmt-root DIR]... PATH...\n\
     \n\
     Scans every .ml under each PATH for determinism and data-race\n\
     hazards (parse stage: R1 top-level mutable state, R2\n\
     nondeterminism) and, when --cmt-root is given, runs the typed\n\
     stage (R5 no-alloc-in-hot, R6 no-polymorphic-compare, R7 unit\n\
     inference) over the .cmt files found there whose source path\n\
     falls under a PATH, and R8 (test-only API) over the lib/\n\
     interfaces found there, against the uses under every root.\n\
     See tools/lint/RULES.md.\n\
     \n\
     \  --json           print findings as a JSON array on stdout\n\
     \  --sarif OUT.json also write findings as SARIF 2.1.0 to OUT.json\n\
     \  --allow FILE     reviewed exceptions (default: no allowlist)\n\
     \  --cmt-root DIR   directory to search for .cmt files (repeatable)\n\
     \  --source-root DIR extra prefix when resolving sources for\n\
     \                   comment-form suppression (repeatable, default .)";
  exit 2

let () =
  let json = ref false in
  let sarif_out = ref None in
  let allow_file = ref None in
  let cmt_roots = ref [] in
  let source_roots = ref [] in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--sarif" :: out :: rest ->
        sarif_out := Some out;
        parse rest
    | "--allow" :: file :: rest ->
        allow_file := Some file;
        parse rest
    | "--cmt-root" :: dir :: rest ->
        cmt_roots := dir :: !cmt_roots;
        parse rest
    | "--source-root" :: dir :: rest ->
        source_roots := dir :: !source_roots;
        parse rest
    | ("--help" | "-h" | "--allow" | "--sarif" | "--cmt-root" | "--source-root") :: _ ->
        usage ()
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Printf.eprintf "ccsim_lint: unknown option %s\n" arg;
        usage ()
    | path :: rest ->
        paths := path :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !paths with [] -> usage () | _ -> ());
  let paths = List.rev !paths in
  match
    let entries =
      match !allow_file with None -> [] | Some f -> Lint_core.load_allowlist f
    in
    let parse_findings = Lint_core.scan_paths paths in
    let typed_findings =
      match List.rev !cmt_roots with
      | [] -> []
      | cmt_roots ->
          let source_roots =
            match List.rev !source_roots with [] -> [ "." ] | roots -> roots
          in
          Lint_typed.scan ~source_roots ~cmt_roots ~paths ()
    in
    let findings =
      List.sort Lint_core.compare_finding (parse_findings @ typed_findings)
    in
    Lint_core.apply_allowlist entries findings
  with
  | exception Lint_core.Malformed_allow msg ->
      Printf.eprintf "ccsim_lint: malformed allowlist: %s\n" msg;
      exit 1
  | exception Lint_core.Scan_error msg ->
      Printf.eprintf "ccsim_lint: %s\n" msg;
      exit 2
  | findings, stale ->
      if !json then print_string (Lint_core.render_json findings)
      else List.iter (fun f -> print_endline (Lint_core.render_finding f)) findings;
      (match !sarif_out with
      | None -> ()
      | Some out ->
          let oc = open_out out in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc (Lint_core.render_sarif findings)));
      List.iter
        (fun (e : Lint_core.allow_entry) ->
          Printf.eprintf
            "ccsim_lint: stale allowlist entry (line %d): %s %s matches no finding -- delete it\n"
            e.a_line e.a_rule e.a_path)
        stale;
      let has_findings = match findings with [] -> false | _ -> true in
      let has_stale = match stale with [] -> false | _ -> true in
      if has_findings then
        Printf.eprintf "ccsim_lint: %d finding(s); fix them or add a justified lint.allow entry\n"
          (List.length findings);
      exit (if has_findings || has_stale then 1 else 0)
