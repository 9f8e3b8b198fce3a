(* ccsim-lint CLI: lint the repository in a build context and fail on
   any finding. Exit codes: 0 clean, 1 findings, 2 usage/scan errors.

   ROOT is the build context: the directory where dune keeps its copies
   of the sources next to the .cmt files the check alias writes. The
   @lint rule runs there, so ROOT defaults to "."; from the repository
   root it is _build/default. What gets scanned is fixed
   (Lint_typed.scan_tree), so every caller lints the same tree. *)

let usage () =
  prerr_endline
    "usage: ccsim_lint [--json] [--sarif OUT.json] [ROOT]\n\
     \n\
     Lints the simulator in the build context ROOT (default: ., where\n\
     `dune build @lint` runs it; from the repository root, run `dune\n\
     build @check` and pass _build/default). R1 top-level mutable\n\
     state, R2 nondeterminism, R5 no-alloc-in-hot, R6\n\
     no-polymorphic-compare and R7 unit inference scan every .ml under\n\
     lib, bin and tools; R8 (test-only API) checks lib's interfaces\n\
     against the callers there and under test, ccbench and examples.\n\
     See tools/lint/RULES.md.\n\
     \n\
     \  --json           print findings as a JSON array on stdout\n\
     \  --sarif OUT.json also write findings as SARIF 2.1.0 to OUT.json";
  exit 2

let () =
  let json = ref false in
  let sarif_out = ref None in
  let root = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--sarif" :: out :: rest ->
        sarif_out := Some out;
        parse rest
    | ("--help" | "-h" | "--sarif") :: _ -> usage ()
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Printf.eprintf "ccsim_lint: unknown option %s\n" arg;
        usage ()
    | dir :: rest when Option.is_none !root ->
        root := Some dir;
        parse rest
    | _ :: _ ->
        prerr_endline "ccsim_lint: at most one ROOT";
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match Lint_typed.scan_tree (Option.value !root ~default:".") with
  | exception Lint_typed.Scan_error msg ->
      Printf.eprintf "ccsim_lint: %s\n" msg;
      exit 2
  | findings ->
      if !json then print_string (Lint_core.render_json findings)
      else List.iter (fun f -> print_endline (Lint_core.render_finding f)) findings;
      (match !sarif_out with
      | None -> ()
      | Some out ->
          let oc = open_out out in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc (Lint_core.render_sarif findings)));
      let n = List.length findings in
      if n > 0 then
        Printf.eprintf
          "ccsim_lint: %d finding(s); fix them, or see tools/lint/RULES.md for each rule's escape \
           hatch\n"
          n;
      exit (if n > 0 then 1 else 0)
