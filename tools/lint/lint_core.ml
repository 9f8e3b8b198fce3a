(* ccsim-lint: determinism & data-race static analysis over the
   simulator sources.

   The reproduction rests on two invariants the type system cannot see:
   every experiment is bit-deterministic (runner cache digests and the
   offline `analyze` agreement both depend on it), and nothing shares
   mutable state across the Ccsim_runner domain pool. This pass makes
   the PR 1 hand audit machine-checked:

   R1  top-level mutable state (ref / Hashtbl.create / arrays / queues /
       buffers at module scope) must be Atomic.t, Domain.DLS-keyed, or
       carry an explicit (* lint: domain-local *) annotation or a
       lint.allow entry -- the domain-pool race detector.
   R2  nondeterminism sources in sim code: Random.*, wall-clock reads
       (Unix.gettimeofday / Unix.time / Sys.time / ...) and host-GC
       reads (Gc.stat / quick_stat / counters / ...) outside
       lib/runner and lib/obs, and order-dependent Hashtbl.iter/fold.

   The walk is a parsetree pass (no type information): both rules key
   on names, not types, so they need no build. Float equality and unit
   mixing need types and live in the typed stage (Lint_typed R6/R7).
   Every finding can be suppressed by an inline annotation or a
   reviewed lint.allow entry carrying a justification. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
  stage : string;
}

let compare_finding a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
      | c -> c)
  | c -> c

(* ------------------------------------------------------------------ *)
(* Allowlist: one reviewed exception per line, `RULE PATH JUSTIFICATION`.
   The justification is mandatory -- an entry without one is itself an
   error, as is an entry that no longer matches any finding (stale). *)

type allow_entry = {
  a_rule : string;
  a_path : string;
  a_justification : string;
  a_line : int;
}

exception Malformed_allow of string

let parse_allow_line ~line_no line =
  let trimmed = String.trim line in
  if String.equal trimmed "" || trimmed.[0] = '#' then None
  else
    match String.split_on_char ' ' trimmed with
    | rule :: path :: rest when (match rest with [] -> false | _ :: _ -> true) ->
        let justification = String.trim (String.concat " " rest) in
        if String.equal justification "" then
          raise
            (Malformed_allow
               (Printf.sprintf "line %d: missing justification for %s %s" line_no rule path))
        else if String.equal rule "R8" then
          (* One file-wide entry would hide every future export. *)
          raise
            (Malformed_allow
               (Printf.sprintf
                  "line %d: R8 cannot be allowlisted; mark the declaration [@@ccsim.test_only \"why\"]"
                  line_no))
        else Some { a_rule = rule; a_path = path; a_justification = justification; a_line = line_no }
    | _ ->
        raise
          (Malformed_allow
             (Printf.sprintf "line %d: expected `RULE PATH JUSTIFICATION...`, got %S" line_no
                trimmed))

let load_allowlist path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let entries = ref [] in
    let line_no = ref 0 in
    (try
       while true do
         incr line_no;
         let line = input_line ic in
         match parse_allow_line ~line_no:!line_no line with
         | Some e -> entries := e :: !entries
         | None -> ()
       done
     with End_of_file -> close_in ic);
    List.rev !entries
  end

(* ------------------------------------------------------------------ *)
(* Inline annotations. The parser drops comments, so suppressions are
   recovered from the raw source text: an annotation on line L covers
   findings on lines L and L+1 (comment-above or comment-at-end-of-line
   styles both work).

     (* lint: domain-local *)      suppresses R1
     (* lint: allow R2 R7 *)       suppresses the listed rules *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
  go 0

let rules_of_annotation line =
  let rules = if contains ~needle:"lint: domain-local" line then [ "R1" ] else [] in
  if not (contains ~needle:"lint: allow" line) then rules
  else begin
    (* Take every R<digits> token after the marker. *)
    let idx =
      let nl = String.length "lint: allow" and hl = String.length line in
      let rec go i = if i + nl > hl then hl else if String.equal (String.sub line i nl) "lint: allow" then i + nl else go (i + 1) in
      go 0
    in
    let tail = String.sub line idx (String.length line - idx) in
    let tokens =
      String.split_on_char ' ' (String.map (fun c -> if c = '*' || c = ')' || c = ',' then ' ' else c) tail)
    in
    let explicit =
      List.filter
        (fun t ->
          String.length t >= 2
          && t.[0] = 'R'
          && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub t 1 (String.length t - 1)))
        tokens
    in
    rules @ explicit
  end

(* Attribute-based suppression: [@lint.allow R5 R6] on an expression or
   value binding suppresses the listed rules over the whole source span
   of the annotated node — the escape hatch for multi-line functions,
   where the comment form's L/L+1 window would need stacking. The
   payload is scanned structurally for R<digits> tokens, so `R5`,
   `R5 R6`, and `(R5, R6)` all parse. Shared with the typed stage
   (Typedtree nodes carry the same Parsetree attributes). *)

let is_rule_token t =
  String.length t >= 2
  && t.[0] = 'R'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub t 1 (String.length t - 1))

let rules_of_allow_payload (payload : Parsetree.payload) =
  let acc = ref [] in
  let note = function
    | Longident.Lident t when is_rule_token t -> acc := t :: !acc
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ } | Parsetree.Pexp_construct ({ txt; _ }, _) ->
              note txt
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  (match payload with
  | Parsetree.PStr str -> it.Ast_iterator.structure it str
  | _ -> ());
  List.rev !acc

let rules_of_allow_attrs (attrs : Parsetree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if String.equal a.attr_name.txt "lint.allow" then rules_of_allow_payload a.attr_payload else [])
    attrs

(* (rule, first_line, last_line) regions from [@lint.allow ...] attrs. *)
type allow_region = { r_rule : string; r_first : int; r_last : int }

let region_of_loc rules (loc : Location.t) =
  let first = loc.loc_start.Lexing.pos_lnum and last = loc.loc_end.Lexing.pos_lnum in
  List.map (fun r -> { r_rule = r; r_first = first; r_last = last }) rules

let allow_regions_of_structure str =
  let regions = ref [] in
  let note rules loc = regions := region_of_loc rules loc @ !regions in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun self e ->
          (match rules_of_allow_attrs e.Parsetree.pexp_attributes with
          | [] -> ()
          | rules -> note rules e.Parsetree.pexp_loc);
          default.expr self e);
      value_binding =
        (fun self vb ->
          (match rules_of_allow_attrs vb.Parsetree.pvb_attributes with
          | [] -> ()
          | rules -> note rules vb.Parsetree.pvb_loc);
          default.value_binding self vb);
    }
  in
  it.Ast_iterator.structure it str;
  !regions

let region_suppresses regions (f : finding) =
  List.exists
    (fun r -> String.equal r.r_rule f.rule && f.line >= r.r_first && f.line <= r.r_last)
    regions

(* Map line number -> rules suppressed on that line. *)
let suppressions_of_source src =
  let table = Hashtbl.create 8 in
  let add line rule = Hashtbl.replace table (line, rule) () in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i line ->
      let l = i + 1 in
      List.iter
        (fun rule ->
          add l rule;
          add (l + 1) rule)
        (rules_of_annotation line))
    lines;
  table

(* ------------------------------------------------------------------ *)
(* AST helpers *)

open Parsetree

let pos_of loc =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let last_component lid = match List.rev (Longident.flatten lid) with [] -> "" | x :: _ -> x

let has_component name lid = List.mem name (Longident.flatten lid)

(* The final expression a top-level binding evaluates to, looking
   through let/open/sequence/constraint wrappers:
   `let t = let h = Hashtbl.create 4 in h` is still module state. *)
let rec binding_head e =
  match e.pexp_desc with
  | Pexp_let (_, _, body) -> binding_head body
  | Pexp_open (_, body) -> binding_head body
  | Pexp_sequence (_, body) -> binding_head body
  | Pexp_constraint (e, _) -> binding_head e
  | _ -> e

(* Constructors of shared-mutable values at module scope. Atomic.make
   and Domain.DLS.new_key are the sanctioned alternatives and exempt. *)
let mutable_constructor e =
  match e.pexp_desc with
  | Pexp_array _ -> Some "array literal"
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match Longident.flatten txt with
      | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref"
      | [ "Hashtbl"; "create" ] | [ "Stdlib"; "Hashtbl"; "create" ] -> Some "Hashtbl.create"
      | [ "Array"; ("make" | "init" | "create_float" | "of_list" | "copy") ]
      | [ "Stdlib"; "Array"; ("make" | "init" | "create_float" | "of_list" | "copy") ] ->
          Some "Array allocation"
      | [ "Queue"; "create" ] -> Some "Queue.create"
      | [ "Stack"; "create" ] -> Some "Stack.create"
      | [ "Buffer"; "create" ] -> Some "Buffer.create"
      | [ "Bytes"; ("create" | "make" | "of_string") ] -> Some "Bytes allocation"
      | _ -> None)
  | _ -> None

(* Longidents whose mere use is a nondeterminism source (R2). *)
let wall_clock_ident lid =
  match Longident.flatten lid with
  | [ "Unix"; ("gettimeofday" | "time" | "localtime" | "gmtime" | "mktime") ] ->
      Some ("Unix." ^ last_component lid)
  | [ "Sys"; "time" ] -> Some "Sys.time"
  | _ -> None

(* Host-GC state reads (R2, same exemption as the wall clock): the
   counters depend on allocator behaviour, heap state and compaction
   history, so any simulated quantity derived from one is
   host-dependent. Ccsim_obs.Profile.gc_sample is the sanctioned choke
   point (lib/obs is exempt). *)
let gc_read_ident lid =
  match Longident.flatten lid with
  | [ "Gc"; (("stat" | "quick_stat" | "counters" | "minor_words" | "allocated_bytes") as fn) ]
    ->
      Some ("Gc." ^ fn)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The per-file scan *)

type context = {
  file : string;  (* path as reported in findings *)
  wall_clock_exempt : bool;  (* lib/runner + lib/obs may read the clock *)
  mutable findings : finding list;
}

let emit ctx loc rule message =
  let line, col = pos_of loc in
  ctx.findings <-
    ({ file = ctx.file; line; col; rule; message; stage = "parse" } : finding) :: ctx.findings

let check_expr ctx e =
  (* Uses are checked on the bare ident: the iterator visits the callee
     of every application, so applications are covered without double
     counting. *)
  match e.pexp_desc with
  | Pexp_ident { txt; loc } -> (
      (if has_component "Random" txt then
         emit ctx loc "R2"
           (Printf.sprintf
              "nondeterminism: %s uses the global Random; use the seeded per-sim Ccsim_util.Rng instead"
              (String.concat "." (Longident.flatten txt))));
      (match wall_clock_ident txt with
      | Some name when not ctx.wall_clock_exempt ->
          emit ctx loc "R2"
            (Printf.sprintf
               "nondeterminism: wall-clock read %s outside lib/runner telemetry and lib/obs \
                profiling; route through Ccsim_runner.Telemetry.now_s or Ccsim_obs.Profile.wall_now"
               name)
      | Some _ | None -> ());
      (match gc_read_ident txt with
      | Some name when not ctx.wall_clock_exempt ->
          emit ctx loc "R2"
            (Printf.sprintf
               "nondeterminism: host-GC read %s outside lib/runner and lib/obs; route \
                allocation measurement through Ccsim_obs.Profile.gc_sample"
               name)
      | Some _ | None -> ());
      match Longident.flatten txt with
      | [ "Hashtbl"; (("iter" | "fold") as op) ] ->
          emit ctx loc "R2"
            (Printf.sprintf
               "nondeterminism: Hashtbl.%s visits bindings in hash order; iterate a deterministic \
                key list (or sort, then allowlist with a justification)"
               op)
      | _ -> ())
  | _ -> ()

let expr_iterator ctx =
  let default = Ast_iterator.default_iterator in
  {
    default with
    expr =
      (fun self e ->
        check_expr ctx e;
        default.expr self e);
  }

(* R1: walk structure items, descending into plain sub-modules (their
   bindings are just as module-global) but not into expressions --
   locals inside functions are per-call and safe. *)
let rec check_structure_r1 ctx str =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          List.iter
            (fun vb ->
              let head = binding_head vb.pvb_expr in
              match mutable_constructor head with
              | Some what ->
                  let name =
                    match vb.pvb_pat.ppat_desc with
                    | Ppat_var { txt; _ } -> txt
                    | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> txt
                    | _ -> "_"
                  in
                  emit ctx vb.pvb_pat.ppat_loc "R1"
                    (Printf.sprintf
                       "top-level mutable state: %S is a %s at module scope and races under the \
                        runner domain pool; make it Atomic.t, Domain.DLS-keyed, per-instance \
                        state, or annotate (* lint: domain-local *) with care"
                       name what)
              | None -> ())
            bindings
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
          check_structure_r1 ctx sub
      | _ -> ())
    str

let scan_source ~file ?(wall_clock_exempt = false) src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  let str = Parse.implementation lexbuf in
  let ctx = { file; wall_clock_exempt; findings = [] } in
  check_structure_r1 ctx str;
  let it = expr_iterator ctx in
  it.Ast_iterator.structure it str;
  let suppressed = suppressions_of_source src in
  let regions = allow_regions_of_structure str in
  let findings =
    List.filter
      (fun (f : finding) ->
        (not (Hashtbl.mem suppressed (f.line, f.rule))) && not (region_suppresses regions f))
      ctx.findings
  in
  List.sort_uniq compare_finding findings

(* Directories whose files may read the wall clock (R2 exemption): run
   telemetry and engine profiling are about the host, not the sim. *)
let wall_clock_exempt_dirs = [ "lib/runner"; "lib/obs" ]

let normalize path =
  String.concat "/" (List.filter (fun c -> not (String.equal c "") && not (String.equal c ".")) (String.split_on_char '/' path))

(* Exemption is by repo-relative directory, so leading parent segments
   (a scan rooted above the repo, as the test suite does) are ignored. *)
let is_exempt path =
  let rec strip = function ".." :: rest -> strip rest | segs -> segs in
  let p = String.concat "/" (strip (String.split_on_char '/' (normalize path))) in
  List.exists
    (fun dir ->
      let dl = String.length dir in
      String.length p > dl && String.equal (String.sub p 0 dl) dir && p.[dl] = '/')
    wall_clock_exempt_dirs

exception Scan_error of string

let scan_file path =
  let src =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg -> raise (Scan_error msg)
  in
  try scan_source ~file:(normalize path) ~wall_clock_exempt:(is_exempt path) src
  with exn -> (
    match Location.error_of_exn exn with
    | Some (`Ok _) | Some `Already_displayed ->
        raise (Scan_error (Printf.sprintf "%s: syntax error" path))
    | None -> raise exn)

let rec ml_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> ml_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let scan_paths paths =
  let files = List.concat_map ml_files_under paths in
  List.sort compare_finding (List.concat_map scan_file files)

(* ------------------------------------------------------------------ *)
(* Applying the allowlist: an entry matches every finding of its rule in
   its file. Returns surviving findings plus entries that matched
   nothing (stale -- reported so the file cannot rot). *)

let apply_allowlist entries findings =
  let used = Hashtbl.create 8 in
  let survives (f : finding) =
    match
      List.find_opt (fun e -> String.equal e.a_rule f.rule && String.equal (normalize e.a_path) f.file) entries
    with
    | Some e ->
        Hashtbl.replace used (e.a_rule, e.a_path) ();
        false
    | None -> true
  in
  let kept = List.filter survives findings in
  let stale = List.filter (fun e -> not (Hashtbl.mem used (e.a_rule, e.a_path))) entries in
  (kept, stale)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let render_finding (f : finding) =
  Printf.sprintf "%s:%d:%d [%s] %s" f.file f.line f.col f.rule f.message

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_json findings =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i (f : finding) ->
      if i > 0 then Buffer.add_string buf ",";
      Printf.bprintf buf
        "\n  {\"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \"%s\", \"stage\": \"%s\", \
         \"message\": \"%s\"}"
        (json_escape f.file) f.line f.col f.rule (json_escape f.stage) (json_escape f.message))
    findings;
  if (match findings with [] -> false | _ :: _ -> true) then Buffer.add_string buf "\n";
  Buffer.add_string buf "]\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* SARIF 2.1.0 export: one run, one rule descriptor per catalogue entry,
   results referencing rules by id so GitHub code scanning annotates
   PRs. Columns are 1-based in SARIF; findings carry 0-based columns as
   compiler diagnostics do, hence the +1. *)

let rule_catalogue =
  [
    ("R1", "parse", "top-level mutable state",
     "Module-level mutable storage races under the runner domain pool; use Atomic.t, \
      Domain.DLS, or per-instance state.");
    ("R2", "parse", "nondeterminism sources",
     "Global Random, wall-clock or host-GC reads outside lib/runner and lib/obs, and \
      hash-order Hashtbl.iter/fold break bit-determinism.");
    ("R5", "typed", "allocation in [@ccsim.hot] code",
     "Functions annotated [@ccsim.hot] and everything they contain must not allocate: \
      closures, tuples, records, variants, strings, partial applications, allocating \
      stdlib calls. Escape hatch: [@ccsim.alloc_ok \"why\"].");
    ("R6", "typed", "polymorphic comparison at a non-immediate type",
     "Stdlib.(=)/(<>)/compare/min/max/Hashtbl.hash instantiated at a type other than \
      int/bool/char/unit walks memory generically: slow in the DES inner loop and wrong \
      on floats (nan) and cyclic values. Use the monomorphic comparison of the type \
      (for floats, Float.equal or Ccsim_util.Feq.feq ~eps).");
    ("R7", "typed", "unit mismatch (dimensional analysis)",
     "Units inferred from name suffixes and propagated through arithmetic disagree \
      across +/-/comparison/min/max. * and / combine dimensions. Two suffixed names \
      of one dimension must also agree in scale (_s vs _ms, _bps vs _mbps).");
    ("R8", "typed", "test-only API",
     "A value, record field, optional argument or variant constructor exported by a \
      lib/ interface that nothing outside test/ uses (a field read, a constructor \
      built, an optional argument passed). Delete it, or keep it for the tests with \
      [@ccsim.test_only \"why\"] on its declaration; lint.allow cannot silence R8.");
  ]

let render_sarif findings =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "{\n\
    \  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n\
    \  \"version\": \"2.1.0\",\n\
    \  \"runs\": [\n\
    \    {\n\
    \      \"tool\": {\n\
    \        \"driver\": {\n\
    \          \"name\": \"ccsim-lint\",\n\
    \          \"informationUri\": \"tools/lint/RULES.md\",\n\
    \          \"rules\": [\n";
  List.iteri
    (fun i (id, stage, name, help) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "            {\"id\": \"%s\", \"name\": \"%s\", \"shortDescription\": {\"text\": \
         \"%s\"}, \"fullDescription\": {\"text\": \"%s\"}, \"properties\": {\"stage\": \
         \"%s\"}}"
        id id (json_escape name) (json_escape help) stage)
    rule_catalogue;
  Buffer.add_string buf "\n          ]\n        }\n      },\n      \"results\": [";
  (match findings with [] -> () | _ :: _ -> Buffer.add_string buf "\n");
  List.iteri
    (fun i (f : finding) ->
      if i > 0 then Buffer.add_string buf ",\n";
      let rule_index =
        let rec idx n = function
          | [] -> -1
          | (id, _, _, _) :: rest -> if String.equal id f.rule then n else idx (n + 1) rest
        in
        idx 0 rule_catalogue
      in
      Printf.bprintf buf
        "        {\"ruleId\": \"%s\", \"ruleIndex\": %d, \"level\": \"error\", \
         \"message\": {\"text\": \"%s\"}, \"locations\": [{\"physicalLocation\": \
         {\"artifactLocation\": {\"uri\": \"%s\"}, \"region\": {\"startLine\": %d, \
         \"startColumn\": %d}}}]}"
        f.rule rule_index (json_escape f.message) (json_escape f.file) f.line (f.col + 1))
    findings;
  (match findings with
  | [] -> Buffer.add_string buf "]\n    }\n  ]\n}\n"
  | _ :: _ -> Buffer.add_string buf "\n      ]\n    }\n  ]\n}\n");
  Buffer.contents buf
