(* ccsim-lint findings and their renderers.

   The reproduction rests on two invariants the type system cannot see:
   every experiment is bit-deterministic (runner cache digests and the
   offline `analyze` agreement both depend on it), and nothing shares
   mutable state across the Ccsim_runner domain pool. Lint_typed checks
   them, with the allocation, comparison, unit and test-only-API rules,
   over the typedtree of every .cmt the build writes. This module holds
   what the rules report: the finding, its output order, the rule
   catalogue, and the three renderers (text, JSON, SARIF). *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
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
        "\n  {\"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \"%s\", \"message\": \"%s\"}"
        (json_escape f.file) f.line f.col f.rule (json_escape f.message))
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
    ("R1", "top-level mutable state",
     "A top-level value, in a plain sub-module too, of type ref, array, Hashtbl.t, \
      Queue.t, Stack.t, Buffer.t or Bytes.t, or a record literal with a mutable field, \
      races under the runner domain pool; use Atomic.t, Domain.DLS, or per-instance state.");
    ("R2", "nondeterminism sources",
     "Global Random, wall-clock or host-GC reads outside lib/runner and lib/obs, and \
      hash-order Hashtbl.iter/fold break bit-determinism. Paths resolve through open \
      and module aliases.");
    ("R5", "allocation in [@ccsim.hot] code",
     "Functions annotated [@ccsim.hot] and everything they contain must not allocate: \
      closures, tuples, records, variants, strings, partial applications, allocating \
      stdlib calls. Escape hatch: [@ccsim.alloc_ok \"why\"].");
    ("R6", "polymorphic comparison at a non-immediate type",
     "Stdlib.(=)/(<>)/compare/min/max/Hashtbl.hash instantiated at a type that is not \
      immediate (int/bool/char/unit, or declared immediate, as an enum is) walks memory \
      generically: slow in the DES inner loop and wrong \
      on floats (nan) and cyclic values. Use the monomorphic comparison of the type \
      (for floats, Float.equal or Ccsim_util.Feq.feq ~eps).");
    ("R7", "unit mismatch (dimensional analysis)",
     "Units inferred from name suffixes and propagated through arithmetic disagree \
      across +/-/comparison/min/max. * and / combine dimensions. Two suffixed names \
      of one dimension must also agree in scale (_s vs _ms, _bps vs _mbps).");
    ("R8", "test-only API",
     "A value, record field, optional argument or variant constructor exported by a \
      lib/ interface that nothing outside test/ uses (a field read, a constructor \
      built, an optional argument passed). Delete it, or keep it for the tests with \
      [@ccsim.test_only \"why\"] on its declaration; [@lint.allow R8] silences nothing.");
  ]

let rule_ids = List.map (fun (id, _, _) -> id) rule_catalogue

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
    (fun i (id, name, help) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "            {\"id\": \"%s\", \"name\": \"%s\", \"shortDescription\": {\"text\": \
         \"%s\"}, \"fullDescription\": {\"text\": \"%s\"}}"
        id id (json_escape name) (json_escape help))
    rule_catalogue;
  Buffer.add_string buf "\n          ]\n        }\n      },\n      \"results\": [";
  (match findings with [] -> () | _ :: _ -> Buffer.add_string buf "\n");
  List.iteri
    (fun i (f : finding) ->
      if i > 0 then Buffer.add_string buf ",\n";
      let rule_index =
        let rec idx n = function
          | [] -> -1
          | id :: rest -> if String.equal id f.rule then n else idx (n + 1) rest
        in
        idx 0 rule_ids
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
