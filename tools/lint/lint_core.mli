(** ccsim-lint rule engine: the parsetree pass enforcing the
    determinism and data-race catalogue (R1-R2) over simulator sources,
    plus the shared finding/allowlist/suppression/rendering machinery
    used by both analysis stages (the typed stage lives in
    {!Lint_typed}). See tools/lint/RULES.md for the rule catalogue and
    escape hatches. *)

type finding = {
  file : string;  (** normalized, '/'-separated relative path *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in compiler diagnostics *)
  rule : string;  (** "R1" .. "R8" *)
  message : string;
  stage : string;  (** "parse" or "typed" *)
}

val compare_finding : finding -> finding -> int
(** Order by (file, line, col, rule) — the stable output order. *)

type allow_entry = {
  a_rule : string;
  a_path : string;
  a_justification : string;  (** mandatory, human-readable *)
  a_line : int;
}

exception Malformed_allow of string
(** Raised by {!load_allowlist} on an entry without a justification or
    that does not parse as [RULE PATH JUSTIFICATION...]. *)

exception Scan_error of string
(** Raised on unreadable or unparseable input. *)

val load_allowlist : string -> allow_entry list
(** Parse a lint.allow file. A missing file is an empty allowlist;
    blank lines and [#] comments are skipped. An R8 entry is malformed:
    only a declaration's [[@ccsim.test_only "why"]] silences R8. *)

val scan_source : file:string -> ?wall_clock_exempt:bool -> string -> finding list
(** Scan one compilation unit given as source text. [file] is used for
    reporting and inline-annotation resolution. *)

val scan_file : string -> finding list
(** Scan one [.ml] file; wall-clock exemption is derived from its path
    (lib/runner and lib/obs may read the host clock). *)

val ml_files_under : string -> string list
(** Every [.ml] under a file or directory, in sorted path order. *)

val scan_paths : string list -> finding list
(** Scan every [.ml] under the given files/directories, sorted. *)

val apply_allowlist : allow_entry list -> finding list -> finding list * allow_entry list
(** [(surviving_findings, stale_entries)]: an entry suppresses every
    finding of its rule in its file; entries matching nothing are
    returned as stale so the allowlist cannot rot. *)

val normalize : string -> string
(** Collapse a path to the canonical '/'-separated form used in
    findings and allowlist matching. *)

(** {2 Suppression machinery shared with the typed stage} *)

val rules_of_allow_payload : Parsetree.payload -> string list
(** The R<n> tokens of a [\[@lint.allow R5 R6\]] attribute payload,
    scanned structurally so [R5], [R5 R6] and [(R5, R6)] all parse. *)

val rules_of_allow_attrs : Parsetree.attributes -> string list
(** All rules named by [lint.allow] attributes in the list. *)

val suppressions_of_source : string -> (int * string, unit) Hashtbl.t
(** Comment-form suppressions of a source text: [(line, rule)] is
    present when an inline [(* lint: ... *)] annotation on line [line]
    or [line - 1] suppresses [rule]. *)

(** {2 Rendering} *)

val render_finding : finding -> string
(** [file:line:col [rule] message] *)

val render_json : finding list -> string
(** Machine-readable output for [--json]: a JSON array of objects with
    file/line/col/rule/stage/message fields. *)

val render_sarif : finding list -> string
(** SARIF 2.1.0 log (one run, R1-R8 rule descriptors) for GitHub code
    scanning upload. *)
