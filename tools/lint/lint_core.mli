(** ccsim-lint findings: the finding type shared by every rule (the
    rules themselves live in {!Lint_typed}), its stable order, the rule
    catalogue, and the text/JSON/SARIF renderers. See
    tools/lint/RULES.md for the catalogue and the escape hatch. *)

type finding = {
  file : string;  (** normalized, '/'-separated relative path *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in compiler diagnostics *)
  rule : string;  (** "R1", "R2", "R5" .. "R8" *)
  message : string;
}

val compare_finding : finding -> finding -> int
(** Order by (file, line, col, rule) — the stable output order. *)

val rule_ids : string list
(** The catalogue's rule ids, in order: R1, R2, R5, R6, R7, R8. *)

(** {2 Rendering} *)

val render_finding : finding -> string
(** [file:line:col [rule] message] *)

val render_json : finding list -> string
(** Machine-readable output for [--json]: a JSON array of objects with
    file/line/col/rule/message fields. *)

val render_sarif : finding list -> string
(** SARIF 2.1.0 log (one run, one descriptor per catalogue rule) for
    GitHub code scanning upload. *)
