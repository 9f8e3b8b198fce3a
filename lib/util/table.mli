(** Aligned textual tables for experiment reports.

    The bench harness prints the same rows/series the paper reports; this
    keeps that output legible without a plotting stack. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** Header row; raises [Invalid_argument] if no columns. *)

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the cell count differs from the column
    count. *)

val add_rule : t -> unit
(** Horizontal separator at this position. *)

val cell_f : ?decimals:int -> float -> string
(** Format a float with fixed [decimals] (default 2). *)

val cell_pct : float -> string
(** Format a fraction as a percentage with one decimal ("42.0%"). *)

val render : t -> string
