(** Explicit float equality. ccsim-lint (R6) rejects bare structural
    [=] / [<>] on float-typed operands in simulator code; this module
    is the sanctioned replacement, making the tolerance explicit.

    [feq ~eps:0.] coincides with structural [=] on every float input,
    NaN included (both return [false] for NaN operands), so exact
    comparisons keep their semantics bit for bit. *)

val feq : eps:float -> float -> float -> bool
(** [feq ~eps a b] is [true] iff [a] and [b] are within [eps] of each
    other (or structurally equal, covering infinite operands). Raises
    [Invalid_argument] if [eps] is negative or NaN. *)
