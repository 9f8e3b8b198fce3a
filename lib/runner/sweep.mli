(** Cross-product sweeps over named parameter axes.

    A sweep point is an association list of [(axis, value)] strings —
    ready to label a job, feed {!Job.digest_of_params}, or parse back
    into typed parameters. *)

type axis

val axis : string -> string list -> axis
val ints : string -> int list -> axis
val floats : string -> float list -> axis

type point = (string * string) list

val points : axis list -> point list
(** Cross product in row-major order: the first axis varies slowest.
    With no axes, one empty point. Raises [Invalid_argument] on an
    empty axis (its cross product would silently be empty). *)

val label : point -> string [@@ccsim.test_only "tests check sweep job labels"]
(** ["exp=fig1 seed=43 duration=10"]-style display label. *)

val get : point -> string -> string option
