(** Registry of every figure, experiment, and ablation in DESIGN.md
    order.

    Each entry packages the experiment's identifier, its one-line title,
    its default parameterization, and a closure running the experiment
    and rendering its paper-style rows to a string. The CLI, the bench
    harness, and the runner subsystem all enumerate experiments through
    this table instead of hard-coding the experiment modules. *)

type kind =
  | Timed of { default_s : float; warmup_s : float }
      (** Default simulated seconds per scenario and the warmup its
          scenarios skip before measuring: a duration must be at least
          [warmup_s +. min_window_s] (the CLI refuses a shorter one,
          exit 2). *)
  | Sized of int  (** default synthetic population size (fig2, a2) *)

val min_window_s : float
(** The shortest measurement window, after its warmup, that any timed
    experiment reports on: one simulated second. *)

type t = {
  id : string;  (** CLI subcommand name, e.g. ["fig1"] *)
  title : string;  (** one-line description (CLI doc string) *)
  kind : kind;
  backends : string list;
      (** Supported simulation backends, first = default. [["packet"]]
          for the classic DES experiments; population experiments list
          ["fluid"]/["hybrid"]. The CLI validates [--backend] against
          this list. *)
  supports_faults : bool;
      (** Whether a [--faults] plan can act on this experiment: true for
          the Scenario-backed (timed) experiments, false for the
          synthetic-population ones (fig2, a2, p1). *)
  render : ?backend:string -> ?duration:float -> ?n:int -> seed:int -> unit -> string;
      (** Run the experiment and render its report. [Timed] experiments
          read [duration] and ignore [n]; [Sized] ones the reverse.
          Omitted parameters fall back to the experiment's defaults.
          [backend] must be one of [backends] (single-backend
          experiments ignore it). *)
}

val all : t list
(** Every experiment, in DESIGN.md order (figures, e-series, x-series,
    ablations). *)

val find : string -> t option
(** Look up an experiment by [id]. *)

val effective_params :
  t -> ?backend:string -> ?duration:float -> ?n:int -> seed:int -> unit -> (string * string) list
(** Canonical [(key, value)] parameters for a run — the actually
    effective duration/size (defaults applied) plus the seed, plus the
    backend for multi-backend experiments (single-backend experiments
    omit it, keeping their historical digests). Runner job digests are
    derived from these, so a parameter change invalidates the cached
    result. *)
