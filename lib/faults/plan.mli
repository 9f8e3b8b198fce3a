(** Declarative fault plans.

    A plan is an ordered list of impairment events against the
    bottleneck path, written in a compact clause language:

    {v
    outage at=20 dur=2; burst-loss at=30 dur=20 p-enter=0.02 p-exit=0.3
    v}

    Clauses are separated by [;] (or newlines); each clause is a fault
    kind followed by [key=value] fields. Supported kinds (times in
    seconds, probabilities in [0, 1]):

    - [outage at dur] — link down for [dur]
    - [capacity at factor ?dur] — step the link rate to
      [factor × base]; restore after [dur] when given
    - [ramp at dur factor] — renegotiate the rate linearly from base to
      [factor × base] over [dur] (20 steps), then stay
    - [loss at dur p] — i.i.d. wire loss
    - [burst-loss at dur ?p-enter ?p-exit ?loss-good ?loss-bad] —
      Gilbert–Elliott burst loss (defaults 0.01 / 0.25 / 0 / 0.3)
    - [corrupt at dur p] — bit corruption (checksum-discard at receiver)
    - [duplicate at dur p] — wire duplication
    - [reorder at dur p ?delay] — reordering via stretched propagation
      (default extra delay 0.01)
    - [delay-spike at dur extra] — added propagation delay
    - [qdisc-reset at] — flush the bottleneck queue
    - [flap from until ?mean-up ?mean-down] — stochastic up/down cycling
      with exponential holding times (defaults 5 / 0.5; each mean at
      least 0.001)

    Plans are inert data; {!Injector.attach} compiles one onto a
    simulation. The ambient {e armed plan} ({!with_armed}/{!armed}) is
    how the CLI's [--faults] flag reaches [Ccsim_core.Scenario] without
    threading a parameter through every experiment: it is domain-local,
    so parallel runner jobs arm independently. *)

type event =
  | Outage of { at_s : float; dur_s : float }
  | Capacity of { at_s : float; factor : float; dur_s : float option }
  | Ramp of { at_s : float; dur_s : float; factor : float }
  | Loss of { at_s : float; dur_s : float; p : float }
  | Burst_loss of {
      at_s : float;
      dur_s : float;
      p_enter : float;
      p_exit : float;
      loss_good : float;
      loss_bad : float;
    }
  | Corrupt of { at_s : float; dur_s : float; p : float }
  | Duplicate of { at_s : float; dur_s : float; p : float }
  | Reorder of { at_s : float; dur_s : float; p : float; extra_s : float }
  | Delay_spike of { at_s : float; dur_s : float; extra_s : float }
  | Qdisc_reset of { at_s : float }
  | Flap of { from_s : float; until_s : float; mean_up_s : float; mean_down_s : float }

type t = event list

val kind_of : event -> string
(** The clause keyword, e.g. ["burst-loss"]. *)

val windows : t -> (float * float) list
(** Per-event [(start_s, stop_s)] activity windows, plan order. Point
    events (qdisc-reset) have zero width; an unbounded capacity step
    extends to infinity. Used to mask fault-active intervals out of
    verdict computations (e.g. the C1 elasticity window). *)

val parse : string -> (t, string) result
(** Parse the clause language; the error names the offending clause.
    Empty plans are an error, and so is a key given twice in one
    clause (the error names it). *)

val parse_exn : string -> t
(** Raises [Invalid_argument]. *)

val event_to_string : event -> string

val to_string : t -> string
(** Canonical rendering: [parse] ∘ [to_string] is the identity, and the
    string is stable for use in runner job digests. Each number prints
    as the shortest of [%.15g], [%.16g] and [%.17g] that reads back as
    the same float, so two plans that differ in any digit render
    differently. *)

(** {1 Ambient arming} *)

type armed = { plan : t; seed : int }

val armed : unit -> armed option
(** The current domain's armed plan, if inside {!with_armed}. *)

val with_armed : armed option -> (unit -> 'a) -> 'a
(** Run [f] with the given plan armed (or explicitly disarmed with
    [None]); restores the previous arming on exit, including on
    exceptions. Nestable. *)
