(** Fault injector: compiles a {!Plan.t} onto one simulation.

    {!attach} schedules every plan event as ordinary [Sim] events
    driving the {!Ccsim_net.Link} / {!Ccsim_net.Qdisc} fault hooks, so
    faults execute in virtual time, interleaved deterministically with
    the workload. The full lifecycle is observable:

    - each event is journaled through the ambient flight recorder
      (class ["fault"], point ["injector"]) at arm time (Info), fire
      time (Warn) and clear time (Info), with the canonical clause in
      the fields;
    - each event registers a [fault_span] timeline series (labels
      [fault], [idx]) recording 1 while the fault is live and 0
      otherwise, which the Perfetto exporter renders as spans;
    - a [faults_fired_total] counter is maintained when the ambient
      scope carries metrics.

    All randomness (per-packet impairment draws, flap holding times)
    comes from SplitMix64 streams split from the injector seed, so a
    [(plan, seed)] pair reproduces byte-identically regardless of
    runner parallelism. Under the empty scope the injector journals
    nothing but still drives the faults. *)

type t

type summary = {
  armed : int;  (** plan events scheduled *)
  fired : int;  (** fire actions that ran before the horizon *)
  cleared : int;  (** restore actions that ran *)
  wire_lost : int;  (** packets lost to the armed loss models *)
  wire_corrupted : int;  (** packets checksum-discarded *)
  wire_reordered : int;  (** deliveries stretched for reordering *)
  qdisc_flushed : int;  (** packets dropped by qdisc-reset events *)
}

val attach :
  Ccsim_engine.Sim.t -> link:Ccsim_net.Link.t -> plan:Plan.t -> seed:int -> unit -> t
(** Arm [plan] against [link]. Installs the link's fault RNG (a stream
    split from [seed]) and schedules all fire/clear events; events
    beyond the run horizon simply never fire. The link's rate at attach
    time is the base for capacity/ramp events. *)

val summary : t -> summary
(** Read after [Sim.run]; counters are cumulative for the run. *)

