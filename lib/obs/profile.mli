(** Engine profile: event-execution time, simulated-packet throughput,
    and sampled allocation attributed to components.

    Filled in by {!Ccsim_engine.Sim} when a profile is attached to a
    simulation: each executed event's wall-clock cost is charged to the
    component label the event's callback declared (via
    [Sim.set_component]), or ["other"]. Also tracks scheduled/cancelled
    event counts, the peak event-heap depth, simulated packets moved by
    the network layer (fed by [Ccsim_net.Link]), and sampled [Gc]
    deltas so allocation per event and per packet is a first-class
    number. The engine-throughput metrics here (events/s, packets per
    wall-second, minor words per packet) are the probes ROADMAP item 1's
    hot-path work optimizes against; [ccsim perf] snapshots them into
    BENCH_engine.json. *)

type t

type gc_sample = {
  gc_minor_words : float;
  gc_promoted_words : float;
  gc_major_words : float;
  gc_compactions : int;
}

val wall_now : unit -> float
(** The sanctioned wall-clock read ([Unix.gettimeofday]) for profiling
    real work. ccsim-lint rule R2 bans direct wall-clock calls outside
    [lib/runner] and [lib/obs] so simulated results can never depend on
    the host clock; timing code elsewhere must route through this. *)

val gc_sample : unit -> gc_sample
(** The sanctioned host-GC read ([Gc.quick_stat] plus the precise
    [Gc.minor_words], both O(1)) — the
    allocation analogue of {!wall_now}. ccsim-lint rule R2 bans direct
    [Gc] state reads outside [lib/runner] and [lib/obs]; allocation
    measurement elsewhere must route through this. *)

val create : unit -> t

val record : t -> comp:string -> seconds:float -> unit
(** Charge one executed event to [comp]. Every {!gc_sample_every}-th
    charge also takes a [Gc] delta, accumulated into the totals and
    attributed to [comp] (sampled attribution: the charging component
    stands in for the whole window). *)

val gc_sample_every : int
[@@ccsim.test_only "tests read the profiler's ledger; reports read to_json"]
(** Charges between consecutive [Gc] delta samples. *)

val gc_flush : t -> unit
(** Close the current sampling window so the totals cover every event
    up to now. Called by [Sim.run] and [Fluid_engine.run] when they
    return; idempotent (an empty window is not sampled). *)

val note_scheduled : t -> comp:string -> unit
(** Count one scheduled event, attributed to the component whose
    callback (or setup code, ["other"]) scheduled it. *)

val note_cancelled : t -> comp:string -> unit
(** Count one cancelled event, attributed to the cancelling component.
    Only live cancellations count; cancelling twice counts once. *)

val note_heap_depth : t -> int -> unit
(** Update the peak heap depth. *)

val note_sim_time : t -> float -> unit
(** Update the furthest simulated clock reached. *)

val note_pkt_enqueued : t -> unit
(** One packet accepted by a link's qdisc. Single field store. *)

val note_pkt_dequeued : t -> unit
(** One packet dequeued for serialization. *)

val note_pkt_delivered : t -> unit
(** One packet delivered across a link. *)

val note_pkt_dropped : t -> unit
(** One packet tail-dropped at link entry. A qdisc's internal drops
    (DRR's longest-queue drop) are visible in qdisc stats and metrics,
    not here. *)

val note_fluid_link_steps : t -> idle:int -> reduced:int -> full:int -> unit
(** Add a fluid engine's link-steps by path: the idle skip, the
    reduced step of a frozen link and the full step.
    [Fluid_engine.run] notes what it stepped. *)

val events_executed : t -> int
val events_scheduled : t -> int
val events_cancelled : t -> int

val max_heap_depth : t -> int

val events_per_sec : t -> float
(** Events per wall-clock second spent executing event callbacks (the
    busy time, [busy_s] in {!to_json}); 0 before any event ran. *)

val sim_s : t -> float
(** Furthest simulated clock reached. *)

val sim_speedup : t -> float
(** Simulated seconds per wall-clock second of event execution
    ([sim_s / busy_s]); 0 before any event ran. *)

val packets_enqueued : t -> int
val packets_dequeued : t -> int
val packets_delivered : t -> int
val packets_dropped : t -> int

val fluid_link_steps : t -> int * int * int
(** [(idle, reduced, full)] fluid link-steps noted so far. *)

val packets_per_sec : t -> float
[@@ccsim.test_only "tests read the profiler's ledger; reports read to_json"]
(** Simulated packets delivered per wall-second of event execution
    ([pkts_delivered / busy_s]); 0 before any event ran. *)

val minor_words : t -> float
[@@ccsim.test_only "tests read the profiler's ledger; reports read to_json"]
(** Minor-heap words allocated across the sampled windows. *)

val gc_samples : t -> int
[@@ccsim.test_only "tests read the profiler's ledger; reports read to_json"]

val minor_words_per_event : t -> float
(** Minor words per charged event over the sampled windows; 0 before
    the first window closes. *)

val minor_words_per_packet : t -> float
(** Minor words per delivered packet; 0 when no packet was delivered or
    no window closed. *)

val components : t -> (string * int * float) list
[@@ccsim.test_only "tests read the profiler's ledger; reports read to_json"]
(** [(component, events, seconds)], most expensive first. *)

type comp = {
  mutable events : int;
  mutable seconds : float;
  mutable scheduled : int;
  mutable cancelled : int;
  mutable minor_words : float;
}

val component_stats : t -> (string * comp) list
(** Full per-component rows, most expensive first. [minor_words] is a
    sampled attribution (see {!record}); the rows' sum can undercount
    the profile totals by up to one sampling window. *)

val to_json : t -> string
(** A JSON object (no trailing newline) — embedded per job in
    {!Ccsim_runner.Telemetry} reports. Field order is pinned by a
    golden test; exporters downstream of BENCH_engine.json rely on it. *)

val summary : t -> string
(** One-line human-readable digest. *)
