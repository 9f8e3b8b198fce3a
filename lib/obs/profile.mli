(** Engine profile: event-execution time and allocation per component,
    and simulated-packet throughput.

    Filled in by {!Ccsim_engine.Sim} when a profile is attached to a
    simulation: around each executed event the profiler reads the wall
    clock and the minor-heap word count, and charges the event's
    seconds and words, exactly, to the component its callback declared
    (via [Sim.set_component]), or {!Other}. Also tracks scheduled and
    cancelled events per component, the peak event-heap depth,
    simulated packets moved by the network layer (fed by
    [Ccsim_net.Link]), and each run's promoted and major words. [ccsim
    perf] snapshots these numbers into BENCH_engine.json. *)

type t

(** The components that charge work: the code sets that call
    [Sim.set_component], the engines' drivers, and {!Other} for
    everything else. *)
type component = Other | Link | Tcp | Cca | Fluid | Telemetry | Timeline | Watchdog | Faults

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

val begin_event : t -> unit
(** Start one event: read the wall clock, then the minor-heap word
    count. Allocates nothing. *)

val end_event : t -> component -> unit
(** End the event {!begin_event} started: read the word count, then
    the clock, and charge the differences to the component. What the
    event allocated between the two reads is charged exactly, and the
    profiler's own work falls outside them. Allocates nothing. *)

val start_run : t -> unit
(** A run ([Sim.run], for packet, hybrid and fluid runs alike) begins:
    take the [Gc] sample its promoted and major words count from. *)

val end_run : t -> unit
(** A run ends: add its promoted words, major words and compactions to
    the totals. *)

val note_scheduled : t -> comp:component -> unit
(** Count one scheduled event, attributed to the component whose
    callback (or setup code, {!Other}) scheduled it. *)

val note_cancelled : t -> comp:component -> unit
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
    [Fluid_driver.catch_up] notes what its engine stepped since the
    last note, hybrid households included. *)

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
(** Minor-heap words the executed events allocated. *)

val minor_words_per_event : t -> float
(** Minor words per executed event: the events' own allocation, not
    the event loop's or the profiler's; 0 before any event ran. *)

val minor_words_per_packet : t -> float
(** The events' minor words per delivered packet; 0 when no packet was
    delivered. *)

type comp = {
  events : int;
  seconds : float;
  scheduled : int;
  cancelled : int;
  minor_words : float;
}

val component_stats : t -> (string * comp) list
(** One row per component that executed, scheduled or cancelled an
    event, named as in the reports (["other"], ["link"], ...), most
    expensive first. The rows' events, seconds and words sum to the
    totals. *)

val to_json : t -> string
(** A JSON object (no trailing newline) — embedded per job in
    {!Ccsim_runner.Telemetry} reports. Field order is pinned by a
    golden test; exporters downstream of BENCH_engine.json rely on it. *)

val summary : t -> string
(** One-line human-readable digest. *)
