(** Sampled packet lifecycle spans.

    A span store records, for a deterministic 1-in-N sample of packets
    (by uid — no RNG is consumed, so arming spans never perturbs
    simulation results), the per-hop lifecycle timestamps
    enqueue → dequeue → serialization-complete → delivery (or drop).
    Each completed record decomposes the hop delay into queueing,
    serialization, and propagation phases; {!Chrome_trace} exports them
    as true Perfetto duration spans.

    Memory is bounded like the flight recorder: the newest [capacity]
    completed records are retained, evictions are counted, and records
    for packets still in flight are finalized as {!Incomplete} when the
    owning [Sim] calls {!seal} at the end of the run. *)

type outcome = Delivered | Dropped | Incomplete

type record = {
  uid : int;
  flow : int;
  seq : int;
  kind : string;
  hop : string;  (** link name the packet was crossing *)
  t_enq : float;
  mutable t_deq : float;  (** nan until the packet leaves the queue *)
  mutable t_tx : float;  (** nan until serialization completes *)
  mutable t_rx : float;  (** nan unless delivered *)
  mutable outcome : outcome;
}

type t

val create :
  ?capacity:(int [@ccsim.test_only "tests shrink the buffer to force eviction with it"]) ->
  ?recorder:Recorder.t ->
  sample:int ->
  unit ->
  t
(** [create ~sample ()] records one in [sample] packets ([sample >= 1];
    [1] records every packet), retaining up to [capacity] (default
    65,536) completed records. When [recorder] is given and admits
    [Debug], every completed span is also journaled as a debug-level
    class-["span"] flight-recorder event carrying the phase delays;
    under a higher level no journal record is built. *)

val sample : t -> int

val hit : t -> uid:int -> bool
(** Whether the packet with [uid] is in the sample ([uid mod sample = 0]). *)

val note_enqueue :
  t -> hop:string -> at:float -> uid:int -> flow:int -> seq:int ->
  kind:string -> unit
(** Open a record: the sampled packet was accepted into [hop]'s queue. *)

val note_dequeue : t -> hop:string -> at:float -> uid:int -> unit
val note_tx : t -> hop:string -> at:float -> uid:int -> unit
(** Serialization onto the wire finished; propagation begins. *)

val note_delivered : t -> hop:string -> at:float -> uid:int -> unit
(** Close the record as {!Delivered}. Duplicate deliveries (fault
    injection) of an already-closed span are ignored. *)

val note_dropped :
  t -> hop:string -> at:float -> uid:int -> flow:int -> seq:int ->
  kind:string -> unit
(** Close the open record as {!Dropped}; for tail drops (no open
    record — the packet never entered the queue) a zero-length dropped
    span is synthesized. *)

val seal : t -> now:float -> unit
(** Finalize all still-open records as {!Incomplete} (deterministic
    order). [Sim.run] calls this once at the end of the run. *)

val queue_delay : record -> float option
val serialize_delay : record -> float option
val propagate_delay : record -> float option
(** Phase durations; [None] when the phase boundary was never reached. *)

val complete : record -> bool [@@ccsim.test_only "tests check span sealing"]
(** Delivered with all four timestamps present. *)

val outcome_to_string : outcome -> string

val completed : t -> record list
(** Completion order, oldest first, within the retained window. *)

val completed_count : t -> int
val open_count : t -> int [@@ccsim.test_only "tests check span sealing"]
val started : t -> int
val evicted : t -> int
