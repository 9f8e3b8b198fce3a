(** Queue-discipline interface.

    A qdisc buffers packets between arrival at a link and transmission.
    Implementations (drop-tail FIFO, DRR fair queueing) are records of
    closures so links can hold any discipline without functor plumbing.

    Invariant every implementation must satisfy: [dequeue] returns a
    packet exactly when [backlog_packets () > 0], and {!Packet.none}
    otherwise. Rate-limiting elements (token-bucket shapers, policers)
    intentionally violate this and therefore live outside the qdisc
    interface, as standalone path elements ({!Shaper}, {!Policer}).

    A packet's hop through a qdisc allocates nothing. The disciplines
    here hold their backlog in {!Ring}s, which overwrite each dequeued
    slot, so a packet that left is never kept alive (and so never
    promoted by the collector) through its queue; and an empty qdisc
    answers with the one {!Packet.none} rather than an option. *)

type stats = {
  mutable enqueued : int;
  mutable dropped : int;
  mutable dequeued : int;
  mutable bytes_dropped : int;
  mutable flow_dropped : (int, int ref) Hashtbl.t option;
      (** per-flow drop counts; [None] (default) until
          {!enable_flow_drop_accounting} — the zero-instrumentation
          [drop] path stays two field bumps and a [match] on [None] *)
}

type t = {
  name : string;
  enqueue : Packet.t -> bool;  (** false = packet dropped *)
  dequeue : unit -> Packet.t;  (** {!Packet.none} when empty; test with [==] *)
  backlog_bytes : unit -> int;
  backlog_packets : unit -> int;
  set_cross_backlog : int -> unit;
      (** Bytes of the shared buffer held by a fluid cross-traffic
          aggregate (hybrid mode). The FIFO counts it against its byte
          limit; {!Drr}, which only orders packets, ignores it
          ({!ignore_cross_backlog}). Never affects
          [backlog_bytes]/[backlog_packets], which count real packets
          only — conservation invariants stay exact. *)
  stats : stats;
}

val ignore_cross_backlog : int -> unit
(** No-op [set_cross_backlog] for disciplines that don't model buffer
    sharing. *)

val make_stats : unit -> stats

val drop : stats -> Packet.t -> unit
(** Account a drop (every discipline's single drop choke point, so
    per-flow shares cover tail drops, head drops, and flushes alike). *)

val enable_flow_drop_accounting : stats -> unit
(** Arm per-flow drop accounting (idempotent). Called by the owning
    link when the ambient scope requests flow attribution. *)

val flow_drops : stats -> flow:int -> int
(** Drops charged to [flow] (0 when accounting is off). *)

val flush : t -> int
(** Drop the entire backlog (a qdisc reset, as when a discipline is
    reconfigured live): every buffered packet is drained through the
    discipline's own [dequeue] and re-accounted as dropped, so
    conservation invariants hold and senders see the flushed packets as
    losses. Returns the number of packets flushed. Used by
    [Ccsim_faults] qdisc-reset events. *)

val loss_rate : t -> float
(** Drops / arrivals seen so far (0 when nothing arrived). *)
