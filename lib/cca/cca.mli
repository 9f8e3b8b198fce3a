(** Congestion-control algorithm interface.

    A CCA is a record of closures created per connection. The TCP sender
    reads [cwnd] (bytes) and [pacing_rate] (bit/s; [infinity] disables
    pacing) before each transmission and informs the CCA of acks, loss
    events (once per fast-recovery episode), retransmission timeouts, and
    transmissions. Implementations mutate their own [cwnd]/[pacing_rate]
    fields. *)

type ack_info = {
  now : float;
  rtt_sample : float option;
      (** RTT measured from this ack; [None] when the acked segment was a
          retransmission (Karn's rule). *)
  srtt : float;  (** smoothed RTT, 0 until the first sample *)
  min_rtt : float;  (** connection lifetime minimum RTT *)
  newly_acked : int;  (** bytes newly cumulatively acknowledged *)
  inflight : int;  (** bytes outstanding after this ack *)
  delivery_rate : float;
      (** delivery-rate sample in bit/s (BBR-style: delivered-bytes delta
          over the acked segment's flight time); 0 until measurable *)
  app_limited : bool;
      (** the sample was taken while the sender had no data to send, so
          rate samples underestimate capacity *)
}

type t = {
  name : string;
  mutable cwnd : float;  (** congestion window, bytes *)
  mutable pacing_rate : float;  (** bit/s; [infinity] = unpaced *)
  mutable on_ack : ack_info -> unit;
  mutable on_loss : unit -> unit;
      (** fast-retransmit loss detected; called once per recovery episode *)
  mutable on_rto : now:float -> unit;
  mutable on_send : now:float -> bytes:int -> unit;
      (** a segment was transmitted *)
}
(** Handler fields are mutable so an implementation can first allocate
    the record, then install closures that mutate that same record —
    avoiding a recursive-value definition. *)

val initial_window : mss:int -> float
(** RFC 6928 initial window: 10 MSS, in bytes. *)

val make : name:string -> ?cwnd:float -> ?pacing_rate:float -> unit -> t
(** Build a CCA record with no-op handlers, which an implementation then
    replaces (fixed-window pseudo-CCAs keep them). Default cwnd is
    [initial_window ~mss:1448]; default pacing is unpaced. *)

(** {1 Loss-based window rules}

    The RFC 5681 rules AIMD (and so Reno), CUBIC and Vegas share, over
    {!Ccsim_util.Units.mss}-byte segments. Each CCA keeps its own slow
    start threshold and passes it in. *)

val slow_start : t -> ack_info -> unit
(** Slow start: grow [cwnd] by the newly acked bytes. *)

val cut_on_loss : t -> float ref -> beta:float -> unit
(** A fast-retransmit loss: the threshold becomes
    max([cwnd] × [beta], 2 MSS), and so does [cwnd]. *)

val cut_on_rto : t -> float ref -> beta:float -> unit
(** A retransmission timeout: the threshold as {!cut_on_loss} sets it,
    and [cwnd] falls to 1 MSS, so slow start begins again. *)

val fixed_window : cwnd_bytes:int -> t
[@@ccsim.test_only "control CCA the tests drive senders with"]
(** Degenerate CCA that never changes its window; useful as an
    experimental control. *)

val fixed_rate : rate_bps:float -> t [@@ccsim.test_only "control CCA the tests drive senders with"]
(** Degenerate CCA with an effectively unlimited window and a fixed
    pacing rate; models naive CBR-over-reliable-transport. *)
