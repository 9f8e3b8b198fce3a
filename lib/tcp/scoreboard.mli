(** SACK scoreboard: a sender's in-flight segments, their SACK, loss and
    pipe state, and the byte counters they feed.

    Segments are named by absolute number: the first segment a sender
    sends is 0, the next 1, and so on. Segments {!head} to [{!tail} - 1]
    are on the board (sent, not yet cumulatively acknowledged).

    Invariants every operation keeps, and that make each operation cost
    what it changes rather than the window:
    - segments are contiguous and ascending: segment [i + 1] starts
      where segment [i] ends ({!send}'s [seq] must be the previous
      segment's end);
    - a segment, once sacked, is never unsacked;
    - {!highest_sacked} only grows;
    - send order is time order: the [now] of successive {!send} and
      {!retransmit} calls never decreases.

    Loss detection combines two rules. DupThresh (RFC 6675, in bytes): a
    never-retransmitted segment is lost once three MSS of later data
    have been selectively acknowledged. RACK: a segment is lost when a
    segment sent after it has been delivered and it is older than the
    reordering window (1.5 smoothed RTTs, or 100 ms before the first
    sample). RACK catches lost retransmissions and holes past the SACK
    frontier, which would otherwise wait for the RTO even though acks
    keep arriving. *)

type t

val create : mss:int -> t

(** {1 Counters} *)

val pipe_bytes : t -> int
(** The SACK-aware outstanding estimate: bytes sent and neither sacked,
    acknowledged nor marked lost. *)

val lost_bytes : t -> int
(** Bytes marked lost and not yet retransmitted. *)

val delivered_bytes : t -> int
(** Bytes known delivered: cumulatively acknowledged plus sacked, each
    segment counted once, when first learned. *)

val highest_sacked : t -> int
[@@ccsim.test_only "tests compare the scoreboard with its reference model"]
(** The highest SACK block end seen (0 before any). *)

val newest_delivered_sent_at : t -> float
[@@ccsim.test_only "tests compare the scoreboard with its reference model"]
(** Transmit time of the most recently sent segment known delivered
    ([neg_infinity] before any). *)

(** {1 Segments} *)

val head : t -> int [@@ccsim.test_only "tests compare the scoreboard with its reference model"]
(** Number of the oldest segment on the board ([= tail] when empty). *)

val tail : t -> int [@@ccsim.test_only "tests compare the scoreboard with its reference model"]
(** Number the next sent segment gets. *)

val seq : t -> int -> int
val len : t -> int -> int
val sacked : t -> int -> bool
[@@ccsim.test_only "tests compare the scoreboard with its reference model"]
val lost : t -> int -> bool
[@@ccsim.test_only "tests compare the scoreboard with its reference model"]
val in_pipe : t -> int -> bool
[@@ccsim.test_only "tests compare the scoreboard with its reference model"]
(** Per-segment state. These raise [Invalid_argument] for a segment not
    on the board. *)

(** {1 Operations} *)

val send : t -> seq:int -> len:int -> now:float -> unit
(** Put a new segment, sent at [now], on the board as segment [tail]. *)

val retransmit : t -> int -> now:float -> unit
(** Retransmit a segment marked lost: it is no longer lost, is back in
    the pipe, and its send time is [now]. Raises [Invalid_argument] if
    the segment is not on the board or not marked lost. *)

val process_sacks : t -> (int * int) list -> unit
(** Apply SACK blocks [(lo, hi)] (byte ranges, [hi] exclusive). A block
    marks the segments it covers whole; it may be stale, overlap or
    repeat another block, or cut through a segment. *)

val retire_acked : t -> snd_una:int -> unit
(** Take the segments wholly below the cumulative ack off the board. *)

val detect_losses : t -> now:float -> srtt:float -> unit
(** Mark lost every segment the DupThresh or RACK rule now condemns;
    [srtt] is the smoothed RTT (0 before the first sample). *)

val mark_head_lost : t -> unit
(** Three-duplicate-ack fallback: mark the oldest segment lost if it is
    neither sacked nor ever retransmitted. *)

val mark_all_lost : t -> unit
(** Retransmission timeout: mark every unsacked segment lost. *)

val next_lost_segment : t -> int
(** The oldest segment marked lost, or [-1] if none. *)

val release : t -> unit
(** Free the rings of an empty board ({!head} = {!tail}); the next
    {!send} grows them again from empty. Counters and segment numbers
    carry on. Raises [Invalid_argument] if segments are on the board. *)
