(** Token-bucket state machine: tokens (in bytes) accrue at a fixed rate
    up to a burst cap. Shared by {!Shaper} (queues excess) and
    {!Policer} (drops excess) — the two ISP traffic-management
    behaviours §2.1 discusses (Flach et al.). *)

type t

val create : rate_bps:float -> burst_bytes:int -> now:float -> t
(** Bucket starts full. [rate_bps] and [burst_bytes] must be positive. *)

val burst_bytes : t -> int

val try_consume : t -> now:float -> bytes:int -> bool
(** Refill, then consume [bytes] tokens if available; [false] leaves the
    bucket unchanged (beyond the refill). *)

val tokens : t -> now:float -> float [@@ccsim.test_only "tests observe the bucket's fill"]
(** Current token level in bytes after refilling. *)

val time_until_available : t -> now:float -> bytes:int -> float
(** Seconds until [bytes] tokens will be available (0 when already
    conforming). [bytes] may exceed the burst size, in which case the
    bucket can never cover it — raises [Invalid_argument]. *)
