(** Drop-tail FIFO, the Internet's default queue.

    The buffer limit is in bytes; arrivals that would exceed it are
    dropped at the tail. *)

val default_limit_bytes : int
(** 150 full-size packets, the default buffer for every qdisc here. *)

val create : ?limit_bytes:int -> unit -> Qdisc.t
(** Default limit: 150 full-size packets (roughly a BDP of buffering on
    the paper's 48 Mbit/s / 100 ms link). The limit must be positive. *)
