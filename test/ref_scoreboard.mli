(* Test-only reference: the sender's scoreboard as it was before
   Ccsim_tcp.Scoreboard, answering to that module's interface (see
   scoreboard.mli for the contract). *)

type t

val create : mss:int -> t
val pipe_bytes : t -> int
val lost_bytes : t -> int
val delivered_bytes : t -> int
val highest_sacked : t -> int
val newest_delivered_sent_at : t -> float
val head : t -> int
val tail : t -> int
val seq : t -> int -> int
val len : t -> int -> int
val sacked : t -> int -> bool
val lost : t -> int -> bool
val in_pipe : t -> int -> bool
val send : t -> seq:int -> len:int -> now:float -> unit
val retransmit : t -> int -> now:float -> unit
val process_sacks : t -> (int * int) list -> unit
val retire_acked : t -> snd_una:int -> unit
val detect_losses : t -> now:float -> srtt:float -> unit
val mark_head_lost : t -> unit
val mark_all_lost : t -> unit
val next_lost_segment : t -> int
