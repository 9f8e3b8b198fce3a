(* Test-only reference: the previous Ccsim_net.Fifo. *)

val create : ?limit_bytes:int -> unit -> Ccsim_net.Qdisc.t
