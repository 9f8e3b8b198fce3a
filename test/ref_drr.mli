(* Test-only reference: the previous Ccsim_net.Drr. *)

val create :
  ?quantum_bytes:int ->
  ?limit_bytes:int ->
  ?weight_of_flow:(int -> float) ->
  unit ->
  Ccsim_net.Qdisc.t
