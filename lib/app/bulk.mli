(** Persistently backlogged sender — the classic "long-running flow" that
    can actually contend for bandwidth (software updates, large
    transfers; §2.3's canonical example). *)

type t

val start :
  Ccsim_engine.Sim.t ->
  sender:Ccsim_tcp.Sender.t ->
  ?at:float ->
  ?stop_at:(float [@ccsim.test_only "tests stop a bulk transfer early with it"]) ->
  unit ->
  t
(** Marks the sender unlimited at time [at] (default: now). If [stop_at]
    is given, the sender is closed at that time (in-flight data still
    drains). *)

val started : t -> bool
