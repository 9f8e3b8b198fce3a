(** Random Early Detection (Floyd & Jacobson 1993).

    Probabilistically drops arrivals as the EWMA of queue length grows
    between [min_th] and [max_th]; drops everything above [max_th].
    Included as the classic AQM baseline for the isolation experiments. *)

val create :
  ?min_th_bytes:int ->
  ?max_th_bytes:int ->
  ?max_p:float ->
  ?weight:float ->
  ?limit_bytes:int ->
  unit ->
  Qdisc.t
(** Defaults: min 30 packets, max 90 packets (full-size), [max_p] 0.1,
    EWMA [weight] 0.002, hard limit as {!Fifo.create}. *)
