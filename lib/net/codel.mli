(** CoDel AQM (Nichols & Jacobson 2012), simplified.

    Controls standing queue delay: when every packet dequeued over an
    [interval] has sojourned longer than [target], CoDel enters a
    dropping state and drops at increasing frequency
    (interval / sqrt(drop_count)) until sojourn falls below target.
    Needs the simulation clock to timestamp sojourn times. *)

val create :
  now:(unit -> float) ->
  ?target:float ->
  ?interval:float ->
  unit ->
  Qdisc.t
(** Defaults: [target] 5 ms, [interval] 100 ms. The queue holds at most
    {!Fifo.default_limit_bytes}. *)
