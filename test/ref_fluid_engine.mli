(* Test-only reference: the four-pass Fluid_engine step (see
   fluid_engine.mli for the link-major kernel it checks). The build API
   and outputs mirror Fluid_engine's; there are no instruments. *)

type t

val create : ?dt_s:float -> ?warmup_s:float -> ?payload_frac:float -> seed:int -> unit -> t
val add_link : t -> capacity_bps:float -> buffer_bytes:int -> int

val add_flow :
  t ->
  link:int ->
  model:Ccsim_fluid.Fluid_model.t ->
  rtt_base_s:float ->
  ?cap_bps:float ->
  ?on_off_s:float * float ->
  ?start_active:bool ->
  unit ->
  int

val set_packet_signals : t -> link:int -> rate_bps:float -> backlog_bytes:int -> unit

val step : t -> unit
(** Toggles, derivative, forward-Euler update of every state, settle. *)

val link_capacity_bps : t -> int -> float
val link_served_bps : t -> int -> float
val link_queue_bytes : t -> int -> float
val link_contended_s : t -> int -> float
val link_served_bytes : t -> int -> float
val link_residual_bytes : t -> int -> float
val flow_goodput_bps : t -> int -> float
val totals : t -> Ccsim_fluid.Fluid_engine.totals
val residual_bytes : t -> float
