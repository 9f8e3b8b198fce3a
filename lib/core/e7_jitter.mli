(** E7 — contention on alternate metrics: token-bucket bursts cause
    jitter, and the operator's queueing mechanism decides how much
    (§5.2).

    A smooth CBR UDP flow (a stand-in for live video) shares an access
    link with a bursty on/off flow shaped by an upstream token bucket —
    tokens can be spent arbitrarily fast once accrued, so larger bucket
    bursts mean burstier arrivals. Under FIFO, the CBR flow's
    inter-arrival jitter grows with the cross flow's burst size; DRR
    fair queueing caps the inflation at one round of interleaving but
    cannot remove it. Bandwidth isolation is not latency isolation,
    and "the precise mechanism the operator uses ... affects the way
    flows contend for low jitter". *)

type row = {
  qdisc : string;
  burst_packets : int;  (** token-bucket burst of the cross flow; 0 = none *)
  cbr_jitter_ms : float;
  cbr_goodput_mbps : float;
  cross_goodput_mbps : float;
}

val warmup_s : float
(** Simulated seconds every scenario runs before it is measured; a
    duration must exceed it. *)

val run : ?duration:float -> ?seed:int -> unit -> row list
val render : row list -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
