(** The CCAs the fluid engine models, as dense tags.

    Each model maps a scalar state — a congestion window in packets for
    the loss-based CCAs, a pacing rate in bit/s for BBR — plus the link
    signals (RTT, fluid loss probability, delivered service ratio) to a
    time derivative. The equations themselves live in
    [Fluid_engine]'s step kernel, in its compilation unit, so that no
    float crosses a module boundary on the per-flow path (dune's dev
    profile compiles with [-opaque], which boxes every such float).

    Model fidelity targets steady-state throughput shares (the quantity
    the cross-validation test compares against the packet engine), not
    packet-timescale dynamics: Reno is the Misra–Gong–Towsley AIMD
    fluid, CUBIC its TCP-friendly AIMD equivalent, and BBR a
    rate-convergence model with probe-gain and inflight-cap regimes. *)

type t = Reno | Cubic | Bbr

val index : t -> int
(** Dense tag (0, 1, 2) for struct-of-arrays storage. *)

val of_index : int -> t [@@ccsim.test_only "tests round-trip the fluid model table"]
(** Inverse of {!index}; raises [Invalid_argument] on other ints. *)

val name : t -> string [@@ccsim.test_only "tests round-trip the fluid model table"]

val of_name : string -> t option [@@ccsim.test_only "tests round-trip the fluid model table"]
(** Parses ["reno"], ["cubic"], ["bbr"]. *)

val pkt_bytes : int
(** Wire size of a full segment (MSS + headers); fluid rates are wire
    rates. *)

val pkt_bits : float
