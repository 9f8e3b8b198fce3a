(** Per-flow demultiplexer at the end of a shared path.

    Connections register a handler for their flow id; packets for
    unregistered flows are counted and discarded (e.g. data still in
    flight after a short flow closes). Handlers are kept in an array
    indexed by flow id, so ids should be small. *)

type t

val create : unit -> t
val register : t -> flow:int -> (Packet.t -> unit) -> unit
(** Raises [Invalid_argument] if the flow already has a handler or its
    id is negative. *)

val unregister : t -> flow:int -> unit
val deliver : t -> Packet.t -> unit
[@@ccsim.test_only "tests drive the demultiplexer directly; links deliver through as_sink"]
val as_sink : t -> Packet.t -> unit
val unmatched : t -> int [@@ccsim.test_only "tests count packets for unregistered flows"]
