(** Simulated packets.

    A packet is either a data segment or a (pure) cumulative
    acknowledgment. Sizes are wire sizes in bytes (payload + header).
    Sequence numbers are byte offsets, as in TCP. *)

type kind = Data | Ack

type t = {
  uid : int;  (** globally unique, for tracing *)
  flow : int;  (** flow identifier; qdiscs classify on this *)
  kind : kind;
  size_bytes : int;  (** wire size *)
  seq : int;  (** first payload byte (data); meaningless for acks *)
  payload_bytes : int;  (** payload carried (data); 0 for acks *)
  ack : int;  (** next expected byte (acks); 0 for data *)
  sent_at : float;  (** transmit timestamp of this (re)transmission *)
  echo : float;  (** acks: [sent_at] of the segment that triggered them *)
  retx : bool;  (** retransmission? (acks echo this to suppress bad RTT samples) *)
  rwnd : int;  (** acks: receiver's advertised window in bytes *)
  sacks : (int * int) list;
      (** acks: up to three selectively-acknowledged [lo, hi) byte ranges
          above the cumulative ack point *)
  sampled : bool;
      (** in the ambient {!Ccsim_obs.Span} store's 1-in-N lifecycle
          sample (decided at construction; always [false] when spans
          are off). Tracing only — never influences behaviour. *)
}

val none : t
(** The "no packet" value: what an empty qdisc's dequeue returns, what a
    link holds while nothing serializes, and the filler of packet rings.
    Test for it with [==]. It is a literal, so it takes no uid. *)

val data :
  flow:int ->
  seq:int ->
  payload_bytes:int ->
  ?header_bytes:(int [@ccsim.test_only "tests build header-free packets with it"]) ->
  retx:bool ->
  sent_at:float ->
  unit ->
  t
(** Fresh data segment; wire size is payload + header (default
    {!Ccsim_util.Units.header_bytes}). The payload must be positive.
    Every other argument is required: an optional argument a caller
    passes costs a [Some] per packet. *)

val ack :
  flow:int ->
  ack:int ->
  echo:float ->
  for_retx:bool ->
  rwnd:int ->
  sacks:(int * int) list ->
  sent_at:float ->
  t
(** Pure ack, 64 bytes on the wire. [for_retx] echoes whether the
    acked segment was a retransmission. *)

val end_seq : t -> int [@@ccsim.test_only "tests check segment boundaries"]
(** [seq + payload_bytes]. *)

val is_data : t -> bool
