type kind = Data | Ack

type t = {
  uid : int;
  flow : int;
  kind : kind;
  size_bytes : int;
  seq : int;
  payload_bytes : int;
  ack : int;
  sent_at : float;
  echo : float;
  retx : bool;
  rwnd : int;
  sacks : (int * int) list;
  sampled : bool;
}

(* A literal, not built by [data], so it mints no uid: uids decide span
   sampling, and a qdisc or link must not shift them. *)
let none =
  {
    uid = 0;
    flow = -1;
    kind = Data;
    size_bytes = 0;
    seq = 0;
    payload_bytes = 0;
    ack = 0;
    sent_at = 0.0;
    echo = 0.0;
    retx = false;
    rwnd = 0;
    sacks = [];
    sampled = false;
  }

(* Atomic so scenarios running on sibling domains (Ccsim_runner pools)
   still get unique uids. uids never influence simulation behaviour —
   they exist for tracing only. *)
let next_uid = Atomic.make 0

let fresh_uid () = Atomic.fetch_and_add next_uid 1 + 1

(* Lifecycle-span sample membership, decided once at construction so
   every hop agrees without re-deriving it. Reads the ambient scope —
   a single domain-local load and a [match] on [None] when spans are
   off, consuming no RNG either way. *)
let sampled_uid uid =
  match (Ccsim_obs.Scope.ambient ()).Ccsim_obs.Scope.span with
  | None -> false
  | Some s -> Ccsim_obs.Span.hit s ~uid

let data ~flow ~seq ~payload_bytes ?(header_bytes = Ccsim_util.Units.header_bytes) ~retx ~sent_at
    () =
  if payload_bytes <= 0 then invalid_arg "Packet.data: payload must be positive";
  let uid = fresh_uid () in
  {
    uid;
    flow;
    kind = Data;
    size_bytes = payload_bytes + header_bytes;
    seq;
    payload_bytes;
    ack = 0;
    sent_at;
    echo = 0.0;
    retx;
    rwnd = max_int;
    sacks = [];
    sampled = sampled_uid uid;
  }

let ack ~flow ~ack ~echo ~for_retx ~rwnd ~sacks ~sent_at =
  let uid = fresh_uid () in
  {
    uid;
    flow;
    kind = Ack;
    size_bytes = 64;
    seq = 0;
    payload_bytes = 0;
    ack;
    sent_at;
    echo;
    retx = for_retx;
    rwnd;
    sacks;
    sampled = sampled_uid uid;
  }

let end_seq t = t.seq + t.payload_bytes
let is_data t = match t.kind with Data -> true | Ack -> false
