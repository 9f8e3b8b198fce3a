type stats = {
  mutable enqueued : int;
  mutable dropped : int;
  mutable dequeued : int;
  mutable bytes_dropped : int;
  mutable flow_dropped : (int, int ref) Hashtbl.t option;
      (* per-flow drop shares; [None] (the default) keeps [drop] a pure
         pair of field bumps. Enabled by the owning link when the
         ambient scope asks for flow attribution. *)
}

type t = {
  name : string;
  enqueue : Packet.t -> bool;
  dequeue : unit -> Packet.t;
  backlog_bytes : unit -> int;
  backlog_packets : unit -> int;
  set_cross_backlog : int -> unit;
  stats : stats;
}

let ignore_cross_backlog (_ : int) = ()

let make_stats () =
  {
    enqueued = 0;
    dropped = 0;
    dequeued = 0;
    bytes_dropped = 0;
    flow_dropped = None;
  }

let enable_flow_drop_accounting stats =
  match stats.flow_dropped with
  | Some _ -> ()
  | None -> stats.flow_dropped <- Some (Hashtbl.create 16)

let drop stats (pkt : Packet.t) =
  stats.dropped <- stats.dropped + 1;
  stats.bytes_dropped <- stats.bytes_dropped + pkt.size_bytes;
  match stats.flow_dropped with
  | None -> ()
  | Some tbl -> (
      match Hashtbl.find_opt tbl pkt.flow with
      | Some r -> incr r
      | None -> Hashtbl.add tbl pkt.flow (ref 1))

let flow_drops stats ~flow =
  match stats.flow_dropped with
  | None -> 0
  | Some tbl -> ( match Hashtbl.find_opt tbl flow with Some r -> !r | None -> 0)

(* Drain through the discipline's own dequeue path, then reclassify the
   drained packets as drops: dequeued is rewound and dropped advanced,
   so the conservation residue enqueued - dequeued - backlog stays
   within [0, dropped] and the flushed packets read as losses to their
   senders (they were in flight, never acked). *)
let flush t =
  let rec drain n =
    let pkt = t.dequeue () in
    if pkt == Packet.none then n
    else begin
      t.stats.dequeued <- t.stats.dequeued - 1;
      drop t.stats pkt;
      drain (n + 1)
    end
  in
  drain 0

let loss_rate t =
  let arrivals = t.stats.enqueued + t.stats.dropped in
  if arrivals = 0 then 0.0 else float_of_int t.stats.dropped /. float_of_int arrivals
