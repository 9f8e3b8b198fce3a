module Obs = Ccsim_obs

let pkt_kind (pkt : Packet.t) = if Packet.is_data pkt then "data" else "ack"

(* Lifecycle-span sites at the queue boundary: accepted enqueues open a
   span record, dequeues close the queueing phase, tail drops complete
   the record as dropped. Only packets carrying the construction-time
   [sampled] tag are touched. *)
let span_enqueue span ~hop ~now (pkt : Packet.t) =
  match span with
  | Some s when pkt.Packet.sampled ->
      Obs.Span.note_enqueue s ~hop ~at:(now ()) ~uid:pkt.uid ~flow:pkt.flow ~seq:pkt.seq
        ~kind:(pkt_kind pkt)
  | Some _ | None -> ()

let span_tail_drop span ~hop ~now (pkt : Packet.t) =
  match span with
  | Some s when pkt.Packet.sampled ->
      Obs.Span.note_dropped s ~hop ~at:(now ()) ~uid:pkt.uid ~flow:pkt.flow ~seq:pkt.seq
        ~kind:(pkt_kind pkt)
  | Some _ | None -> ()

let span_dequeue span ~hop ~now (pkt : Packet.t) =
  match span with
  | Some s when pkt.Packet.sampled -> Obs.Span.note_dequeue s ~hop ~at:(now ()) ~uid:pkt.uid
  | Some _ | None -> ()

let instrument ?metrics ?recorder ?span ?(hop = "link") ~now (q : Qdisc.t) : Qdisc.t =
  match (metrics, recorder, span) with
  | None, None, None -> q
  | _ ->
      let labels = [ ("qdisc", q.name) ] in
      let m_enq =
        Option.map (fun m -> Obs.Metrics.counter m ~labels "qdisc_enqueued_total") metrics
      in
      let m_deq =
        Option.map (fun m -> Obs.Metrics.counter m ~labels "qdisc_dequeued_total") metrics
      in
      let m_drop =
        Option.map (fun m -> Obs.Metrics.counter m ~labels "qdisc_dropped_total") metrics
      in
      let m_backlog =
        Option.map (fun m -> Obs.Metrics.gauge m ~labels "qdisc_backlog_bytes") metrics
      in
      let m_sojourn =
        Option.map (fun m -> Obs.Metrics.histogram m ~labels "qdisc_sojourn_seconds") metrics
      in
      (* Enqueue timestamps for sojourn measurement, keyed by packet uid.
         Entries for packets the discipline drops internally are swept
         lazily: uid keys of packets never dequeued stay until the map is
         next compacted against the backlog size. *)
      let enq_times : (int, float) Hashtbl.t = Hashtbl.create 256 in
      let record_drop ~count pkt =
        Option.iter (fun c -> Obs.Metrics.add c count) m_drop;
        Option.iter
          (fun r ->
            let fields =
              match pkt with
              | Some (p : Packet.t) ->
                  [
                    ("flow", string_of_int p.flow);
                    ("seq", string_of_int p.seq);
                    ("bytes", string_of_int p.size_bytes);
                  ]
              | None -> [ ("count", string_of_int count) ]
            in
            Obs.Recorder.record r ~at:(now ()) ~severity:Obs.Recorder.Warn ~kind:"qdisc"
              ~point:q.name ~fields "drop")
          recorder
      in
      let update_backlog () =
        match m_backlog with
        | Some g -> Obs.Metrics.set g (float_of_int (q.backlog_bytes ()))
        | None -> ()
      in
      let compact_enq_times () =
        (* Disciplines that drop internally (CoDel head drops, RED) orphan
           their packets' timestamps. The wrapper cannot enumerate the
           discipline's live queue, so when orphans dominate it resets the
           map — losing the in-flight sojourn samples once in a while in
           exchange for bounded memory. *)
        if Hashtbl.length enq_times > (2 * q.backlog_packets ()) + 1024 then
          Hashtbl.reset enq_times
      in
      let enqueue pkt =
        let dropped_before = q.stats.dropped in
        let accepted = q.enqueue pkt in
        if accepted then begin
          Option.iter Obs.Metrics.inc m_enq;
          if Option.is_some m_sojourn then Hashtbl.replace enq_times pkt.Packet.uid (now ());
          span_enqueue span ~hop ~now pkt
        end
        else span_tail_drop span ~hop ~now pkt;
        let internal = q.stats.dropped - dropped_before - (if accepted then 0 else 1) in
        if not accepted then record_drop ~count:1 (Some pkt);
        if internal > 0 then record_drop ~count:internal None;
        update_backlog ();
        accepted
      in
      let dequeue () =
        let dropped_before = q.stats.dropped in
        let result = q.dequeue () in
        (match result with
        | Some pkt -> (
            Option.iter Obs.Metrics.inc m_deq;
            span_dequeue span ~hop ~now pkt;
            match m_sojourn with
            | Some h -> (
                match Hashtbl.find_opt enq_times pkt.Packet.uid with
                | Some t0 ->
                    Hashtbl.remove enq_times pkt.Packet.uid;
                    Obs.Metrics.observe h (now () -. t0)
                | None -> ())
            | None -> ())
        | None -> ());
        let internal = q.stats.dropped - dropped_before in
        if internal > 0 then record_drop ~count:internal None;
        compact_enq_times ();
        update_backlog ();
        result
      in
      { q with enqueue; dequeue }
