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
      (* Drop records are Warn: resolved against the journal's level
         once, so a level above Warn builds none. *)
      let warn_rec =
        match recorder with
        | Some r when Obs.Recorder.admits r Obs.Recorder.Warn -> Some r
        | Some _ | None -> None
      in
      (* Enqueue timestamps for sojourn measurement, keyed by packet uid.
         Entries for packets the discipline drops internally are swept
         lazily: uid keys of packets never dequeued stay until the map is
         next compacted against the backlog size. *)
      let enq_times = Ccsim_util.Int_table.create () in
      let journal_drop fields =
        match warn_rec with
        | Some r ->
            Obs.Recorder.record r ~at:(now ()) ~severity:Obs.Recorder.Warn ~kind:"qdisc"
              ~point:q.name ~fields "drop"
        | None -> ()
      in
      let tail_drop (p : Packet.t) =
        (match m_drop with Some c -> Obs.Metrics.inc c | None -> ());
        if Option.is_some warn_rec then
          journal_drop
            [
              ("flow", string_of_int p.flow);
              ("seq", string_of_int p.seq);
              ("bytes", string_of_int p.size_bytes);
            ]
      in
      let internal_drops count =
        (match m_drop with Some c -> Obs.Metrics.add c count | None -> ());
        if Option.is_some warn_rec then journal_drop [ ("count", string_of_int count) ]
      in
      let update_backlog () =
        match m_backlog with
        | Some g -> Obs.Metrics.set_int g (q.backlog_bytes ())
        | None -> ()
      in
      let compact_enq_times () =
        (* A discipline that drops internally (DRR's longest-queue drop)
           orphans its packets' timestamps. The wrapper cannot enumerate the
           discipline's live queue, so when orphans dominate it resets the
           map — losing the in-flight sojourn samples once in a while in
           exchange for bounded memory. *)
        if Ccsim_util.Int_table.length enq_times > (2 * q.backlog_packets ()) + 1024 then
          Ccsim_util.Int_table.reset enq_times
      in
      let[@ccsim.hot] enqueue pkt =
        let dropped_before = q.stats.dropped in
        let accepted = q.enqueue pkt in
        if accepted then begin
          Option.iter Obs.Metrics.inc m_enq;
          if Option.is_some m_sojourn then
            Ccsim_util.Int_table.replace enq_times pkt.Packet.uid (now ());
          span_enqueue span ~hop ~now pkt
        end
        else span_tail_drop span ~hop ~now pkt;
        let internal = q.stats.dropped - dropped_before - (if accepted then 0 else 1) in
        if not accepted then tail_drop pkt;
        if internal > 0 then internal_drops internal;
        update_backlog ();
        accepted
      in
      let[@ccsim.hot] dequeue () =
        let dropped_before = q.stats.dropped in
        let pkt = q.dequeue () in
        if pkt != Packet.none then begin
          Option.iter Obs.Metrics.inc m_deq;
          span_dequeue span ~hop ~now pkt;
          match m_sojourn with
          | Some h ->
              (* Enqueue times are simulated clock readings, never NaN. *)
              let t0 = Ccsim_util.Int_table.find enq_times pkt.Packet.uid ~default:Float.nan in
              if not (Float.is_nan t0) then begin
                Ccsim_util.Int_table.remove enq_times pkt.Packet.uid;
                Obs.Metrics.observe h (now () -. t0)
              end
          | None -> ()
        end;
        let internal = q.stats.dropped - dropped_before in
        if internal > 0 then internal_drops internal;
        compact_enq_times ();
        update_backlog ();
        pkt
      in
      { q with enqueue; dequeue }
