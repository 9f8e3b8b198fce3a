module Obs = Ccsim_obs

type t = {
  sim : Ccsim_engine.Sim.t;
  bucket : Token_bucket.t;
  queue : Packet.t Ring.t;
  limit_bytes : int;
  sink : Packet.t -> unit;
  mutable backlog : int;
  mutable dropped : int;
  mutable release_pending : bool;
  mutable release : unit -> unit;
      (* the wake-up event, built once per shaper: a stall schedules it
         rather than a closure *)
  m_conforming : Obs.Metrics.counter option;
  m_dropped : Obs.Metrics.counter option;
  obs_recorder : Obs.Recorder.t option;
}

let note_drop t (pkt : Packet.t) =
  (match t.m_dropped with Some c -> Obs.Metrics.inc c | None -> ());
  match t.obs_recorder with
  | Some r ->
      Obs.Recorder.record r
        ~at:(Ccsim_engine.Sim.now t.sim)
        ~severity:Obs.Recorder.Warn ~kind:"qdisc" ~point:"shaper"
        ~fields:[ ("flow", string_of_int pkt.flow); ("bytes", string_of_int pkt.size_bytes) ]
        "drop"
  | None -> ()

let forward t pkt =
  (match t.m_conforming with Some c -> Obs.Metrics.inc c | None -> ());
  t.sink pkt

(* Drain the head of the queue while tokens allow; otherwise schedule a
   wake-up for when the head packet conforms. *)
let rec drain t =
  let pkt = Ring.peek t.queue in
  if pkt == Packet.none then ()
  else if pkt.Packet.size_bytes > Token_bucket.burst_bytes t.bucket then begin
    (* The bucket can never cover a packet larger than its burst; drop
       it rather than stall the queue forever. *)
    ignore (Ring.pop t.queue);
    t.backlog <- t.backlog - pkt.size_bytes;
    t.dropped <- t.dropped + 1;
    note_drop t pkt;
    drain t
  end
  else begin
    let now = Ccsim_engine.Sim.now t.sim in
    if Token_bucket.try_consume t.bucket ~now ~bytes:pkt.Packet.size_bytes then begin
      ignore (Ring.pop t.queue);
      t.backlog <- t.backlog - pkt.size_bytes;
      forward t pkt;
      drain t
    end
    else if not t.release_pending then begin
      let wait = Token_bucket.time_until_available t.bucket ~now ~bytes:pkt.size_bytes in
      (* Floor the wake-up so float rounding can never schedule a
         zero-progress busy loop at a frozen virtual clock. *)
      let wait = Float.max wait 1e-6 in
      t.release_pending <- true;
      ignore (Ccsim_engine.Sim.schedule t.sim ~delay:wait t.release)
    end
  end

let create sim ~rate_bps ~burst_bytes ?(limit_bytes = Fifo.default_limit_bytes) ~sink () =
  if limit_bytes <= 0 then invalid_arg "Shaper.create: limit must be positive";
  let scope = Obs.Scope.ambient () in
  let counter name =
    Option.map (fun m -> Obs.Metrics.counter m name) scope.Obs.Scope.metrics
  in
  let t =
    {
      sim;
      bucket = Token_bucket.create ~rate_bps ~burst_bytes ~now:(Ccsim_engine.Sim.now sim);
      queue = Ring.create ~filler:Packet.none;
      limit_bytes;
      sink;
      backlog = 0;
      dropped = 0;
      release_pending = false;
      release = ignore;
      m_conforming = counter "shaper_conforming_total";
      m_dropped = counter "shaper_dropped_total";
      obs_recorder = scope.Obs.Scope.recorder;
    }
  in
  t.release <-
    (fun () ->
      t.release_pending <- false;
      drain t);
  t

let input t (pkt : Packet.t) =
  let now = Ccsim_engine.Sim.now t.sim in
  if Ring.is_empty t.queue && Token_bucket.try_consume t.bucket ~now ~bytes:pkt.size_bytes then
    forward t pkt
  else if t.backlog + pkt.size_bytes > t.limit_bytes then begin
    t.dropped <- t.dropped + 1;
    note_drop t pkt
  end
  else begin
    Ring.push t.queue pkt;
    t.backlog <- t.backlog + pkt.size_bytes;
    drain t
  end

let dropped t = t.dropped
let as_sink t pkt = input t pkt
