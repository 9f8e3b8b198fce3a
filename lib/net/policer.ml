module Obs = Ccsim_obs

type t = {
  sim : Ccsim_engine.Sim.t;
  bucket : Token_bucket.t;
  sink : Packet.t -> unit;
  mutable dropped : int;
  m_conforming : Obs.Metrics.counter option;
  m_dropped : Obs.Metrics.counter option;
  obs_recorder : Obs.Recorder.t option;
}

let create sim ~rate_bps ~burst_bytes ~sink () =
  let scope = Obs.Scope.ambient () in
  let counter name =
    Option.map (fun m -> Obs.Metrics.counter m name) scope.Obs.Scope.metrics
  in
  {
    sim;
    bucket = Token_bucket.create ~rate_bps ~burst_bytes ~now:(Ccsim_engine.Sim.now sim);
    sink;
    dropped = 0;
    m_conforming = counter "policer_conforming_total";
    m_dropped = counter "policer_dropped_total";
    obs_recorder = scope.Obs.Scope.recorder;
  }

let input t (pkt : Packet.t) =
  let now = Ccsim_engine.Sim.now t.sim in
  if Token_bucket.try_consume t.bucket ~now ~bytes:pkt.size_bytes then begin
    (match t.m_conforming with Some c -> Obs.Metrics.inc c | None -> ());
    t.sink pkt
  end
  else begin
    t.dropped <- t.dropped + 1;
    (match t.m_dropped with Some c -> Obs.Metrics.inc c | None -> ());
    match t.obs_recorder with
    | Some r ->
        Obs.Recorder.record r ~at:now ~severity:Obs.Recorder.Warn ~kind:"qdisc"
          ~point:"policer"
          ~fields:
            [ ("flow", string_of_int pkt.flow); ("bytes", string_of_int pkt.size_bytes) ]
          "drop"
    | None -> ()
  end

let dropped t = t.dropped
let as_sink t pkt = input t pkt
