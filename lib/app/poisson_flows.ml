module Sim = Ccsim_engine.Sim

type flow_record = {
  started : float;
  mutable finished : float option;
  mutable retransmits : int;
  mutable fit_in_initial_window : bool;
}

type t = {
  mutable flows : flow_record list; (* newest first *)
  mutable spawned : int;
}

let pareto_shape = 1.2
let max_size_bytes = 10_000_000

let start sim topo ~rng ~arrival_rate ?(mean_size_bytes = 30_000.0) ?(stop = infinity) () =
  if arrival_rate <= 0.0 then invalid_arg "Poisson_flows.start: arrival rate must be positive";
  let t = { flows = []; spawned = 0 } in
  let next_id = ref 1000 in
  (* Choose the Pareto scale so that the (truncated) mean is roughly the
     requested mean: for shape a > 1, mean = scale * a / (a - 1). *)
  let scale = mean_size_bytes *. (pareto_shape -. 1.0) /. pareto_shape in
  let scale = Float.max 1000.0 scale in
  let spawn () =
    let id = !next_id in
    incr next_id;
    t.spawned <- t.spawned + 1;
    let size =
      int_of_float
        (Ccsim_util.Rng.bounded_pareto rng ~shape:pareto_shape ~scale
           ~cap:(float_of_int max_size_bytes))
    in
    let size = max 100 size in
    let record =
      {
        started = Sim.now sim;
        finished = None;
        retransmits = 0;
        fit_in_initial_window = false;
      }
    in
    t.flows <- record :: t.flows;
    let conn = ref None in
    let on_complete sender =
      record.finished <- Some (Sim.now sim);
      record.retransmits <- Ccsim_tcp.Sender.segs_retrans sender;
      record.fit_in_initial_window <-
        record.retransmits = 0
        && float_of_int size <= Ccsim_cca.Cca.initial_window ~mss:Ccsim_util.Units.mss;
      (* Tear down lazily so the completion ack path stays registered
         while this callback runs. *)
      ignore
        (Sim.schedule sim ~delay:0.0 (fun () ->
             match !conn with
             | Some c -> Ccsim_tcp.Connection.teardown topo c
             | None -> ()))
    in
    let c =
      Ccsim_tcp.Connection.establish topo ~flow:id ~cca:(Ccsim_cca.Reno.create ()) ~on_complete ()
    in
    conn := Some c;
    Ccsim_tcp.Sender.write c.sender size;
    Ccsim_tcp.Sender.close c.sender
  in
  let rec arrival () =
    if Sim.now sim < stop then begin
      spawn ();
      ignore
        (Sim.schedule sim ~delay:(Ccsim_util.Rng.exponential rng ~mean:(1.0 /. arrival_rate))
           arrival)
    end
  in
  ignore
    (Sim.schedule sim ~delay:(Ccsim_util.Rng.exponential rng ~mean:(1.0 /. arrival_rate)) arrival);
  t

let flows t = List.rev t.flows
let completed t = List.filter (fun r -> Option.is_some r.finished) (flows t)
let spawn_count t = t.spawned

let fraction_within_initial_window t =
  let done_ = completed t in
  match done_ with
  | [] -> 0.0
  | _ ->
      let fit = List.length (List.filter (fun r -> r.fit_in_initial_window) done_) in
      float_of_int fit /. float_of_int (List.length done_)
