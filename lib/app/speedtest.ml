module Sim = Ccsim_engine.Sim

type result = {
  snapshots : Ccsim_tcp.Tcp_info.t array;
  mean_throughput_bps : float;
}

type t = { mutable result : result option }

let start sim ~sender ?(duration = 10.0) ?(interval = 0.1) ?(on_finish = fun _ -> ()) () =
  if duration <= 0.0 || interval <= 0.0 then
    invalid_arg "Speedtest.start: duration and interval must be positive";
  let t = { result = None } in
  let started = Sim.now sim in
  let snapshots = ref [] in
  Ccsim_tcp.Sender.set_unlimited sender;
  Sim.every sim ~interval ~stop_after:(started +. duration) (fun () ->
      snapshots := Ccsim_tcp.Sender.info sender :: !snapshots);
  ignore
    (Sim.schedule_at sim ~time:(started +. duration) (fun () ->
         Ccsim_tcp.Sender.close sender;
         let snaps = Array.of_list (List.rev !snapshots) in
         let acked = Ccsim_tcp.Sender.bytes_acked sender in
         let result =
           {
             snapshots = snaps;
             mean_throughput_bps = float_of_int acked *. 8.0 /. duration;
           }
         in
         t.result <- Some result;
         on_finish result));
  t

let result t = t.result
