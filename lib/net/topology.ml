module Sim = Ccsim_engine.Sim

type ingress =
  | No_ingress
  | Shape of { rate_bps : float; burst_bytes : int }
  | Police of { rate_bps : float; burst_bytes : int }

type t = {
  sim : Sim.t;
  bottleneck : Link.t;
  fwd_dispatch : Dispatch.t;
  rev_dispatch : Dispatch.t;
  fwd_entry : flow:int -> Packet.t -> unit;
  rev_entry : flow:int -> Packet.t -> unit;
  one_way_delay : flow:int -> float;
}

let dumbbell sim ~rate_bps ~delay_s ?qdisc ?(edge_delay = fun _ -> 0.001)
    ?(ingress = fun _ -> No_ingress) () =
  (* Edge and reverse links run at 100x the bottleneck: uncongested. *)
  let edge_rate = 100.0 *. rate_bps in
  let fwd_dispatch = Dispatch.create () in
  let rev_dispatch = Dispatch.create () in
  let bottleneck =
    Link.create sim ~name:"bottleneck" ~rate_bps ~delay_s ?qdisc
      ~sink:(Dispatch.as_sink fwd_dispatch) ()
  in
  (* Per-flow forward edge: edge link -> (optional shaper/policer) -> bottleneck.
     Concurrency/determinism audit (ccsim-lint): the entry tables below
     are closure-local to one topology on one runner domain, and are
     only ever probed by flow id — hash order never leaks. *)
  let fwd_entries : (int, Packet.t -> unit) Hashtbl.t = Hashtbl.create 16 in
  let fwd_entry ~flow =
    match Hashtbl.find_opt fwd_entries flow with
    | Some entry -> entry
    | None ->
        let to_bottleneck = Link.as_sink bottleneck in
        let next =
          match ingress flow with
          | No_ingress -> to_bottleneck
          | Shape { rate_bps; burst_bytes } ->
              Shaper.as_sink (Shaper.create sim ~rate_bps ~burst_bytes ~sink:to_bottleneck ())
          | Police { rate_bps; burst_bytes } ->
              Policer.as_sink (Policer.create sim ~rate_bps ~burst_bytes ~sink:to_bottleneck ())
        in
        let edge =
          Link.create sim
            ~name:(Printf.sprintf "edge:%d" flow)
            ~rate_bps:edge_rate ~delay_s:(edge_delay flow) ~sink:next ()
        in
        let entry = Link.as_sink edge in
        Hashtbl.add fwd_entries flow entry;
        entry
  in
  (* Per-flow reverse path: a single uncongested link covering the whole
     return propagation. *)
  let rev_entries : (int, Packet.t -> unit) Hashtbl.t = Hashtbl.create 16 in
  let rev_entry ~flow =
    match Hashtbl.find_opt rev_entries flow with
    | Some entry -> entry
    | None ->
        let delay = delay_s +. edge_delay flow in
        let link =
          Link.create sim
            ~name:(Printf.sprintf "rev:%d" flow)
            ~rate_bps:edge_rate ~delay_s:delay
            ~qdisc:(Fifo.create ~limit_bytes:100_000_000 ())
            ~sink:(Dispatch.as_sink rev_dispatch) ()
        in
        let entry = Link.as_sink link in
        Hashtbl.add rev_entries flow entry;
        entry
  in
  let one_way_delay ~flow = delay_s +. edge_delay flow in
  { sim; bottleneck; fwd_dispatch; rev_dispatch; fwd_entry; rev_entry; one_way_delay }

let base_rtt t ~flow = 2.0 *. t.one_way_delay ~flow
