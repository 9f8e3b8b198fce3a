module U = Ccsim_util
module Rcs = Ccsim_measure.Rcs

type row = {
  scheme : string;
  flow : string;
  simulated_mbps : float;
  model_mbps : float;
  relative_error : float;
}

let rate_bps = U.Units.mbps 50.0

(* User A: flows 0-3; user B: flow 4. *)
let user_of flow = if flow <= 3 then `A else `B
let labels = [ "a0"; "a1"; "a2"; "a3"; "b0" ]

let model ~per_user =
  let leaf name = Rcs.leaf ~name ~demand_bps:Float.infinity in
  let tree =
    if per_user then
      Rcs.node ~name:"link"
        [
          Rcs.node ~name:"userA" (List.map leaf [ "a0"; "a1"; "a2"; "a3" ]);
          Rcs.node ~name:"userB" [ leaf "b0" ];
        ]
    else Rcs.node ~name:"link" (List.map leaf labels)
  in
  Rcs.allocate ~capacity_bps:rate_bps tree

let run ?(duration = 40.0) ?(seed = 42) () =
  let schemes =
    [
      ("per-flow FQ", (fun _flow -> 1.0), false);
      (* Per-user FQ approximated by weighting each of user A's four
         flows at 1/4 — what a per-user scheduler enforces. *)
      ("per-user FQ", (fun flow -> match user_of flow with `A -> 0.25 | `B -> 1.0), true);
    ]
  in
  List.concat_map
    (fun (scheme, _weight_fn, per_user) ->
      let qdisc =
        let bdp = U.Units.bdp_bytes ~rate_bps ~rtt_s:0.05 in
        match per_user with
        | false -> Ccsim_net.Drr.create ~limit_bytes:(4 * bdp) ()
        | true ->
            Ccsim_net.Drr.create ~limit_bytes:(4 * bdp)
              ~weight_of_flow:(fun flow -> match user_of flow with `A -> 0.25 | `B -> 1.0)
              ()
      in
      let sim = Ccsim_engine.Sim.create () in
      ignore seed;
      let topo = Ccsim_net.Topology.dumbbell sim ~rate_bps ~delay_s:0.025 ~qdisc () in
      let conns =
        List.mapi
          (fun flow label ->
            let conn =
              Ccsim_tcp.Connection.establish topo ~flow ~cca:(Ccsim_cca.Cubic.create ()) ()
            in
            Ccsim_tcp.Sender.set_unlimited conn.sender;
            (label, conn))
          labels
      in
      Ccsim_engine.Sim.run ~until:duration sim;
      let predictions = model ~per_user in
      List.map
        (fun (label, conn) ->
          let simulated =
            float_of_int (Ccsim_tcp.Receiver.bytes_received conn.Ccsim_tcp.Connection.receiver)
            *. 8.0 /. duration
          in
          let predicted = Rcs.allocation_for predictions label in
          {
            scheme;
            flow = label;
            simulated_mbps = U.Units.to_mbps simulated;
            model_mbps = U.Units.to_mbps predicted;
            relative_error = Float.abs (simulated -. predicted) /. predicted;
          })
        conns)
    schemes

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b
    "X3: per-flow vs per-user fair queueing, vs the Recursive Congestion Shares model";
  let table =
    U.Table.create
      ~columns:
        [
          ("scheme", U.Table.Left);
          ("flow", U.Table.Left);
          ("simulated Mbit/s", U.Table.Right);
          ("RCS model", U.Table.Right);
          ("rel. error", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          r.scheme;
          r.flow;
          U.Table.cell_f r.simulated_mbps;
          U.Table.cell_f r.model_mbps;
          U.Table.cell_pct r.relative_error;
        ])
    rows;
  Report.table b table
