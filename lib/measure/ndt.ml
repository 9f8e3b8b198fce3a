module U = Ccsim_util

type access = Fixed | Cellular

type ground_truth =
  | Gt_app_limited
  | Gt_rwnd_limited
  | Gt_cellular_variation
  | Gt_contended of int
  | Gt_clean_bulk

type record = {
  id : int;
  access : access;
  duration_s : float;
  interval_s : float;
  throughput_mbps : float array;
  mean_throughput_mbps : float;
  min_rtt_s : float;
  app_limited_frac : float;
  rwnd_limited_frac : float;
  ground_truth : ground_truth option;
}

type mixture = {
  app_limited : float;
  rwnd_limited : float;
  cellular : float;
  contended : float;
  clean_bulk : float;
}

(* Weights chosen to echo the measurement literature (§2.2: Araújo et
   al. found <40% of traffic neither app- nor host- nor receiver-limited). *)
let mixture =
  { app_limited = 0.45; rwnd_limited = 0.15; cellular = 0.20; contended = 0.05; clean_bulk = 0.15 }

let duration = 10.0
let interval = 0.1
let trace_len = int_of_float (duration /. interval)

let noisy rng base frac =
  Float.max 0.05 (base *. (1.0 +. U.Rng.normal rng ~mean:0.0 ~stddev:frac))

(* Per-interval goodput noise around a level: lognormal-ish multiplicative. *)
let trace_of_levels rng levels =
  Array.map (fun level -> noisy rng level 0.08) levels

let make rng id access gt trace app_frac rwnd_frac =
  let mean = U.Stats.mean trace in
  {
    id;
    access;
    duration_s = duration;
    interval_s = interval;
    throughput_mbps = trace;
    mean_throughput_mbps = mean;
    min_rtt_s = U.Rng.uniform rng ~lo:0.005 ~hi:0.15;
    app_limited_frac = app_frac;
    rwnd_limited_frac = rwnd_frac;
    ground_truth = Some gt;
  }

let gen_app_limited rng id =
  (* Demand below capacity: flat at the application's offered rate. *)
  let demand = U.Rng.uniform rng ~lo:0.5 ~hi:25.0 in
  let levels = Array.make trace_len demand in
  make rng id Fixed Gt_app_limited (trace_of_levels rng levels)
    (U.Rng.uniform rng ~lo:0.2 ~hi:0.95)
    (U.Rng.uniform rng ~lo:0.0 ~hi:0.05)

let gen_rwnd_limited rng id =
  (* Throughput pinned at rwnd / RTT. *)
  let cap = U.Rng.uniform rng ~lo:1.0 ~hi:40.0 in
  let levels = Array.make trace_len cap in
  make rng id Fixed Gt_rwnd_limited (trace_of_levels rng levels) 0.0
    (U.Rng.uniform rng ~lo:0.3 ~hi:0.95)

let gen_cellular rng id =
  (* Smooth capacity wander (AR(1) around a mean), no discrete shifts. *)
  let mean_rate = U.Rng.uniform rng ~lo:2.0 ~hi:60.0 in
  let levels = Array.make trace_len mean_rate in
  let x = ref mean_rate in
  for i = 0 to trace_len - 1 do
    x := mean_rate +. (0.9 *. (!x -. mean_rate)) +. U.Rng.normal rng ~mean:0.0 ~stddev:(0.05 *. mean_rate);
    levels.(i) <- Float.max 0.2 !x
  done;
  make rng id Cellular Gt_cellular_variation (trace_of_levels rng levels) 0.0 0.0

let gen_contended rng id =
  (* Competing backlogged flows join/leave: capacity / k level shifts. *)
  let capacity = U.Rng.uniform rng ~lo:10.0 ~hi:100.0 in
  let n_events = 1 + U.Rng.int rng 3 in
  let levels = Array.make trace_len 0.0 in
  let competitors = ref (U.Rng.int rng 2) in
  let change_at =
    Array.init n_events (fun _ -> 5 + U.Rng.int rng (trace_len - 10)) |> Array.to_list
    |> List.sort_uniq compare
  in
  let remaining = ref change_at in
  let max_seen = ref 1 in
  for i = 0 to trace_len - 1 do
    (match !remaining with
    | c :: rest when i >= c ->
        remaining := rest;
        (* A competitor arrives or (if any) departs. *)
        if !competitors > 0 && U.Rng.bool rng then decr competitors else incr competitors;
        if !competitors + 1 > !max_seen then max_seen := !competitors + 1
    | _ :: _ | [] -> ());
    levels.(i) <- capacity /. float_of_int (!competitors + 1)
  done;
  make rng id Fixed (Gt_contended !max_seen) (trace_of_levels rng levels) 0.0 0.0

let gen_clean_bulk rng id =
  let capacity = U.Rng.uniform rng ~lo:5.0 ~hi:200.0 in
  let levels = Array.make trace_len capacity in
  make rng id Fixed Gt_clean_bulk (trace_of_levels rng levels) 0.0 0.0

let generate ~rng ~n =
  let total =
    mixture.app_limited +. mixture.rwnd_limited +. mixture.cellular +. mixture.contended
    +. mixture.clean_bulk
  in
  List.init n (fun id ->
      let u = U.Rng.float rng total in
      if u < mixture.app_limited then gen_app_limited rng id
      else if u < mixture.app_limited +. mixture.rwnd_limited then gen_rwnd_limited rng id
      else if u < mixture.app_limited +. mixture.rwnd_limited +. mixture.cellular then
        gen_cellular rng id
      else if
        u < mixture.app_limited +. mixture.rwnd_limited +. mixture.cellular +. mixture.contended
      then gen_contended rng id
      else gen_clean_bulk rng id)

(* Drop the first 2 s of snapshots: the slow-start ramp. *)
let skip_s = 2.0

let of_speedtest ~id ~access snapshots =
  let snapshots =
    match Array.length snapshots with
    | 0 -> snapshots
    | _ ->
        let t0 = snapshots.(0).Ccsim_tcp.Tcp_info.at in
        let kept =
          Array.to_list snapshots
          |> List.filter (fun (s : Ccsim_tcp.Tcp_info.t) -> s.at -. t0 >= skip_s)
        in
        Array.of_list kept
  in
  let n = Array.length snapshots in
  if n < 2 then None
  else begin
    let first = snapshots.(0) and last = snapshots.(n - 1) in
    let duration_s = last.Ccsim_tcp.Tcp_info.at -. first.Ccsim_tcp.Tcp_info.at in
    let interval_s = duration_s /. float_of_int (n - 1) in
    let throughput =
      Array.init (n - 1) (fun i ->
          Ccsim_tcp.Tcp_info.throughput_bps ~prev:snapshots.(i) ~cur:snapshots.(i + 1) /. 1e6)
    in
    let elapsed = Float.max 1e-9 last.elapsed_s in
    Some
      {
        id;
        access;
        duration_s;
        interval_s;
        throughput_mbps = throughput;
        mean_throughput_mbps = U.Stats.mean throughput;
        min_rtt_s = (if Float.is_finite last.min_rtt then last.min_rtt else 0.0);
        app_limited_frac = last.app_limited_s /. elapsed;
        rwnd_limited_frac = last.rwnd_limited_s /. elapsed;
        ground_truth = None;
      }
  end

let with_ground_truth record gt = { record with ground_truth = Some gt }
