module Sim = Ccsim_engine.Sim
module U = Ccsim_util

type t = { series : U.Timeseries.t; sim : Sim.t }

let record t rate =
  U.Timeseries.add t.series ~time:(Sim.now t.sim) ~value:rate

let ornstein_uhlenbeck sim ~link ~rng ~mean_bps ?(volatility = 0.15) () =
  if mean_bps <= 0.0 then invalid_arg "Rate_process.ou: mean must be positive";
  let reversion = 0.3 and tick = 0.1 in
  let floor = 0.05 *. mean_bps in
  let t = { series = U.Timeseries.create (); sim } in
  let rate = ref mean_bps in
  Link.set_rate link !rate;
  record t !rate;
  Sim.every sim ~interval:tick (fun () ->
      let pull = reversion *. (mean_bps -. !rate) *. tick in
      let noise = U.Rng.normal rng ~mean:0.0 ~stddev:(volatility *. mean_bps *. sqrt tick) in
      rate := Float.max floor (!rate +. pull +. noise);
      Link.set_rate link !rate;
      record t !rate);
  t

let rate_series t = t.series

let mean_rate t =
  if U.Timeseries.is_empty t.series then 0.0
  else U.Timeseries.time_weighted_mean t.series ~until:(Sim.now t.sim)
