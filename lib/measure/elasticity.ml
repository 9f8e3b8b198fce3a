module U = Ccsim_util

let score_with plan ~sample_rate ~pulse_freq ~cross ~own =
  let cross_mag = U.Fft.magnitude_at plan cross ~sample_rate ~freq:pulse_freq in
  let own_mag = U.Fft.magnitude_at plan own ~sample_rate ~freq:pulse_freq in
  cross_mag /. Float.max own_mag 1e-6

let score ~sample_rate ~pulse_freq ~cross ~own =
  let n = Array.length cross in
  if Array.length own <> n then invalid_arg "Elasticity.score: signal length mismatch";
  if not (U.Fft.is_power_of_two n) then
    invalid_arg "Elasticity.score: length must be a power of two";
  score_with (U.Fft.plan n) ~sample_rate ~pulse_freq ~cross ~own

let windowed ~sample_rate ~pulse_freq ~window ~cross ~own =
  if not (U.Fft.is_power_of_two window) then
    invalid_arg "Elasticity.windowed: window must be a power of two";
  let plan = U.Fft.plan window in
  let interval = 1.0 /. sample_rate in
  let cross_r = U.Timeseries.resample cross ~interval in
  let own_r = U.Timeseries.resample own ~interval in
  let cross_v = U.Timeseries.values cross_r and own_v = U.Timeseries.values own_r in
  let times = U.Timeseries.times cross_r in
  let n = min (Array.length cross_v) (Array.length own_v) in
  let out = U.Timeseries.create () in
  let step = window / 2 in
  let pos = ref window in
  while !pos <= n do
    let lo = !pos - window in
    let c = Array.sub cross_v lo window and o = Array.sub own_v lo window in
    let e = score_with plan ~sample_rate ~pulse_freq ~cross:c ~own:o in
    U.Timeseries.add out ~time:times.(!pos - 1) ~value:e;
    pos := !pos + step
  done;
  out

type verdict = { samples : int; mean : float; p90 : float; elastic : bool }

let verdict ?(threshold = 0.5) values =
  let samples = Array.length values in
  if samples = 0 then { samples; mean = 0.0; p90 = 0.0; elastic = false }
  else
    let p90 = U.Stats.percentile values 90.0 in
    { samples; mean = U.Stats.mean values; p90; elastic = p90 > threshold }
