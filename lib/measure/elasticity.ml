module U = Ccsim_util

type verdict = { samples : int; mean : float; p90 : float; elastic : bool }

let verdict ?(threshold = 0.5) values =
  let samples = Array.length values in
  if samples = 0 then { samples; mean = 0.0; p90 = 0.0; elastic = false }
  else
    let p90 = U.Stats.percentile values 90.0 in
    { samples; mean = U.Stats.mean values; p90; elastic = p90 > threshold }
