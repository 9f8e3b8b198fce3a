(* Test-only reference: Ccsim_obs.Metrics's bucket function as it was,
   verbatim. test_obs.ml checks the bucket Metrics.observe picks
   against it on every class of float. *)

let bucket_count = 64
let exponent_offset = 41

let bucket_index x =
  let _, e = Float.frexp x in
  let i = e + exponent_offset in
  if i < 0 then 0 else if i >= bucket_count then bucket_count - 1 else i
