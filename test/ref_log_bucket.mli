(* Test-only reference: the Float.frexp bucket function
   Ccsim_obs.Metrics.observe used before it read the exponent bits. *)

val bucket_index : float -> int
(** [clamp (e + 41)] to [[0, 63]] for [Float.frexp x = (_, e)]. *)
