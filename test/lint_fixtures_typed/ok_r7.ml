(* R7 twin: the same cross-unit sum, silent under
   [@lint.allow R7 "why"] on the expression. *)

let scaled (dur_s : float) (rate_bps : float) =
  (dur_s +. rate_bps) [@lint.allow R7 "fixture: deliberate cross-unit sum"]
