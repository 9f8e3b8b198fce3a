(* R7 twin: the same cross-unit sum, silent under the comment-form
   annotation (recovered from the source text, covers lines L/L+1). *)

let scaled (dur_s : float) (rate_bps : float) =
  (* lint: allow R7 -- fixture: deliberate cross-unit sum *)
  dur_s +. rate_bps
