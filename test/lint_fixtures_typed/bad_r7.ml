(* R7 fixture: unit-mismatched arithmetic the dimensional analysis must
   catch -- an additive mix, a cross-dimension comparison, a
   declared-vs-inferred let binding, and two same-dimension scale mixes. *)

let bad_sum (dur_s : float) (rate_bps : float) = dur_s +. rate_bps

let bad_cmp (win_bytes : float) (budget_pkts : float) = win_bytes < budget_pkts

let bad_decl (size_bytes : float) (dur_s : float) =
  let speed_s = size_bytes /. dur_s in
  speed_s

let late (rtt_s : float) (timeout_ms : float) = rtt_s > timeout_ms

let headroom (link_bps : float) (app_mbps : float) = link_bps -. app_mbps
