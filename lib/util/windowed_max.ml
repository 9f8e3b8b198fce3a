(* Slot [r mod (window + 1)] holds the largest sample of round [r]. The
   window spans window + 1 consecutive rounds, so live rounds never share
   a slot; a slot stamped with an older round than the cutoff is stale. *)
type t = {
  window : int;
  rounds : int array;
      (* round each slot was last written in; -1 = never, which early
         cutoffs still admit, harmlessly: its 0.0 cannot raise a fold
         that starts at 0.0 *)
  maxes : float array;  (* per-slot maximum *)
  best : float array;
      (* one unboxed slot: the maximum over the live slots, kept current
         by every update *)
  mutable latest : int;  (* round of the latest update *)
}

let create ~window =
  if window < 0 then invalid_arg "Windowed_max.create: window must be non-negative";
  {
    window;
    rounds = Array.make (window + 1) (-1);
    maxes = Array.make (window + 1) 0.0;
    best = Array.make 1 0.0;
    latest = 0;
  }

let[@ccsim.hot] get t = t.best.(0)

(* Fold into [best] every slot whose round is at or after [cutoff]. *)
let[@ccsim.hot] rec refold t ~cutoff i =
  if i >= 0 then begin
    if t.rounds.(i) >= cutoff then t.best.(0) <- Float.max t.best.(0) t.maxes.(i);
    refold t ~cutoff (i - 1)
  end

let[@ccsim.hot] update t ~round ~value =
  if round < t.latest then
    invalid_arg "Windowed_max.update: rounds must be non-negative and non-decreasing";
  let slot = round mod Array.length t.rounds in
  if t.rounds.(slot) = round then t.maxes.(slot) <- Float.max t.maxes.(slot) value
  else begin
    t.rounds.(slot) <- round;
    t.maxes.(slot) <- value
  end;
  (* Within a round nothing leaves the window, so the new sample can only
     raise the maximum; a new round may evict slots, so refold. *)
  if round = t.latest then t.best.(0) <- Float.max t.best.(0) value
  else begin
    t.latest <- round;
    t.best.(0) <- 0.0;
    refold t ~cutoff:(round - t.window) t.window
  end
