let jain_index xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Fairness.jain_index: empty array";
  Array.iter (fun x -> if x < 0.0 then invalid_arg "Fairness.jain_index: negative allocation") xs;
  let sum = Array.fold_left ( +. ) 0.0 xs in
  let sum_sq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  if Feq.feq ~eps:0.0 sum_sq 0.0 then 1.0 else sum *. sum /. (float_of_int n *. sum_sq)

let max_min_with_weights ~capacity ~demands ~weights =
  if capacity < 0.0 then invalid_arg "Fairness.max_min: negative capacity";
  let n = Array.length demands in
  if Array.length weights <> n then invalid_arg "Fairness.max_min: weights length mismatch";
  Array.iter (fun d -> if d < 0.0 then invalid_arg "Fairness.max_min: negative demand") demands;
  Array.iter (fun w -> if w <= 0.0 then invalid_arg "Fairness.max_min: weights must be positive") weights;
  let alloc = Array.make n 0.0 in
  let satisfied = Array.make n false in
  let remaining = ref capacity in
  let continue = ref (n > 0) in
  (* Progressive filling: repeatedly give each unsatisfied flow capacity in
     proportion to its weight until it meets its demand or capacity runs out. *)
  while !continue do
    let active_weight = ref 0.0 in
    for i = 0 to n - 1 do
      if not satisfied.(i) then active_weight := !active_weight +. weights.(i)
    done;
    if Feq.feq ~eps:0.0 !active_weight 0.0 || !remaining <= 1e-12 then continue := false
    else begin
      let fill = !remaining /. !active_weight in
      (* The binding flow: smallest remaining normalized demand. *)
      let binding = ref fill in
      for i = 0 to n - 1 do
        if not satisfied.(i) then begin
          let need = (demands.(i) -. alloc.(i)) /. weights.(i) in
          if need < !binding then binding := need
        end
      done;
      let step = !binding in
      if step <= 0.0 then begin
        (* Flows with zero residual demand: mark satisfied and retry. *)
        for i = 0 to n - 1 do
          if (not satisfied.(i)) && demands.(i) -. alloc.(i) <= 1e-12 then satisfied.(i) <- true
        done
      end
      else begin
        for i = 0 to n - 1 do
          if not satisfied.(i) then begin
            let grant = step *. weights.(i) in
            alloc.(i) <- alloc.(i) +. grant;
            remaining := !remaining -. grant;
            if demands.(i) -. alloc.(i) <= 1e-12 then satisfied.(i) <- true
          end
        done
      end
    end
  done;
  alloc

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let harm ~solo ~contended =
  if solo <= 0.0 then invalid_arg "Fairness.harm: solo must be positive";
  clamp01 ((solo -. contended) /. solo)

let harm_lower_is_better ~solo ~contended =
  if contended <= 0.0 then invalid_arg "Fairness.harm_lower_is_better: contended must be positive";
  clamp01 ((contended -. solo) /. contended)

let starvation_episodes ~throughput ~fair_share ~threshold =
  let cut = threshold *. fair_share in
  Array.fold_left (fun acc x -> if x < cut then acc + 1 else acc) 0 throughput
