type t = {
  mutable times : float array;
  mutable values : float array;
  mutable len : int;
}

let create () = { times = Array.make 16 0.0; values = Array.make 16 0.0; len = 0 }

let ensure_capacity t =
  if t.len = Array.length t.times then begin
    let cap = 2 * Array.length t.times in
    let times = Array.make cap 0.0 and values = Array.make cap 0.0 in
    Array.blit t.times 0 times 0 t.len;
    Array.blit t.values 0 values 0 t.len;
    t.times <- times;
    t.values <- values
  end

let add t ~time ~value =
  if t.len > 0 && time < t.times.(t.len - 1) then
    invalid_arg "Timeseries.add: times must be non-decreasing";
  ensure_capacity t;
  t.times.(t.len) <- time;
  t.values.(t.len) <- value;
  t.len <- t.len + 1

let length t = t.len
let is_empty t = t.len = 0
let times t = Array.sub t.times 0 t.len
let values t = Array.sub t.values 0 t.len

let to_list t =
  List.init t.len (fun i -> (t.times.(i), t.values.(i)))

(* Index of the last point with time <= given time. *)
let index_at t time =
  let rec loop lo hi =
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      if t.times.(mid) <= time then loop (mid + 1) hi else loop lo mid
  in
  loop 0 t.len

let value_at t time =
  if t.len = 0 then invalid_arg "Timeseries.value_at: empty series";
  let i = index_at t time in
  if i < 0 then invalid_arg "Timeseries.value_at: time precedes first point";
  t.values.(i)

let rate_of_cumulative t ~interval =
  if interval <= 0.0 then invalid_arg "Timeseries.rate_of_cumulative: interval must be positive";
  let out = create () in
  if t.len > 0 then begin
    let t0 = t.times.(0) and t_end = t.times.(t.len - 1) in
    let n = int_of_float (Float.floor ((t_end -. t0) /. interval)) in
    for i = 1 to n do
      let time = t0 +. (float_of_int i *. interval) in
      (* Clamp against floating-point drift below the first point. *)
      let before_time = Float.max t0 (time -. interval) in
      let now = value_at t time and before = value_at t before_time in
      add out ~time ~value:((now -. before) /. interval)
    done
  end;
  out

let between t ~lo ~hi =
  let out = create () in
  for i = 0 to t.len - 1 do
    if t.times.(i) >= lo && t.times.(i) <= hi then add out ~time:t.times.(i) ~value:t.values.(i)
  done;
  out

let mean_value t =
  if t.len = 0 then invalid_arg "Timeseries.mean_value: empty series";
  let sum = ref 0.0 in
  for i = 0 to t.len - 1 do
    sum := !sum +. t.values.(i)
  done;
  !sum /. float_of_int t.len

let time_weighted_mean t ~until =
  if t.len = 0 then invalid_arg "Timeseries.time_weighted_mean: empty series";
  if until < t.times.(0) then invalid_arg "Timeseries.time_weighted_mean: until precedes start";
  let acc = ref 0.0 in
  let span = until -. t.times.(0) in
  if span <= 0.0 then t.values.(0)
  else begin
    for i = 0 to t.len - 1 do
      let t_i = t.times.(i) in
      if t_i < until then begin
        let t_next = if i + 1 < t.len then Float.min t.times.(i + 1) until else until in
        acc := !acc +. (t.values.(i) *. (t_next -. t_i))
      end
    done;
    !acc /. span
  end
