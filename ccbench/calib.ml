(* Calibration kernel: a fixed amount of discrete-event-simulation-shaped
   work whose CPU time measures how fast the host is running right now.

   ccbench brackets every workload run with two runs of this program and
   divides the workload's CPU time by their mean, which cancels most of
   the host's speed drift (frequency changes, noisy neighbours) that
   makes raw timings on a shared machine unrepeatable.

   The kernel mirrors the simulator's cost profile without sharing any of
   its code: a binary heap of timestamped closures in a growable array,
   one short-lived closure and event record allocated per event, float
   arithmetic and scattered writes over per-flow state. It links no ccsim
   library, so no change to the simulator can move it.

   Frozen: [calib_ref_s] in ccbench.ml is pinned against this exact code
   and size. Changing either invalidates every calibrated number recorded
   so far. Prints its checksum so the caller can verify the work ran. *)

type event = { time : float; seq : int; run : unit -> unit }

let events = 1_000_000
let flows = 4096

let () =
  let dummy = { time = 0.0; seq = 0; run = ignore } in
  let heap = ref (Array.make 1024 dummy) in
  let size = ref 0 in
  let seq = ref 0 in
  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq) in
  let push time run =
    if !size = Array.length !heap then begin
      let bigger = Array.make (2 * !size) dummy in
      Array.blit !heap 0 bigger 0 !size;
      heap := bigger
    end;
    let h = !heap in
    incr seq;
    let ev = { time; seq = !seq; run } in
    let rec up i =
      if i = 0 then h.(0) <- ev
      else
        let parent = (i - 1) / 2 in
        if before ev h.(parent) then begin
          h.(i) <- h.(parent);
          up parent
        end
        else h.(i) <- ev
    in
    up !size;
    incr size
  in
  let pop () =
    let h = !heap in
    let top = h.(0) in
    decr size;
    let last = h.(!size) in
    h.(!size) <- dummy;
    let n = !size in
    let rec down i =
      let l = (2 * i) + 1 in
      if l >= n then h.(i) <- last
      else
        let c = if l + 1 < n && before h.(l + 1) h.(l) then l + 1 else l in
        if before h.(c) last then begin
          h.(i) <- h.(c);
          down c
        end
        else h.(i) <- last
    in
    if n > 0 then down 0;
    top
  in
  let rng = ref 0x2545F4914F6CDD1D in
  let uniform () =
    rng := (!rng * 3935559000370003845) + 2691343689449507681;
    float_of_int ((!rng lsr 11) land 0xFFFFFFFFFFFF) /. 281474976710656.0
  in
  let level = Array.make flows 0.0 in
  let count = Array.make flows 0 in
  let now = ref 0.0 in
  let rec tick flow () =
    let u = uniform () in
    level.(flow) <- (level.(flow) *. 0.999) +. u;
    count.(flow) <- count.(flow) + 1;
    push (!now +. 0.001 +. (u *. 0.01)) (tick flow);
    (* One event in eight also arms a timer on a random flow, the way
       retransmission and pacing timers interleave with packet events. *)
    if count.(flow) land 7 = 0 then begin
      let other = int_of_float (uniform () *. float_of_int flows) in
      push (!now +. 0.05) (fun () -> level.(other) <- level.(other) *. 0.5)
    end
  in
  for flow = 0 to flows - 1 do
    push (uniform () *. 0.01) (tick flow)
  done;
  for _ = 1 to events do
    let ev = pop () in
    now := ev.time;
    ev.run ()
  done;
  let total = Array.fold_left ( + ) 0 count in
  let sum = Array.fold_left ( +. ) 0.0 level in
  Printf.printf "calib %d %h\n" total sum
