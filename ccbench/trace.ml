(* Outside-in layer tracing for ccbench's traced run.

   Every span is opened and closed by the benchmark around a call it
   makes (or hands to the program) at a layer's public boundary: the
   qdisc record passed to Topology.dumbbell, the topology's entry points,
   the Sender/Receiver handlers registered on Dispatch, the Cca.t handler
   fields, Fluid_engine calls, and Sim.run itself as the root. A span
   stack gives each layer its self time: its spans' durations minus the
   parts nested spans cover. Whatever runs inside Sim.run outside every
   wrapped call (heap work, link and app timers, monitors) is the
   engine's self time.

   Nothing here allocates per call: clock reads are untagged ints and all
   accumulators are preallocated arrays. Untraced runs use none of it
   except the rejected-arrival counter the qdisc conservation check
   needs. *)

module Sim = Ccsim_engine.Sim
module Net = Ccsim_net
module Cca = Ccsim_cca.Cca

external now_ns : unit -> (int[@untagged]) = "ccbench_now_ns_byte" "ccbench_now_ns"
[@@noalloc]

(* Layers: indices into the per-layer accumulators. *)
let engine = 0
let qdisc = 1
let link = 2
let tcp = 3
let cca = 4
let fluid = 5
let n_layers = 6

(* Log-scale duration histogram: 8 buckets per octave of nanoseconds. *)
let hist_buckets = 8 * 40

let hist_bucket ns = if ns <= 1 then 0 else Int.min (hist_buckets - 1) (int_of_float (8.0 *. Float.log2 (float_of_int ns)))

let hist_quantile h q =
  let total = Array.fold_left ( + ) 0 h in
  if total = 0 then 0.0
  else
    let rank = q *. float_of_int total in
    let rec go b acc =
      let acc = acc + h.(b) in
      if float_of_int acc >= rank || b = hist_buckets - 1 then
        Float.pow 2.0 ((float_of_int b +. 0.5) /. 8.0)
      else go (b + 1) acc
    in
    go 0 0

(* Heap-depth samples are exact up to this depth and clamped above it. *)
let max_depth = 1 lsl 16

(* Minor words are sampled around one CCA call in this many. *)
let gc_every = 64

type t = {
  starts : int array;  (* span stack: start time of each open span *)
  covered : int array;  (* span stack: time nested spans covered so far *)
  mutable depth : int;
  self_ns : int array;  (* per layer *)
  calls : int array;  (* per layer *)
  mutable acks : int;
  mutable ack_ns : int;
  mutable segments : int;
  mutable segment_ns : int;
  mutable conns : int;
  mutable conn_ns : int;
  mutable qdisc_ops : int;
  mutable backlog_max : int;
  mutable build_ns : int;  (* fluid population builds *)
  cca_ack_hist : int array;
  mutable cca_sampled : int;
  cca_words : float array;  (* one slot: minor words over sampled calls *)
  gc_bias : float;  (* words one minor-words read pair itself allocates *)
  heap_depth : int array;
  mutable pending : unit -> int;  (* live events of the traced sim *)
}

let create () =
  {
    starts = Array.make 256 0;
    covered = Array.make 256 0;
    depth = 0;
    self_ns = Array.make n_layers 0;
    calls = Array.make n_layers 0;
    acks = 0;
    ack_ns = 0;
    segments = 0;
    segment_ns = 0;
    conns = 0;
    conn_ns = 0;
    qdisc_ops = 0;
    backlog_max = 0;
    build_ns = 0;
    cca_ack_hist = Array.make hist_buckets 0;
    cca_sampled = 0;
    cca_words = Array.make 1 0.0;
    gc_bias =
      (let w0 = (Gc.minor_words () [@lint.allow R2 "allocation of the sampling itself"]) in
       (Gc.minor_words () [@lint.allow R2 "see above"]) -. w0);
    heap_depth = Array.make (max_depth + 1) 0;
    pending = (fun () -> 0);
  }

let watch_sim t sim = t.pending <- (fun () -> Sim.pending sim)

let enter t =
  let d = t.depth in
  t.starts.(d) <- now_ns ();
  t.covered.(d) <- 0;
  t.depth <- d + 1

(* Close the innermost span, charging it to [layer]; returns its self
   time. *)
let leave t layer =
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = now_ns () - t.starts.(d) in
  let self = dur - t.covered.(d) in
  t.self_ns.(layer) <- t.self_ns.(layer) + self;
  t.calls.(layer) <- t.calls.(layer) + 1;
  if d > 0 then t.covered.(d - 1) <- t.covered.(d - 1) + dur;
  self

let span t layer f =
  enter t;
  let r = f () in
  ignore (leave t layer);
  r

let note_depth t =
  let d = Int.min max_depth (t.pending ()) in
  t.heap_depth.(d) <- t.heap_depth.(d) + 1

(* --- wrappers at layer boundaries ------------------------------------- *)

(* The bottleneck qdisc. Untraced runs only count rejected arrivals, which
   the conservation check needs to tell them from internal drops. *)
let qdisc_wrap tr ~rejected (q : Net.Qdisc.t) =
  match tr with
  | None ->
      {
        q with
        Net.Qdisc.enqueue =
          (fun p ->
            let ok = q.Net.Qdisc.enqueue p in
            if not ok then incr rejected;
            ok);
      }
  | Some t ->
      let enqueue p =
        enter t;
        let ok = q.Net.Qdisc.enqueue p in
        if not ok then incr rejected;
        ignore (leave t qdisc);
        t.qdisc_ops <- t.qdisc_ops + 1;
        let b = q.Net.Qdisc.backlog_bytes () in
        if b > t.backlog_max then t.backlog_max <- b;
        ok
      in
      let dequeue () =
        enter t;
        let r = q.Net.Qdisc.dequeue () in
        ignore (leave t qdisc);
        t.qdisc_ops <- t.qdisc_ops + 1;
        r
      in
      { q with Net.Qdisc.enqueue; dequeue }

(* A topology entry point (fwd_entry/rev_entry of one flow). *)
let entry tr (f : Net.Packet.t -> unit) =
  match tr with
  | None -> f
  | Some t ->
      fun p ->
        note_depth t;
        enter t;
        f p;
        ignore (leave t link)

let ack_handler tr (f : Net.Packet.t -> unit) =
  match tr with
  | None -> f
  | Some t ->
      fun p ->
        enter t;
        f p;
        t.ack_ns <- t.ack_ns + leave t tcp;
        t.acks <- t.acks + 1

let data_handler tr (f : Net.Packet.t -> unit) =
  match tr with
  | None -> f
  | Some t ->
      fun p ->
        enter t;
        f p;
        t.segment_ns <- t.segment_ns + leave t tcp;
        t.segments <- t.segments + 1

(* Connection set-up: sender/receiver construction and registration. *)
let conn_setup tr f =
  match tr with
  | None -> f ()
  | Some t ->
      enter t;
      let r = f () in
      t.conn_ns <- t.conn_ns + leave t tcp;
      t.conns <- t.conns + 1;
      r

(* Other calls into a layer (Sim.run, Sender.write, fluid steps). *)
let call tr layer f = match tr with None -> f () | Some t -> span t layer f

(* A fluid population build: Fluid_engine.create and add_link/add_flow. *)
let fluid_build tr f =
  match tr with
  | None -> f ()
  | Some t ->
      enter t;
      let r = f () in
      t.build_ns <- t.build_ns + leave t fluid;
      r

let cca_wrap tr (c : Cca.t) =
  (match tr with
  | None -> ()
  | Some t ->
      let on_ack = c.Cca.on_ack in
      c.Cca.on_ack <-
        (fun info ->
          if t.calls.(cca) mod gc_every = 0 then begin
            let w0 = (Gc.minor_words () [@lint.allow R2 "sampled CCA allocation, traced run only"]) in
            enter t;
            on_ack info;
            let self = leave t cca in
            t.cca_words.(0) <- t.cca_words.(0) +. ((Gc.minor_words () [@lint.allow R2 "see above"]) -. w0);
            t.cca_sampled <- t.cca_sampled + 1;
            let b = hist_bucket self in
            t.cca_ack_hist.(b) <- t.cca_ack_hist.(b) + 1
          end
          else begin
            enter t;
            on_ack info;
            let b = hist_bucket (leave t cca) in
            t.cca_ack_hist.(b) <- t.cca_ack_hist.(b) + 1
          end);
      let on_loss = c.Cca.on_loss in
      c.Cca.on_loss <-
        (fun info ->
          enter t;
          on_loss info;
          ignore (leave t cca));
      let on_rto = c.Cca.on_rto in
      c.Cca.on_rto <-
        (fun ~now ->
          enter t;
          on_rto ~now;
          ignore (leave t cca));
      let on_send = c.Cca.on_send in
      c.Cca.on_send <-
        (fun ~now ~bytes ->
          enter t;
          on_send ~now ~bytes;
          ignore (leave t cca)));
  c

(* --- derived figures -------------------------------------------------- *)

let heap_depth_p99 t =
  let total = Array.fold_left ( + ) 0 t.heap_depth in
  if total = 0 then 0
  else
    let rank = 0.99 *. float_of_int total in
    let rec go d acc =
      let acc = acc + t.heap_depth.(d) in
      if float_of_int acc >= rank || d = max_depth then d else go (d + 1) acc
    in
    go 0 0

let cca_ns_quantile t q = hist_quantile t.cca_ack_hist q

let cca_words_per_call t =
  if t.cca_sampled = 0 then 0.0 else (t.cca_words.(0) /. float_of_int t.cca_sampled) -. t.gc_bias

(* Bare engine replay: Sim.schedule/cancel/step with no-op callbacks at a
   workload's measured heap depth and cancel share, so heap cost per
   operation is known apart from the event bodies. Returns
   (ns per schedule, cancels included; ns per step). *)
let replay ~depth ~cancel_frac =
  let sim = Sim.create () in
  let state = ref 0x1234567 in
  let uniform () =
    state := (!state * 3935559000370003845) + 2691343689449507681;
    float_of_int ((!state lsr 11) land 0xFFFFFFFFFF) /. 1099511627776.0
  in
  let noop () = () in
  for _ = 1 to Int.max 1 depth do
    ignore (Sim.schedule sim ~delay:(uniform ()) noop)
  done;
  let batch = 64 in
  let ids = Array.make batch (Sim.schedule sim ~delay:(uniform ()) noop) in
  let sched_ns = ref 0 and step_ns = ref 0 and scheduled = ref 0 and stepped = ref 0 in
  for _ = 1 to 4000 do
    let t0 = now_ns () in
    for k = 0 to batch - 1 do
      ids.(k) <- Sim.schedule sim ~delay:(uniform ()) noop
    done;
    let cancels = ref 0 in
    for k = 0 to batch - 1 do
      if uniform () < cancel_frac then begin
        Sim.cancel sim ids.(k);
        incr cancels
      end
    done;
    let t1 = now_ns () in
    for _ = 1 to batch - !cancels do
      ignore (Sim.step sim)
    done;
    let t2 = now_ns () in
    sched_ns := !sched_ns + (t1 - t0);
    step_ns := !step_ns + (t2 - t1);
    scheduled := !scheduled + batch;
    stepped := !stepped + batch - !cancels
  done;
  ( float_of_int !sched_ns /. float_of_int !scheduled,
    float_of_int !step_ns /. float_of_int (Int.max 1 !stepped) )
