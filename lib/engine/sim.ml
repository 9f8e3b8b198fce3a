module Obs = Ccsim_obs

type event_id = Event_heap.id

type t = {
  heap : (unit -> unit) Event_heap.t;
  clock : float array;
      (* [|now; the time [schedule_at] adds an event at|]: unboxed
         slots, which the heap reads event times from and pops the next
         time into, so no float is boxed per event *)
  profile : Obs.Profile.t option;
  mutable component : Obs.Profile.component;
      (* the component the in-flight event callback charges its
         execution to; reset to [Other] before each event when
         profiling *)
  heap_hist : Obs.Metrics.histogram option;
      (* event-heap depth observed per executed event when a metrics
         registry is ambient; aggregates across sims by instrument name *)
  timeline : Obs.Timeline.t option;
  watchdog : Obs.Watchdog.t option;
  span : Obs.Span.t option;
      (* ambient lifecycle-span store; [run] seals it so packets still
         in flight at the end of the run export as incomplete spans *)
  mutable tl_tags : (string * string) list;
      (* labels appended to every series this sim registers, e.g.
         [("sim", "2"); ("scenario", "fig3/bbr bulk")] *)
  mutable probes : (Obs.Timeline.series * (unit -> float)) list;  (* newest first *)
  mutable driver_pending : int;  (* scheduled observability driver ticks *)
  mutable parked : int;
      (* delay-line entries waiting behind their line's head, outside the
         heap; [pending] adds them to the heap's size *)
}

let pending t = Event_heap.size t.heap + t.parked

(* Periodic observability drivers must never keep the run alive on their
   own: a tick reschedules itself only while a non-driver event remains
   (events only beget events, so a heap holding nothing but driver ticks
   is done). [driver_pending] counts the scheduled ticks so the timeline
   and watchdog drivers do not keep each other alive either. *)
let install_driver t ~interval ~comp f =
  let note_tick () =
    match t.profile with
    | None -> ()
    | Some p -> Obs.Profile.note_scheduled p ~comp
  in
  let rec tick () =
    t.driver_pending <- t.driver_pending - 1;
    t.component <- comp;
    f ();
    if pending t > t.driver_pending then begin
      t.driver_pending <- t.driver_pending + 1;
      note_tick ();
      ignore (Event_heap.add t.heap t.clock ~delay:interval tick)
    end
  in
  t.driver_pending <- t.driver_pending + 1;
  note_tick ();
  ignore (Event_heap.add t.heap t.clock ~delay:interval tick)

let sample_probes t () =
  List.iter
    (fun (s, probe) -> Obs.Timeline.record s ~time:t.clock.(0) ~value:(probe ()))
    (List.rev t.probes)

let create () =
  let scope = Obs.Scope.ambient () in
  let heap_hist =
    match scope.Obs.Scope.metrics with
    | Some m -> Some (Obs.Metrics.histogram m "engine_heap_depth")
    | None -> None
  in
  let timeline = scope.Obs.Scope.timeline and watchdog = scope.Obs.Scope.watchdog in
  let tl_tags =
    match timeline with
    | None -> []
    | Some tl -> [ ("sim", string_of_int (Obs.Timeline.next_sim_id tl)) ]
  in
  let t =
    {
      heap = Event_heap.create ();
      clock = Array.make 2 0.0;
      profile = scope.Obs.Scope.profile;
      heap_hist;
      component = Obs.Profile.Other;
      timeline;
      watchdog;
      span = scope.Obs.Scope.span;
      tl_tags;
      probes = [];
      driver_pending = 0;
      parked = 0;
    }
  in
  (match timeline with
  | Some tl ->
      install_driver t ~interval:(Obs.Timeline.interval tl) ~comp:Obs.Profile.Timeline
        (sample_probes t)
  | None -> ());
  (match watchdog with
  | Some w ->
      install_driver t ~interval:(Obs.Watchdog.interval w) ~comp:Obs.Profile.Watchdog (fun () ->
          Obs.Watchdog.check_now w ~now:t.clock.(0))
  | None -> ());
  t

let now t = t.clock.(0)
let watchdog t = t.watchdog
(* An immediate store: no write barrier, and no test of the profile. *)
let[@ccsim.hot] set_component t c = t.component <- c

let add_timeline_tags t tags = t.tl_tags <- tags @ t.tl_tags

let timeline_series t ?(labels = []) name =
  Option.map
    (fun tl -> Obs.Timeline.series tl ~labels:(labels @ t.tl_tags) name)
    t.timeline

let add_timeline_probe t ?labels name probe =
  match timeline_series t ?labels name with
  | None -> ()
  | Some s -> t.probes <- (s, probe) :: t.probes

(* Scheduled/cancelled events are attributed to the component whose
   callback is running when the call happens ([Other] during setup) —
   one array increment, only when profiling. *)
let note_scheduled t =
  match t.profile with
  | None -> ()
  | Some p -> Obs.Profile.note_scheduled p ~comp:t.component

(* Entry-point guards are written [not (x >= bound)] so one comparison
   rejects NaN too: an event at NaN would set the clock to NaN, after
   which no horizon stops the run. The cold raisers name the cause. *)
let invalid_delay fn delay =
  invalid_arg (fn ^ if Float.is_nan delay then ": NaN delay" else ": negative delay")

let invalid_time fn time =
  invalid_arg (fn ^ if Float.is_nan time then ": NaN time" else ": time precedes the clock")

let[@ccsim.hot] schedule_at t ~time f =
  if not (time >= t.clock.(0)) then invalid_time "Sim.schedule_at" time;
  note_scheduled t;
  t.clock.(1) <- time;
  Event_heap.add_reserved t.heap t.clock 1 ~seq:(Event_heap.reserve t.heap) f

let[@ccsim.hot] schedule t ~delay f =
  if not (delay >= 0.0) then invalid_delay "Sim.schedule" delay;
  note_scheduled t;
  Event_heap.add t.heap t.clock ~delay f

(* [schedule] with the delay read from a caller's slot, summed into the
   clock's second slot as [Event_heap.add] sums it: the same time and
   the same fresh sequence number, and no float crosses a call. *)
let[@ccsim.hot] schedule_in t delay f =
  if not (delay.(0) >= 0.0) then invalid_delay "Sim.schedule_in" delay.(0);
  note_scheduled t;
  t.clock.(1) <- t.clock.(0) +. delay.(0);
  Event_heap.add_reserved t.heap t.clock 1 ~seq:(Event_heap.reserve t.heap) f

let note_cancelled t id =
  match t.profile with
  | None -> ()
  | Some p ->
      if not (Event_heap.cancelled t.heap id) then
        Obs.Profile.note_cancelled p ~comp:t.component

let[@ccsim.hot] cancel t id =
  note_cancelled t id;
  Event_heap.cancel t.heap id

(* Counted as the cancel plus schedule it replaces, so profiles read the
   same whichever way a timer is re-armed. *)
let[@ccsim.hot] reschedule t id ~delay f =
  if not (delay >= 0.0) then invalid_delay "Sim.reschedule" delay;
  note_cancelled t id;
  note_scheduled t;
  Event_heap.reschedule t.heap id t.clock ~delay f

let no_event = Event_heap.none
let is_pending t id = not (Event_heap.cancelled t.heap id)

(* The pop stores the event's time straight into the clock slot; the
   clock it replaces stays in an unboxed local for the monotonicity
   check. *)
let[@ccsim.hot] step t =
  let before = t.clock.(0) in
  match Event_heap.pop_exn t.heap t.clock with
  | exception Event_heap.Empty -> false
  | f ->
      (match t.watchdog with
      | Some w when t.clock.(0) < before ->
          (Obs.Watchdog.violate w ~now:before ~component:"engine" ~invariant:"time_monotonicity"
             (Printf.sprintf "event at t=%.9f precedes the clock at t=%.9f" t.clock.(0) before)
          [@ccsim.alloc_ok "cold branch: runs only on a time-monotonicity violation"])
      | Some _ | None -> ());
      (match t.heap_hist with
      | None -> ()
      | Some h -> Obs.Metrics.observe_int h (pending t + 1));
      (match t.profile with
      | None -> f ()
      | Some p ->
          Obs.Profile.note_heap_depth p (pending t + 1);
          t.component <- Obs.Profile.Other;
          Obs.Profile.begin_event p;
          f ();
          Obs.Profile.end_event p t.component);
      true

(* The inner event loop: step while an event is due by the horizon.
   Top-level recursion rather than a [while]/[ref], and a test that
   returns an immediate, so the loop allocates nothing. *)
let[@ccsim.hot] rec run_loop t ~horizon =
  if Event_heap.due t.heap ~until:horizon then begin
    ignore (step t);
    run_loop t ~horizon
  end

let run ?until t =
  let horizon = match until with None -> infinity | Some u -> u in
  if Float.is_nan horizon then invalid_arg "Sim.run: NaN horizon";
  Option.iter Obs.Profile.start_run t.profile;
  run_loop t ~horizon;
  (match until with
  | Some u when t.clock.(0) < u -> t.clock.(0) <- u
  | Some _ | None -> ());
  (match t.profile with
  | Some p ->
      Obs.Profile.note_sim_time p t.clock.(0);
      Obs.Profile.end_run p
  | None -> ());
  (* Packets still queued or on the wire when the run ends become
     incomplete spans rather than leaking open records. *)
  (match t.span with
  | Some s -> Obs.Span.seal s ~now:t.clock.(0)
  | None -> ());
  (* A final sweep so violations between the last periodic check and the
     end of the run still fail it. *)
  match t.watchdog with
  | Some w -> Obs.Watchdog.check_now w ~now:t.clock.(0)
  | None -> ()

(* --- delay lines ----------------------------------------------------------

   A line's entries are pushed in non-decreasing time order, each under
   the sequence number the heap hands out at push time ([reserve]), so
   their (time, seq) keys ascend in push order. They sit in a ring,
   oldest first. Only the oldest, the head, has its event in the heap,
   under its own key; each later entry enters the heap, under its
   reserved key, when the one before it fires. The heap's minimum is
   therefore always the minimum over heap and parked entries alike, and
   every event fires at the (time, seq) a [schedule] at push time would
   have given it. An entry costs one ring store when pushed and one
   clear when it fires. *)

type 'a line = {
  owner : t;
  handler : 'a -> unit;
  empty : 'a;  (* fills every slot that holds no entry *)
  mutable count : int;  (* entries, head included *)
  mutable times : float array;  (* the ring, by slot; [||] until the first push *)
  mutable seqs : int array;  (* reserved sequence numbers; unused in the head's slot *)
  mutable items : 'a array;
  mutable first : int;  (* ring slot of the head *)
  tail : float array;  (* [|time of the newest entry|], unboxed *)
  fire : unit -> unit;  (* the heap payload of every entry, allocated once *)
}

let[@ccsim.hot] fire_line l =
  let i = l.first in
  let x = l.items.(i) in
  l.items.(i) <- l.empty;
  let next = (i + 1) land (Array.length l.items - 1) in
  l.first <- next;
  l.count <- l.count - 1;
  if l.count > 0 then begin
    l.owner.parked <- l.owner.parked - 1;
    ignore (Event_heap.add_reserved l.owner.heap l.times next ~seq:l.seqs.(next) l.fire)
  end;
  l.handler x

let line owner ~empty handler =
  let rec l =
    {
      owner;
      handler;
      empty;
      count = 0;
      times = [||];
      seqs = [||];
      items = [||];
      first = 0;
      tail = [| neg_infinity |];
      fire = (fun () -> fire_line l);
    }
  in
  l

(* Double the ring (4 slots at first), unrolling it to start at slot 0.
   Every slot holds an entry. *)
let grow_ring l =
  (let cap = Array.length l.items in
   let cap' = if cap = 0 then 4 else 2 * cap in
   let times = Array.make cap' 0.0 and seqs = Array.make cap' 0 in
   let items = Array.make cap' l.empty in
   for k = 0 to cap - 1 do
     let i = (l.first + k) land (cap - 1) in
     times.(k) <- l.times.(i);
     seqs.(k) <- l.seqs.(i);
     items.(k) <- l.items.(i)
   done;
   l.times <- times;
   l.seqs <- seqs;
   l.items <- items;
   l.first <- 0)
  [@ccsim.alloc_ok "amortized ring doubling: once per capacity step, not per entry"]

let precedes_tail () = invalid_arg "Sim.push: time precedes the line's newest entry"

let[@ccsim.hot] push l ~delay x =
  let t = l.owner in
  if not (delay >= 0.0) then invalid_delay "Sim.push" delay;
  let time = t.clock.(0) +. delay in
  if time < l.tail.(0) then precedes_tail ();
  note_scheduled t;
  l.tail.(0) <- time;
  if l.count = Array.length l.items then grow_ring l;
  let j = (l.first + l.count) land (Array.length l.items - 1) in
  l.items.(j) <- x;
  if l.count = 0 then
    (* The new head goes straight into the heap. *)
    ignore (Event_heap.add t.heap t.clock ~delay l.fire)
  else begin
    l.times.(j) <- time;
    l.seqs.(j) <- Event_heap.reserve t.heap;
    t.parked <- t.parked + 1
  end;
  l.count <- l.count + 1

let every t ~interval ?(stop_after = infinity) f =
  if not (interval > 0.0) then invalid_arg "Sim.every: interval must be positive";
  let first = t.clock.(0) +. interval in
  let rec tick () =
    if t.clock.(0) <= stop_after then begin
      f ();
      if t.clock.(0) +. interval <= stop_after then ignore (schedule t ~delay:interval tick)
    end
  in
  if first <= stop_after then ignore (schedule_at t ~time:first tick)
