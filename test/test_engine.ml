(* Tests for the discrete-event engine. *)

module Sim = Ccsim_engine.Sim
module Event_heap = Ccsim_engine.Event_heap

let check_float = Alcotest.(check (float 1e-9))

(* --- Event_heap ------------------------------------------------------------ *)

(* A clock slot at 0.0: [Event_heap.add h origin ~delay:t] adds at [t].
   The heap only reads the slots it is given to add at. *)
let origin = [| 0.0 |]

let test_heap_ordering () =
  let h = Event_heap.create () in
  ignore (Event_heap.add h origin ~delay:3.0 "c");
  ignore (Event_heap.add h origin ~delay:1.0 "a");
  ignore (Event_heap.add h origin ~delay:2.0 "b");
  let pop () = match Event_heap.pop h with Some (_, x) -> x | None -> "?" in
  (* Bind sequentially: list literals evaluate right-to-left. *)
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] [ first; second; third ]

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  ignore (Event_heap.add h origin ~delay:1.0 "first");
  ignore (Event_heap.add h origin ~delay:1.0 "second");
  ignore (Event_heap.add h origin ~delay:1.0 "third");
  let pop () = match Event_heap.pop h with Some (_, x) -> x | None -> "?" in
  let a = pop () in
  let b = pop () in
  let c = pop () in
  Alcotest.(check (list string)) "insertion order at equal time" [ "first"; "second"; "third" ]
    [ a; b; c ]

let test_heap_cancel () =
  let h = Event_heap.create () in
  ignore (Event_heap.add h origin ~delay:1.0 "keep1");
  let id = Event_heap.add h origin ~delay:2.0 "drop" in
  ignore (Event_heap.add h origin ~delay:3.0 "keep2");
  Event_heap.cancel h id;
  Alcotest.(check int) "live size" 2 (Event_heap.size h);
  let pop () = match Event_heap.pop h with Some (_, x) -> x | None -> "?" in
  let a = pop () in
  let b = pop () in
  Alcotest.(check (list string)) "cancelled skipped" [ "keep1"; "keep2" ] [ a; b ];
  Alcotest.(check int) "empty" 0 (Event_heap.size h)

let test_heap_cancel_idempotent () =
  let h = Event_heap.create () in
  let id = Event_heap.add h origin ~delay:1.0 () in
  Event_heap.cancel h id;
  Event_heap.cancel h id;
  Alcotest.(check int) "size not negative" 0 (Event_heap.size h)

let test_heap_peek_skips_cancelled () =
  let h = Event_heap.create () in
  let id = Event_heap.add h origin ~delay:1.0 () in
  ignore (Event_heap.add h origin ~delay:5.0 ());
  Event_heap.cancel h id;
  Alcotest.(check (option (float 1e-9))) "peek" (Some 5.0) (Event_heap.peek_time h)

let test_heap_many_random () =
  let rng = Ccsim_util.Rng.create 77 in
  let h = Event_heap.create () in
  let times = Array.init 1000 (fun _ -> Ccsim_util.Rng.float rng 100.0) in
  Array.iter (fun time -> ignore (Event_heap.add h origin ~delay:time time)) times;
  let out = ref [] in
  let rec drain () =
    match Event_heap.pop h with
    | Some (time, _) ->
        out := time :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  let popped = Array.of_list (List.rev !out) in
  let sorted = Array.copy times in
  Array.sort compare sorted;
  Alcotest.(check (array (float 1e-12))) "heap sorts" sorted popped

let test_heap_reschedule_in_place () =
  let h = Event_heap.create () in
  let a = Event_heap.add h origin ~delay:1.0 "a" in
  ignore (Event_heap.add h origin ~delay:2.0 "b");
  ignore (Event_heap.add h origin ~delay:3.0 "c");
  let a' = Event_heap.reschedule h a origin ~delay:2.0 "a2" in
  Alcotest.(check bool) "pending handle kept" true (a' == a);
  Alcotest.(check int) "no dead entry" 3 (Event_heap.size h);
  let pop () = match Event_heap.pop h with Some (_, x) -> x | None -> "?" in
  (* A re-armed event takes a fresh sequence number: it now ties with b
     at t=2 and fires after it, as cancel-then-add would order it. *)
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "order" [ "b"; "a2"; "c" ] [ first; second; third ];
  Alcotest.(check bool) "fired handle stale" true (Event_heap.cancelled h a)

let test_heap_stale_handle_after_reuse () =
  let h = Event_heap.create () in
  let a = Event_heap.add h origin ~delay:1.0 "a" in
  ignore (Event_heap.pop h);
  (* [b] takes the storage [a] released; [a]'s handle must not reach it. *)
  let b = Event_heap.add h origin ~delay:2.0 "b" in
  Event_heap.cancel h a;
  Alcotest.(check bool) "stale cancel is a no-op" false (Event_heap.cancelled h b);
  Alcotest.(check int) "b still pending" 1 (Event_heap.size h);
  let c = Event_heap.reschedule h a origin ~delay:0.5 "c" in
  Alcotest.(check bool) "stale reschedule adds afresh" false (c == a);
  Alcotest.(check int) "two pending" 2 (Event_heap.size h);
  Alcotest.(check (option (float 0.0))) "c first" (Some 0.5) (Event_heap.peek_time h);
  Alcotest.(check bool) "none never pending" true (Event_heap.cancelled h Event_heap.none);
  Event_heap.cancel h Event_heap.none;
  Alcotest.(check int) "cancel none is a no-op" 2 (Event_heap.size h)

(* --- Event_heap vs the reference binary heap ----------------------------------- *)

module Ref_heap = Ref_event_heap

type heap_op =
  | Add of float * float
  | Cancel of int
  | Reschedule of int * float * float
  | Cancel_popped
  | Reschedule_popped of float * float
  | Pop
  | Due of float
  | Peek
  | Size
  | Reserve of float
  | Add_reserved of int

let show_heap_op = function
  | Add (c, d) -> Printf.sprintf "add %g+%g" c d
  | Cancel k -> Printf.sprintf "cancel #%d" k
  | Reschedule (k, c, d) -> Printf.sprintf "reschedule #%d %g+%g" k c d
  | Cancel_popped -> "cancel popped"
  | Reschedule_popped (c, d) -> Printf.sprintf "reschedule popped %g+%g" c d
  | Pop -> "pop"
  | Due u -> Printf.sprintf "due by %g" u
  | Peek -> "peek"
  | Size -> "size"
  | Reserve t -> Printf.sprintf "reserve %g" t
  | Add_reserved k -> Printf.sprintf "add reserved ~%d" k

(* Times come mostly from a handful of values so equal-time ties are
   common, with the infinities mixed in. [add] and [reschedule] take a
   clock slot and a delay, as [Sim] passes them; a pair whose sum would
   be NaN (-inf + inf) gets a zero delay. Handle indices are reduced
   modulo the handles issued so far, so cancels and reschedules often
   name events that already fired or were cancelled, whose storage a
   later add has usually reused. A pop is often followed by what an
   event's callback does before the next pop (adds, reservations,
   cancels and reschedules, of the handle just popped too, and size
   reads), so those meet the root the pop left empty. *)
let heap_trace =
  let open QCheck.Gen in
  let time =
    frequency
      [
        (6, oneofl [ 0.0; 0.5; 1.0; 2.0 ]);
        (1, oneofl [ infinity; neg_infinity ]);
        (2, map (fun x -> Float.round (x *. 4.0) /. 4.0) (float_range 0.0 3.0));
      ]
  in
  let clock_delay =
    map2
      (fun c d -> if Float.is_nan (c +. d) then (c, 0.0) else (c, d))
      time
      (oneofl [ 0.0; 0.0; 0.25; 1.0; infinity ])
  in
  let callback_op =
    frequency
      [
        (4, map (fun (c, d) -> Add (c, d)) clock_delay);
        (2, map (fun k -> Cancel k) nat);
        (2, map2 (fun k (c, d) -> Reschedule (k, c, d)) nat clock_delay);
        (1, return Cancel_popped);
        (2, map (fun (c, d) -> Reschedule_popped (c, d)) clock_delay);
        (1, return Size);
        (1, map (fun t -> Reserve t) time);
        (1, map (fun k -> Add_reserved k) nat);
      ]
  in
  let chunk =
    frequency
      [
        (4, map (fun op -> [ op ]) callback_op);
        (4, map (fun ops -> Pop :: ops) (list_size (int_range 0 4) callback_op));
        (1, map (fun u -> [ Due u ]) time);
        (1, return [ Peek ]);
        (1, map (fun t -> [ Reserve t ]) time);
      ]
  in
  map List.concat (list_size (int_range 0 120) chunk)

(* Run [ops] through the indexed heap, by the entry points [Sim] uses,
   and the reference side by side (the reference re-arms by cancel then
   add). After every step the popped event and the time [pop_exn]
   stored in the clock slot, the size and every handle's [cancelled]
   agree; none of these reads closes the root a pop left empty, so the
   size is compared with that hole pending. [Peek] and [Due] compare
   the next time and [due]. A reservation is the reference's add at
   reserve time; the indexed heap adds it later, by [add_reserved] from
   a slot in any order, and at the latest before the next pop, peek or
   [due], as a delay line does, so the two agree on every pop while
   sizes differ by the reservations outstanding. *)
let heaps_agree ops =
  let fast = Event_heap.create () and slow = Ref_heap.create () in
  let clock = [| nan |] in
  let reserved = ref [] in
  let slow_none =
    let id = Ref_heap.add slow ~time:0.0 (-1) in
    Ref_heap.cancel slow id;
    id
  in
  let handles = ref [| (Event_heap.none, slow_none) |] in
  (* Handle index by payload, so a pop names the handle it fired. *)
  let index_of = Hashtbl.create 64 in
  let last_popped = ref 0 in
  let issue p pair =
    handles := Array.append !handles [| pair |];
    Hashtbl.replace index_of p (Array.length !handles - 1)
  in
  let payload = ref 0 in
  let fresh () =
    incr payload;
    !payload
  in
  let same_time a b = Float.equal a b in
  let add_reserved (time, seq, p, s) =
    let f = Event_heap.add_reserved fast [| nan; time |] 1 ~seq p in
    issue p (f, s)
  in
  let pop_fast () =
    match Event_heap.pop_exn fast clock with
    | p -> Some (clock.(0), p)
    | exception Event_heap.Empty -> None
  in
  let flush () =
    List.iter add_reserved (List.rev !reserved);
    reserved := []
  in
  let cancel i =
    let f, s = !handles.(i) in
    Event_heap.cancel fast f;
    Ref_heap.cancel slow s;
    true
  in
  let reschedule i c delay =
    let f, s = !handles.(i) in
    let was_pending = not (Ref_heap.cancelled s) in
    let p = fresh () in
    let f' = Event_heap.reschedule fast f [| c |] ~delay p in
    Ref_heap.cancel slow s;
    let s' = Ref_heap.add slow ~time:(c +. delay) p in
    if was_pending then begin
      !handles.(i) <- (f', s');
      Hashtbl.replace index_of p i;
      f' == f
    end
    else begin
      issue p (f', s');
      true
    end
  in
  let step op =
    let popped_agree =
      match op with
      | Reserve time ->
          let p = fresh () in
          let seq = Event_heap.reserve fast in
          reserved := (time, seq, p, Ref_heap.add slow ~time p) :: !reserved;
          true
      | Add_reserved k -> (
          match !reserved with
          | [] -> true
          | l ->
              let i = k mod List.length l in
              add_reserved (List.nth l i);
              reserved := List.filteri (fun j _ -> j <> i) l;
              true)
      | Add (c, delay) ->
          let p = fresh () in
          let f = Event_heap.add fast [| c |] ~delay p in
          issue p (f, Ref_heap.add slow ~time:(c +. delay) p);
          true
      | Cancel k -> cancel (k mod Array.length !handles)
      | Reschedule (k, c, delay) -> reschedule (k mod Array.length !handles) c delay
      | Cancel_popped -> cancel !last_popped
      | Reschedule_popped (c, delay) -> reschedule !last_popped c delay
      | Size -> true
      | Pop -> (
          flush ();
          let before = clock.(0) in
          match (pop_fast (), Ref_heap.pop slow) with
          | None, None -> same_time clock.(0) before
          | Some (ta, pa), Some (tb, pb) ->
              last_popped := Option.value (Hashtbl.find_opt index_of pa) ~default:0;
              same_time ta tb && pa = pb
          | Some _, None | None, Some _ -> false)
      | Due until ->
          flush ();
          Bool.equal (Event_heap.due fast ~until)
            ((not (Ref_heap.is_empty slow)) && Ref_heap.next_time slow <= until)
      | Peek -> (
          flush ();
          (match (Event_heap.peek_time fast, Ref_heap.peek_time slow) with
          | None, None -> true
          | Some ta, Some tb -> same_time ta tb
          | Some _, None | None, Some _ -> false)
          && Bool.equal
               (Event_heap.due fast ~until:(Ref_heap.next_time slow))
               (not (Ref_heap.is_empty slow)))
    in
    popped_agree
    && Event_heap.size fast + List.length !reserved = Ref_heap.size slow
    && Array.for_all
         (fun (f, s) -> Bool.equal (Event_heap.cancelled fast f) (Ref_heap.cancelled s))
         !handles
  in
  let rec drain () =
    match (pop_fast (), Ref_heap.pop slow) with
    | None, None -> true
    | Some (ta, pa), Some (tb, pb) -> same_time ta tb && pa = pb && drain ()
    | Some _, None | None, Some _ -> false
  in
  List.for_all step ops
  && begin
       flush ();
       drain ()
     end

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"indexed heap matches the reference binary heap" ~count:500
      (make
         ~print:(fun ops -> String.concat "; " (List.map show_heap_op ops))
         ~shrink:Shrink.list heap_trace)
      heaps_agree;
  ]

(* --- Sim ---------------------------------------------------------------------- *)

let test_sim_clock_advances () =
  let sim = Sim.create () in
  let seen = ref [] in
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> seen := (Sim.now sim, "b") :: !seen));
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> seen := (Sim.now sim, "a") :: !seen));
  Sim.run sim;
  Alcotest.(check (list (pair (float 1e-9) string)))
    "events in order with clock" [ (1.0, "a"); (2.0, "b") ] (List.rev !seen)

let test_sim_until_sets_clock () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> ()));
  Sim.run ~until:10.0 sim;
  check_float "clock at horizon" 10.0 (Sim.now sim)

let test_sim_until_excludes_later_events () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule sim ~delay:5.0 (fun () -> fired := true));
  Sim.run ~until:4.0 sim;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int) "still pending" 1 (Sim.pending sim);
  Sim.run ~until:6.0 sim;
  Alcotest.(check bool) "fired later" true !fired

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let id = Sim.schedule sim ~delay:1.0 (fun () -> fired := true) in
  Sim.cancel sim id;
  Sim.run sim;
  Alcotest.(check bool) "cancelled event silent" false !fired

let test_sim_negative_delay_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Sim.schedule: negative delay")
    (fun () -> ignore (Sim.schedule sim ~delay:(-1.0) (fun () -> ())))

let test_sim_schedule_during_run () =
  let sim = Sim.create () in
  let order = ref [] in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         order := "outer" :: !order;
         ignore (Sim.schedule sim ~delay:0.5 (fun () -> order := "inner" :: !order))));
  Sim.run sim;
  Alcotest.(check (list string)) "nested scheduling" [ "outer"; "inner" ] (List.rev !order);
  check_float "clock" 1.5 (Sim.now sim)

let test_sim_every () =
  let sim = Sim.create () in
  let ticks = ref [] in
  Sim.every sim ~interval:1.0 ~stop_after:5.0 (fun () -> ticks := Sim.now sim :: !ticks);
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "periodic ticks" [ 1.0; 2.0; 3.0; 4.0; 5.0 ]
    (List.rev !ticks)

let test_sim_determinism () =
  (* Two identical simulations must produce identical event interleavings. *)
  let run () =
    let sim = Sim.create () in
    let log = ref [] in
    let rng = Ccsim_util.Rng.create 3 in
    for i = 1 to 50 do
      ignore
        (Sim.schedule sim ~delay:(Ccsim_util.Rng.float rng 10.0) (fun () ->
             log := (i, Sim.now sim) :: !log))
    done;
    Sim.run sim;
    !log
  in
  Alcotest.(check (list (pair int (float 1e-12)))) "identical runs" (run ()) (run ())

let test_sim_schedule_cancel_accounting () =
  let p = Ccsim_obs.Profile.create () in
  let sim = Ccsim_obs.Scope.(with_scope (v ~profile:p ()) Sim.create) in
  let id = Sim.schedule sim ~delay:1.0 (fun () -> ()) in
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> ()));
  Sim.cancel sim id;
  (* A second cancel of the same event must not count again. *)
  Sim.cancel sim id;
  Sim.run sim;
  Alcotest.(check int) "scheduled" 2 (Ccsim_obs.Profile.events_scheduled p);
  Alcotest.(check int) "cancelled once" 1 (Ccsim_obs.Profile.events_cancelled p);
  Alcotest.(check int) "executed" 1 (Ccsim_obs.Profile.events_executed p);
  (* Cancelling an already-fired event is a no-op, not a cancellation. *)
  let fired = Sim.schedule sim ~delay:0.5 (fun () -> ()) in
  Sim.run sim;
  Sim.cancel sim fired;
  Alcotest.(check int) "fired event not counted" 1
    (Ccsim_obs.Profile.events_cancelled p)

(* Re-arming by [reschedule] must fire in exactly the order that cancel
   then schedule gives, same-instant ties included. *)
let test_sim_reschedule_order () =
  let run rearm =
    let sim = Sim.create () in
    let log = ref [] in
    let note name () = log := (name, Sim.now sim) :: !log in
    ignore (Sim.schedule sim ~delay:1.0 (note "a"));
    let timer = Sim.schedule sim ~delay:0.5 (note "timer") in
    ignore (Sim.schedule sim ~delay:1.0 (note "c"));
    ignore
      (Sim.schedule sim ~delay:0.25 (fun () ->
           ignore (rearm sim timer (note "timer'"));
           ignore (Sim.schedule sim ~delay:0.75 (note "b"))));
    Sim.run sim;
    List.rev !log
  in
  let by_cancel sim id f =
    Sim.cancel sim id;
    Sim.schedule sim ~delay:0.75 f
  in
  let by_reschedule sim id f = Sim.reschedule sim id ~delay:0.75 f in
  (* The re-armed timer ties with a, c and b at t=1 and sorts by its new
     sequence number: after a and c (scheduled before the re-arm), before b. *)
  let expected = [ ("a", 1.0); ("c", 1.0); ("timer'", 1.0); ("b", 1.0) ] in
  Alcotest.(check (list (pair string (float 0.0)))) "cancel + schedule" expected (run by_cancel);
  Alcotest.(check (list (pair string (float 0.0)))) "reschedule" expected (run by_reschedule)

let test_sim_reschedule_accounting () =
  let p = Ccsim_obs.Profile.create () in
  let sim = Ccsim_obs.Scope.(with_scope (v ~profile:p ()) Sim.create) in
  let fired = ref 0 in
  let f () = incr fired in
  let id = Sim.schedule sim ~delay:1.0 f in
  let id' = Sim.reschedule sim id ~delay:2.0 f in
  Alcotest.(check bool) "pending handle kept" true (Sim.is_pending sim id');
  Alcotest.(check int) "no dead entry" 1 (Sim.pending sim);
  (* Counted as the cancel plus schedule it stands for. *)
  Alcotest.(check int) "scheduled" 2 (Ccsim_obs.Profile.events_scheduled p);
  Alcotest.(check int) "cancelled" 1 (Ccsim_obs.Profile.events_cancelled p);
  Sim.run sim;
  check_float "fired at the new time" 2.0 (Sim.now sim);
  Alcotest.(check bool) "fired handle not pending" false (Sim.is_pending sim id');
  (* A fired handle re-arms afresh and counts no cancellation. *)
  ignore (Sim.reschedule sim id' ~delay:1.0 f);
  ignore (Sim.reschedule sim Sim.no_event ~delay:1.0 f);
  Sim.run sim;
  Alcotest.(check int) "all fired" 3 !fired;
  Alcotest.(check int) "scheduled after re-arms" 4 (Ccsim_obs.Profile.events_scheduled p);
  Alcotest.(check int) "no cancel counted" 1 (Ccsim_obs.Profile.events_cancelled p);
  Sim.cancel sim Sim.no_event;
  Alcotest.(check int) "cancel no_event is a no-op" 1 (Ccsim_obs.Profile.events_cancelled p)

(* NaN must not reach the event queue: an event at NaN would set the
   clock to NaN, and [run ~until] would then never stop at its horizon. *)
let rejects_nan name msg f =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> ()));
  Alcotest.check_raises name (Invalid_argument msg) (fun () -> f sim);
  Sim.run ~until:5.0 sim;
  check_float (name ^ ": clock reaches the horizon") 5.0 (Sim.now sim)

let noop () = ()

let test_sim_nan_schedule () =
  rejects_nan "schedule" "Sim.schedule: NaN delay" (fun sim ->
      ignore (Sim.schedule sim ~delay:nan noop))

let test_sim_nan_schedule_at () =
  rejects_nan "schedule_at" "Sim.schedule_at: NaN time" (fun sim ->
      ignore (Sim.schedule_at sim ~time:nan noop))

let test_sim_nan_reschedule () =
  rejects_nan "reschedule" "Sim.reschedule: NaN delay" (fun sim ->
      let id = Sim.schedule sim ~delay:2.0 noop in
      ignore (Sim.reschedule sim id ~delay:nan noop))

let test_sim_nan_every () =
  rejects_nan "every" "Sim.every: interval must be positive" (fun sim ->
      Sim.every sim ~interval:nan noop)

let test_sim_nan_run_until () =
  rejects_nan "run" "Sim.run: NaN horizon" (fun sim -> Sim.run ~until:nan sim)

let test_sim_heap_depth_histogram () =
  let m = Ccsim_obs.Metrics.create () in
  Ccsim_obs.Scope.with_scope
    (Ccsim_obs.Scope.v ~metrics:m ())
    (fun () ->
      let sim = Sim.create () in
      for i = 1 to 10 do
        ignore (Sim.schedule sim ~delay:(float_of_int i) (fun () -> ()))
      done;
      Sim.run sim);
  match Ccsim_obs.Metrics.find_histogram m "engine_heap_depth" with
  | Some h ->
      (* The first executed event observes all 10 pending events. *)
      Alcotest.(check bool) "max depth seen" true
        (Ccsim_obs.Metrics.quantile h 1.0 >= 10.0)
  | None -> Alcotest.fail "engine_heap_depth not registered"

(* The event loop allocates nothing, and neither does a periodic
   event's reschedule: the horizon test returns an immediate, the pop
   stores the next time into the clock slot, and a reschedule hands the
   heap the clock slot and the delay rather than their boxed sum. Each
   of 200,000 self-rescheduling no-op events, through a bare [run] and
   through [every], allocated 6.0 words process-wide while the heap
   returned the next and the popped time and took the event time as
   boxed floats. The bound leaves room for the measurement's own
   reads, spread over the events. *)
let test_sim_loop_allocation () =
  let events = 200_000 in
  let words_per_event build =
    let sim = Sim.create () in
    let fired = ref 0 in
    build sim fired;
    let w0 = Gc.minor_words () in
    Sim.run sim;
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check int) "every event ran" events !fired;
    words /. float_of_int events
  in
  let bare =
    words_per_event (fun sim fired ->
        let rec tick () =
          incr fired;
          if !fired < events then ignore (Sim.schedule sim ~delay:0.5 tick)
        in
        ignore (Sim.schedule sim ~delay:0.5 tick))
  in
  let periodic =
    words_per_event (fun sim fired ->
        (* dyadic, so the clock adds exactly and stops at the last tick *)
        Sim.every sim ~interval:0.5 ~stop_after:(0.5 *. float_of_int events) (fun () ->
            incr fired))
  in
  Alcotest.(check bool)
    (Printf.sprintf "bare loop under 1 word per event (%.2f)" bare)
    true (bare < 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "periodic event under 1 word per event (%.2f)" periodic)
    true (periodic < 1.0)

(* --- delay lines ------------------------------------------------------------------ *)

type line_op =
  | Schedule of float
  | Cancel_event of int
  | Reschedule_event of int * float
  | Push of int * float
  | Step

let show_line_op = function
  | Schedule d -> Printf.sprintf "schedule +%g" d
  | Cancel_event k -> Printf.sprintf "cancel #%d" k
  | Reschedule_event (k, d) -> Printf.sprintf "reschedule #%d +%g" k d
  | Push (l, d) -> Printf.sprintf "push line %d +%g" l d
  | Step -> "step"

(* Delays from a small dyadic set, 0 included, so every sum is exact
   and equal-time ties between lines, pushes and timers are common. *)
let line_trace =
  let open QCheck.Gen in
  let delay = oneofl [ 0.0; 0.25; 0.5; 1.0; 2.0 ] in
  let op =
    frequency
      [
        (3, map (fun d -> Schedule d) delay);
        (1, map (fun k -> Cancel_event k) nat);
        (1, map2 (fun k d -> Reschedule_event (k, d)) nat delay);
        (5, map2 (fun l d -> Push (l, d)) nat delay);
        (4, return Step);
      ]
  in
  pair (int_range 1 4) (list_size (int_range 0 300) op)

(* Twin sims, one pushing into 1-4 lines and one scheduling a closure
   at push time instead; timers go to both. A push that would precede
   its line's newest entry is stretched to that entry's time, on both
   sides. After every operation the two have fired the same (time,
   label) sequence and hold the same number of pending events; at the
   end both drain identically. *)
let lines_agree (nlines, ops) =
  let a = Sim.create () and b = Sim.create () in
  let log_a = ref [] and log_b = ref [] in
  let note sim log label () = log := (Sim.now sim, label) :: !log in
  let lines = Array.init nlines (fun _ -> Sim.line a ~empty:(-1) (fun label -> note a log_a label ())) in
  let tails = Array.make nlines neg_infinity in
  let handles = ref [||] in
  let label = ref 0 in
  let fresh () =
    incr label;
    !label
  in
  let apply = function
    | Schedule delay ->
        let l = fresh () in
        let pair = (Sim.schedule a ~delay (note a log_a l), Sim.schedule b ~delay (note b log_b l)) in
        handles := Array.append !handles [| pair |];
        true
    | Cancel_event k ->
        if Array.length !handles > 0 then begin
          let ha, hb = !handles.(k mod Array.length !handles) in
          Sim.cancel a ha;
          Sim.cancel b hb
        end;
        true
    | Reschedule_event (k, delay) ->
        if Array.length !handles > 0 then begin
          let i = k mod Array.length !handles in
          let ha, hb = !handles.(i) in
          let l = fresh () in
          !handles.(i) <-
            (Sim.reschedule a ha ~delay (note a log_a l), Sim.reschedule b hb ~delay (note b log_b l))
        end;
        true
    | Push (k, delay) ->
        let i = k mod nlines in
        let delay = Float.max delay (tails.(i) -. Sim.now a) in
        let l = fresh () in
        tails.(i) <- Sim.now a +. delay;
        Sim.push lines.(i) ~delay l;
        ignore (Sim.schedule b ~delay (note b log_b l));
        true
    | Step ->
        let stepped_a = Sim.step a in
        Bool.equal stepped_a (Sim.step b)
  in
  let same () =
    List.equal (fun (t, l) (t', l') -> Float.equal t t' && l = l') !log_a !log_b
    && Sim.pending a = Sim.pending b
  in
  List.for_all (fun op -> apply op && same ()) ops
  && begin
       Sim.run a;
       Sim.run b;
       same () && Sim.pending a = 0
     end

let line_qcheck =
  QCheck.Test.make ~name:"line pushes fire where Sim.schedule would" ~count:500
    (QCheck.make
       ~print:(fun (n, ops) ->
         Printf.sprintf "%d lines: %s" n (String.concat "; " (List.map show_line_op ops)))
       ~shrink:QCheck.Shrink.(pair nil list)
       line_trace)
    lines_agree

let test_sim_push_rejects () =
  let sim = Sim.create () in
  let l = Sim.line sim ~empty:0 ignore in
  Alcotest.check_raises "NaN delay" (Invalid_argument "Sim.push: NaN delay") (fun () ->
      Sim.push l ~delay:nan 1);
  Alcotest.check_raises "negative delay" (Invalid_argument "Sim.push: negative delay") (fun () ->
      Sim.push l ~delay:(-1.0) 1);
  Sim.push l ~delay:2.0 1;
  Alcotest.check_raises "before the newest entry"
    (Invalid_argument "Sim.push: time precedes the line's newest entry") (fun () ->
      Sim.push l ~delay:1.0 2);
  Sim.push l ~delay:2.0 3;
  Alcotest.(check int) "rejected pushes leave nothing pending" 2 (Sim.pending sim)

let suite =
  [
    ("heap: ordering", `Quick, test_heap_ordering);
    ("heap: FIFO tie-break", `Quick, test_heap_fifo_ties);
    ("heap: cancellation", `Quick, test_heap_cancel);
    ("heap: cancel idempotent", `Quick, test_heap_cancel_idempotent);
    ("heap: peek skips cancelled", `Quick, test_heap_peek_skips_cancelled);
    ("heap: sorts random load", `Quick, test_heap_many_random);
    ("heap: reschedule moves in place", `Quick, test_heap_reschedule_in_place);
    ("heap: stale handle after slot reuse", `Quick, test_heap_stale_handle_after_reuse);
    ("sim: clock advances", `Quick, test_sim_clock_advances);
    ("sim: run until sets clock", `Quick, test_sim_until_sets_clock);
    ("sim: horizon excludes later events", `Quick, test_sim_until_excludes_later_events);
    ("sim: cancel", `Quick, test_sim_cancel);
    ("sim: negative delay rejected", `Quick, test_sim_negative_delay_rejected);
    ("sim: nested scheduling", `Quick, test_sim_schedule_during_run);
    ("sim: every", `Quick, test_sim_every);
    ("sim: deterministic", `Quick, test_sim_determinism);
    ("sim: schedule/cancel accounting", `Quick, test_sim_schedule_cancel_accounting);
    ("sim: heap-depth histogram from ambient metrics", `Quick, test_sim_heap_depth_histogram);
    ("sim: reschedule fires as cancel + schedule", `Quick, test_sim_reschedule_order);
    ("sim: reschedule accounting", `Quick, test_sim_reschedule_accounting);
    ("sim: NaN rejected by schedule", `Quick, test_sim_nan_schedule);
    ("sim: NaN rejected by schedule_at", `Quick, test_sim_nan_schedule_at);
    ("sim: NaN rejected by reschedule", `Quick, test_sim_nan_reschedule);
    ("sim: NaN rejected by every", `Quick, test_sim_nan_every);
    ("sim: NaN rejected by run ~until", `Quick, test_sim_nan_run_until);
    ("sim: loop and periodic events allocate nothing", `Quick, test_sim_loop_allocation);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
  @ [
      QCheck_alcotest.to_alcotest ~long:false line_qcheck;
      ("sim: push rejects NaN, negative and out-of-order times", `Quick, test_sim_push_rejects);
    ]
