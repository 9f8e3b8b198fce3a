type comp = {
  mutable events : int;
  mutable seconds : float;
  mutable scheduled : int;
  mutable cancelled : int;
  mutable minor_words : float;  (* sampled attribution, see gc notes below *)
}

type gc_sample = {
  gc_minor_words : float;
  gc_promoted_words : float;
  gc_major_words : float;
  gc_compactions : int;
}

type t = {
  comps : (string, comp) Hashtbl.t;
  mutable comp_names : string list;  (* registration order, newest first *)
  mutable last_comp_name : string;
  mutable last_comp : comp option;
      (* one-entry memo: consecutive charges usually hit the same
         component, so the per-event Hashtbl lookup is skipped *)
  mutable events_executed : int;
  mutable events_scheduled : int;
  mutable events_cancelled : int;
  mutable busy_s : float;
  mutable max_heap_depth : int;
  mutable sim_s : float;  (* furthest simulated clock seen *)
  (* simulated-packet hot-path counters, fed by lib/net *)
  mutable pkts_enqueued : int;
  mutable pkts_dequeued : int;
  mutable pkts_delivered : int;
  mutable pkts_dropped : int;
  (* fluid link-steps by path, fed by lib/fluid *)
  mutable fluid_idle : int;
  mutable fluid_reduced : int;
  mutable fluid_full : int;
  (* sampled allocation accounting: a Gc delta every [gc_sample_every]
     charged events, charged to the component that happened to execute
     the sampling event — per-component words are therefore a sampled
     attribution, while the totals cover every event between the first
     charge and the last flush *)
  mutable gc_last : gc_sample option;
  mutable gc_countdown : int;
  mutable gc_samples : int;
  mutable gc_events_covered : int;
  mutable gc_minor_words : float;
  mutable gc_promoted_words : float;
  mutable gc_major_words : float;
  mutable gc_compactions : int;
}

(* The sanctioned wall-clock read for profiling. ccsim-lint (R2)
   forbids Unix.gettimeofday outside lib/runner and lib/obs so no
   simulated quantity can depend on the host clock; callers that time
   real work (the engine's event loop) go through this choke point. *)
let wall_now = Unix.gettimeofday

(* The sanctioned host-GC read, the allocation-profiling analogue of
   [wall_now]: ccsim-lint (R2) bans Gc.stat/quick_stat/counters reads
   outside lib/runner and lib/obs, so no simulated quantity can depend
   on allocator state. Gc.quick_stat is O(1) (no heap traversal). *)
let gc_sample () =
  let s = Gc.quick_stat () in
  {
    (* quick_stat's minor_words only refreshes at minor collections
       (native code); Gc.minor_words reads the live young-pointer, so
       small windows still see their allocations. Both are O(1). *)
    gc_minor_words = Gc.minor_words ();
    gc_promoted_words = s.Gc.promoted_words;
    gc_major_words = s.Gc.major_words;
    gc_compactions = s.Gc.compactions;
  }

(* One Gc delta per this many charged events: cheap enough to leave on
   (one O(1) read per window) while covering every allocation between
   the first charge and the final flush. *)
let gc_sample_every = 64

let create () =
  {
    comps = Hashtbl.create 16;
    comp_names = [];
    last_comp_name = "";
    last_comp = None;
    events_executed = 0;
    events_scheduled = 0;
    events_cancelled = 0;
    busy_s = 0.0;
    max_heap_depth = 0;
    sim_s = 0.0;
    pkts_enqueued = 0;
    pkts_dequeued = 0;
    pkts_delivered = 0;
    pkts_dropped = 0;
    fluid_idle = 0;
    fluid_reduced = 0;
    fluid_full = 0;
    gc_last = None;
    gc_countdown = gc_sample_every;
    gc_samples = 0;
    gc_events_covered = 0;
    gc_minor_words = 0.0;
    gc_promoted_words = 0.0;
    gc_major_words = 0.0;
    gc_compactions = 0;
  }

let comp_of t comp =
  match t.last_comp with
  | Some c when String.equal t.last_comp_name comp -> c
  | Some _ | None ->
      let c =
        match Hashtbl.find_opt t.comps comp with
        | Some c -> c
        | None ->
            let c =
              { events = 0; seconds = 0.0; scheduled = 0; cancelled = 0; minor_words = 0.0 }
            in
            Hashtbl.add t.comps comp c;
            t.comp_names <- comp :: t.comp_names;
            c
      in
      t.last_comp_name <- comp;
      t.last_comp <- Some c;
      c

let gc_accumulate t (now : gc_sample) (last : gc_sample) =
  t.gc_minor_words <- t.gc_minor_words +. (now.gc_minor_words -. last.gc_minor_words);
  t.gc_promoted_words <-
    t.gc_promoted_words +. (now.gc_promoted_words -. last.gc_promoted_words);
  t.gc_major_words <- t.gc_major_words +. (now.gc_major_words -. last.gc_major_words);
  t.gc_compactions <- t.gc_compactions + (now.gc_compactions - last.gc_compactions)

let record t ~comp ~seconds =
  t.events_executed <- t.events_executed + 1;
  t.busy_s <- t.busy_s +. seconds;
  let c = comp_of t comp in
  c.events <- c.events + 1;
  c.seconds <- c.seconds +. seconds;
  (* allocation sampling rides the charge stream *)
  match t.gc_last with
  | None -> t.gc_last <- Some (gc_sample ())
  | Some last ->
      t.gc_countdown <- t.gc_countdown - 1;
      if t.gc_countdown <= 0 then begin
        let now = gc_sample () in
        gc_accumulate t now last;
        c.minor_words <- c.minor_words +. (now.gc_minor_words -. last.gc_minor_words);
        t.gc_last <- Some now;
        t.gc_samples <- t.gc_samples + 1;
        t.gc_events_covered <- t.gc_events_covered + gc_sample_every;
        t.gc_countdown <- gc_sample_every
      end

let gc_flush t =
  match t.gc_last with
  | None -> ()
  | Some _ when t.gc_countdown = gc_sample_every ->
      (* nothing charged since the last sample: no window to close, and
         skipping keeps repeated flushes from inflating the count *)
      ()
  | Some last ->
      let now = gc_sample () in
      gc_accumulate t now last;
      t.gc_last <- Some now;
      t.gc_samples <- t.gc_samples + 1;
      t.gc_events_covered <- t.gc_events_covered + (gc_sample_every - t.gc_countdown);
      t.gc_countdown <- gc_sample_every

let note_scheduled t ~comp =
  t.events_scheduled <- t.events_scheduled + 1;
  let c = comp_of t comp in
  c.scheduled <- c.scheduled + 1

let note_cancelled t ~comp =
  t.events_cancelled <- t.events_cancelled + 1;
  let c = comp_of t comp in
  c.cancelled <- c.cancelled + 1

let note_heap_depth t depth = if depth > t.max_heap_depth then t.max_heap_depth <- depth
let note_sim_time t clock = if clock > t.sim_s then t.sim_s <- clock

let note_pkt_enqueued t = t.pkts_enqueued <- t.pkts_enqueued + 1
let note_pkt_dequeued t = t.pkts_dequeued <- t.pkts_dequeued + 1
let note_pkt_delivered t = t.pkts_delivered <- t.pkts_delivered + 1
let note_pkt_dropped t = t.pkts_dropped <- t.pkts_dropped + 1

let note_fluid_link_steps t ~idle ~reduced ~full =
  t.fluid_idle <- t.fluid_idle + idle;
  t.fluid_reduced <- t.fluid_reduced + reduced;
  t.fluid_full <- t.fluid_full + full

let events_executed t = t.events_executed
let events_scheduled t = t.events_scheduled
let events_cancelled t = t.events_cancelled
let max_heap_depth t = t.max_heap_depth
let sim_s t = t.sim_s

let packets_enqueued t = t.pkts_enqueued
let packets_dequeued t = t.pkts_dequeued
let packets_delivered t = t.pkts_delivered
let packets_dropped t = t.pkts_dropped
let fluid_link_steps t = (t.fluid_idle, t.fluid_reduced, t.fluid_full)

let events_per_sec t =
  if t.busy_s > 0.0 then float_of_int t.events_executed /. t.busy_s else 0.0

let sim_speedup t = if t.busy_s > 0.0 then t.sim_s /. t.busy_s else 0.0

let packets_per_sec t =
  if t.busy_s > 0.0 then float_of_int t.pkts_delivered /. t.busy_s else 0.0

let minor_words t = t.gc_minor_words
let gc_samples t = t.gc_samples

let minor_words_per_event t =
  if t.gc_events_covered > 0 then t.gc_minor_words /. float_of_int t.gc_events_covered
  else 0.0

let minor_words_per_packet t =
  if t.pkts_delivered > 0 && t.gc_events_covered > 0 then
    t.gc_minor_words /. float_of_int t.pkts_delivered
  else 0.0

let components t =
  (* Walk the registration-order name list, not the table, so row order
     never depends on hash state (ccsim-lint R2); the sort below then
     makes it independent of registration order too. *)
  let rows =
    List.fold_left
      (fun acc name ->
        let c = Hashtbl.find t.comps name in
        (name, c.events, c.seconds) :: acc)
      [] t.comp_names
  in
  List.sort
    (fun (na, _, sa) (nb, _, sb) ->
      match Float.compare sb sa with 0 -> String.compare na nb | c -> c)
    rows

let component_stats t =
  let rows =
    List.fold_left
      (fun acc name -> (name, Hashtbl.find t.comps name) :: acc)
      [] t.comp_names
  in
  List.sort
    (fun (na, (ca : comp)) (nb, cb) ->
      match Float.compare cb.seconds ca.seconds with 0 -> String.compare na nb | c -> c)
    rows

let to_json t =
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "{\"events_executed\": %d, \"events_scheduled\": %d, \"events_cancelled\": %d, \
     \"busy_s\": %.6f, \"events_per_sec\": %.1f, \"sim_s\": %.6f, \"sim_speedup\": %.1f, \
     \"max_heap_depth\": %d, \"pkts_enqueued\": %d, \"pkts_dequeued\": %d, \
     \"pkts_delivered\": %d, \"pkts_dropped\": %d, \"pkts_per_sec\": %.1f, \
     \"gc\": {\"samples\": %d, \"minor_words\": %.0f, \"promoted_words\": %.0f, \
     \"major_words\": %.0f, \"compactions\": %d, \"minor_words_per_event\": %.2f, \
     \"minor_words_per_packet\": %.2f}, \"components\": ["
    t.events_executed t.events_scheduled t.events_cancelled t.busy_s (events_per_sec t)
    t.sim_s (sim_speedup t) t.max_heap_depth t.pkts_enqueued t.pkts_dequeued
    t.pkts_delivered t.pkts_dropped (packets_per_sec t) t.gc_samples t.gc_minor_words
    t.gc_promoted_words t.gc_major_words t.gc_compactions (minor_words_per_event t)
    (minor_words_per_packet t);
  List.iteri
    (fun i (name, (c : comp)) ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf
        "{\"component\": %s, \"events\": %d, \"seconds\": %.6f, \"scheduled\": %d, \
         \"cancelled\": %d, \"minor_words\": %.0f}"
        (Json.str name) c.events c.seconds c.scheduled c.cancelled c.minor_words)
    (component_stats t);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let summary t =
  let top =
    match components t with
    | [] -> "no components"
    | rows ->
        String.concat ", "
          (List.filteri (fun i _ -> i < 4) rows
          |> List.map (fun (name, events, seconds) ->
                 Printf.sprintf "%s %.3fs/%d" name seconds events))
  in
  Printf.sprintf
    "%d events in %.3fs busy (%.0f ev/s), %.2f sim-s (%.0fx real time), heap depth <= %d, \
     %d pkts delivered (%.0f pkts/s), %.1f minor words/event; %s"
    t.events_executed t.busy_s (events_per_sec t) t.sim_s (sim_speedup t) t.max_heap_depth
    t.pkts_delivered (packets_per_sec t) (minor_words_per_event t) top
