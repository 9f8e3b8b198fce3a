type component = Other | Link | Tcp | Cca | Fluid | Telemetry | Timeline | Watchdog | Faults

let all = [ Other; Link; Tcp; Cca; Fluid; Telemetry; Timeline; Watchdog; Faults ]
let n_components = List.length all

let index = function
  | Other -> 0
  | Link -> 1
  | Tcp -> 2
  | Cca -> 3
  | Fluid -> 4
  | Telemetry -> 5
  | Timeline -> 6
  | Watchdog -> 7
  | Faults -> 8

let component_name = function
  | Other -> "other"
  | Link -> "link"
  | Tcp -> "tcp"
  | Cca -> "cca"
  | Fluid -> "fluid"
  | Telemetry -> "telemetry"
  | Timeline -> "timeline"
  | Watchdog -> "watchdog"
  | Faults -> "faults"

type comp = {
  events : int;
  seconds : float;
  scheduled : int;
  cancelled : int;
  minor_words : float;
}

type gc_sample = {
  gc_minor_words : float;
  gc_promoted_words : float;
  gc_major_words : float;
  gc_compactions : int;
}

(* Per-component counts, seconds and minor words sit in arrays indexed
   by [index], so charging an event stores into flat slots: no lookup,
   and no float boxed in a mixed record. *)
type t = {
  events : int array;
  scheduled : int array;
  cancelled : int array;
  seconds : float array;
  words : float array;
  mark : float array;  (* the wall clock and the minor words when the event began *)
  mutable max_heap_depth : int;
  mutable sim_s : float;  (* furthest simulated clock noted *)
  (* simulated-packet hot-path counters, fed by lib/net *)
  mutable pkts_enqueued : int;
  mutable pkts_dequeued : int;
  mutable pkts_delivered : int;
  mutable pkts_dropped : int;
  (* fluid link-steps by path, fed by lib/fluid *)
  mutable fluid_idle : int;
  mutable fluid_reduced : int;
  mutable fluid_full : int;
  (* what the minor words cannot show, summed over the runs *)
  mutable run_gc : gc_sample;  (* taken when the current run started *)
  mutable gc_promoted_words : float;
  mutable gc_major_words : float;
  mutable gc_compactions : int;
}

(* The sanctioned wall-clock read for profiling. ccsim-lint (R2)
   forbids Unix.gettimeofday outside lib/runner and lib/obs so no
   simulated quantity can depend on the host clock; callers that time
   real work go through this choke point. *)
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

let create () =
  {
    events = Array.make n_components 0;
    scheduled = Array.make n_components 0;
    cancelled = Array.make n_components 0;
    seconds = Array.make n_components 0.0;
    words = Array.make n_components 0.0;
    mark = Array.make 2 0.0;
    max_heap_depth = 0;
    sim_s = 0.0;
    pkts_enqueued = 0;
    pkts_dequeued = 0;
    pkts_delivered = 0;
    pkts_dropped = 0;
    fluid_idle = 0;
    fluid_reduced = 0;
    fluid_full = 0;
    run_gc = gc_sample ();
    gc_promoted_words = 0.0;
    gc_major_words = 0.0;
    gc_compactions = 0;
  }

(* Both reads are unboxed externals made in this unit and stored
   straight into float-array slots, so they allocate nothing. The words
   are read last on the way in and first on the way out: the span
   between the two reads holds the event's own work only. *)
let[@ccsim.hot] begin_event t =
  t.mark.(0) <- Unix.gettimeofday ();
  t.mark.(1) <- Gc.minor_words ()

let[@ccsim.hot] end_event t comp =
  let words = Gc.minor_words () -. t.mark.(1) in
  let seconds = Unix.gettimeofday () -. t.mark.(0) in
  let i = index comp in
  t.events.(i) <- t.events.(i) + 1;
  t.words.(i) <- t.words.(i) +. words;
  t.seconds.(i) <- t.seconds.(i) +. seconds

let start_run t = t.run_gc <- gc_sample ()

let end_run t =
  let now = gc_sample () and last = t.run_gc in
  t.gc_promoted_words <- t.gc_promoted_words +. (now.gc_promoted_words -. last.gc_promoted_words);
  t.gc_major_words <- t.gc_major_words +. (now.gc_major_words -. last.gc_major_words);
  t.gc_compactions <- t.gc_compactions + (now.gc_compactions - last.gc_compactions);
  t.run_gc <- now

let note_scheduled t ~comp =
  let i = index comp in
  t.scheduled.(i) <- t.scheduled.(i) + 1

let note_cancelled t ~comp =
  let i = index comp in
  t.cancelled.(i) <- t.cancelled.(i) + 1

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

let sum_int = Array.fold_left ( + ) 0
let sum_float = Array.fold_left ( +. ) 0.0

let events_executed t = sum_int t.events
let events_scheduled t = sum_int t.scheduled
let events_cancelled t = sum_int t.cancelled
let max_heap_depth t = t.max_heap_depth
let sim_s t = t.sim_s

let packets_enqueued t = t.pkts_enqueued
let packets_dequeued t = t.pkts_dequeued
let packets_delivered t = t.pkts_delivered
let packets_dropped t = t.pkts_dropped
let fluid_link_steps t = (t.fluid_idle, t.fluid_reduced, t.fluid_full)

let busy_s t = sum_float t.seconds
let per num den = if den > 0.0 then num /. den else 0.0
let events_per_sec t = per (float_of_int (events_executed t)) (busy_s t)
let sim_speedup t = per t.sim_s (busy_s t)
let packets_per_sec t = per (float_of_int t.pkts_delivered) (busy_s t)
let minor_words t = sum_float t.words
let minor_words_per_event t = per (minor_words t) (float_of_int (events_executed t))
let minor_words_per_packet t = per (minor_words t) (float_of_int t.pkts_delivered)

(* The components that ran, scheduled or cancelled anything, most
   expensive first; ties in seconds break by name, so the order never
   depends on the variant's. *)
let component_stats t =
  List.filter_map
    (fun c ->
      let i = index c in
      let row : comp =
        {
          events = t.events.(i);
          seconds = t.seconds.(i);
          scheduled = t.scheduled.(i);
          cancelled = t.cancelled.(i);
          minor_words = t.words.(i);
        }
      in
      if row.events = 0 && row.scheduled = 0 && row.cancelled = 0 then None
      else Some (component_name c, row))
    all
  |> List.sort (fun (na, (ca : comp)) (nb, (cb : comp)) ->
         match Float.compare cb.seconds ca.seconds with 0 -> String.compare na nb | c -> c)

let to_json t =
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "{\"events_executed\": %d, \"events_scheduled\": %d, \"events_cancelled\": %d, \
     \"busy_s\": %.6f, \"events_per_sec\": %.1f, \"sim_s\": %.6f, \"sim_speedup\": %.1f, \
     \"max_heap_depth\": %d, \"pkts_enqueued\": %d, \"pkts_dequeued\": %d, \
     \"pkts_delivered\": %d, \"pkts_dropped\": %d, \"pkts_per_sec\": %.1f, \
     \"gc\": {\"minor_words\": %.0f, \"promoted_words\": %.0f, \"major_words\": %.0f, \
     \"compactions\": %d, \"minor_words_per_event\": %.2f, \"minor_words_per_packet\": %.2f}, \
     \"components\": ["
    (events_executed t) (events_scheduled t) (events_cancelled t) (busy_s t)
    (events_per_sec t) t.sim_s (sim_speedup t) t.max_heap_depth t.pkts_enqueued
    t.pkts_dequeued t.pkts_delivered t.pkts_dropped (packets_per_sec t) (minor_words t)
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
    match component_stats t with
    | [] -> "no components"
    | rows ->
        String.concat ", "
          (List.filteri (fun i _ -> i < 4) rows
          |> List.map (fun (name, (c : comp)) ->
                 Printf.sprintf "%s %.3fs/%d" name c.seconds c.events))
  in
  Printf.sprintf
    "%d events in %.3fs busy (%.0f ev/s), %.2f sim-s (%.0fx real time), heap depth <= %d, \
     %d pkts delivered (%.0f pkts/s), %.1f minor words/event; %s"
    (events_executed t) (busy_s t) (events_per_sec t) t.sim_s (sim_speedup t)
    t.max_heap_depth t.pkts_delivered (packets_per_sec t) (minor_words_per_event t) top
