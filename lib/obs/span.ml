(* Sampled packet lifecycle spans.

   A span follows one sampled packet across one hop (a named link and
   its queue), recording the four lifecycle timestamps — enqueue,
   dequeue, serialization complete, delivery — so the per-hop delay
   decomposes into queueing, serialization, and propagation phases.
   Sampling is deterministic 1-in-N by packet uid (uid mod N = 0): no
   RNG is consumed, so arming spans never perturbs simulation results,
   and the same uid is sampled at every hop it crosses, giving
   end-to-end coverage for the sampled packets.

   Memory is bounded like the flight recorder: the newest [capacity]
   completed spans are retained and evictions are counted. Records for
   packets still in flight live in [open_tbl] until the owning [Sim]
   seals the span store at the end of the run. *)

type outcome = Delivered | Dropped | Incomplete

type record = {
  uid : int;
  flow : int;
  seq : int;
  kind : string;
  hop : string;
  t_enq : float;
  mutable t_deq : float;  (* nan until the phase boundary is reached *)
  mutable t_tx : float;
  mutable t_rx : float;
  mutable outcome : outcome;
}

type t = {
  sample : int;  (* record 1-in-[sample] packets by uid *)
  capacity : int;
  recorder : Recorder.t option;  (* [None] unless it admits Debug *)
  open_tbl : ((int * string), record) Hashtbl.t;  (* (uid, hop) -> open record *)
  completed : record Queue.t;
  mutable completed_n : int;
  mutable started_n : int;
  mutable evicted_n : int;
}

let default_capacity = 65_536

let create ?(capacity = default_capacity) ?recorder ~sample () =
  if sample < 1 then invalid_arg "Span.create: sample must be >= 1";
  if capacity < 1 then invalid_arg "Span.create: capacity must be >= 1";
  let recorder =
    match recorder with
    | Some r when Recorder.admits r Recorder.Debug -> Some r
    | Some _ | None -> None
  in
  {
    sample;
    capacity;
    recorder;
    open_tbl = Hashtbl.create 256;
    completed = Queue.create ();
    completed_n = 0;
    started_n = 0;
    evicted_n = 0;
  }

let sample t = t.sample
let hit t ~uid = uid mod t.sample = 0

let outcome_to_string = function
  | Delivered -> "delivered"
  | Dropped -> "dropped"
  | Incomplete -> "incomplete"

(* Phase delays; [None] while the phase boundary was never reached
   (dropped or in-flight packets have partial lifecycles). *)
let phase lo hi =
  if Float.is_nan lo || Float.is_nan hi then None else Some (hi -. lo)

let queue_delay r = phase r.t_enq r.t_deq
let serialize_delay r = phase r.t_deq r.t_tx
let propagate_delay r = phase r.t_tx r.t_rx

let complete r = (not (Float.is_nan r.t_rx)) && (match r.outcome with Delivered -> true | _ -> false)

let journal t (r : record) ~at =
  match t.recorder with
  | None -> ()
  | Some rec_ ->
      let fs = Printf.sprintf "%.9f" in
      let fields =
        [
          ("hop", r.hop);
          ("uid", string_of_int r.uid);
          ("flow", string_of_int r.flow);
          ("seq", string_of_int r.seq);
        ]
        @ (match queue_delay r with Some d -> [ ("queue_s", fs d) ] | None -> [])
        @ (match serialize_delay r with Some d -> [ ("serialize_s", fs d) ] | None -> [])
        @ match propagate_delay r with Some d -> [ ("propagate_s", fs d) ] | None -> []
      in
      Recorder.record rec_ ~at ~severity:Recorder.Debug ~kind:"span" ~point:r.hop
        ~fields
        (outcome_to_string r.outcome)

let finish t (r : record) ~at outcome =
  r.outcome <- outcome;
  Hashtbl.remove t.open_tbl (r.uid, r.hop);
  Queue.push r t.completed;
  t.completed_n <- t.completed_n + 1;
  if t.completed_n > t.capacity then begin
    ignore (Queue.pop t.completed);
    t.completed_n <- t.completed_n - 1;
    t.evicted_n <- t.evicted_n + 1
  end;
  journal t r ~at

let note_enqueue t ~hop ~at ~uid ~flow ~seq ~kind =
  let key = (uid, hop) in
  if not (Hashtbl.mem t.open_tbl key) then begin
    let r =
      {
        uid;
        flow;
        seq;
        kind;
        hop;
        t_enq = at;
        t_deq = Float.nan;
        t_tx = Float.nan;
        t_rx = Float.nan;
        outcome = Incomplete;
      }
    in
    Hashtbl.add t.open_tbl key r;
    t.started_n <- t.started_n + 1
  end

let note_dequeue t ~hop ~at ~uid =
  match Hashtbl.find_opt t.open_tbl (uid, hop) with
  | Some r when Float.is_nan r.t_deq -> r.t_deq <- at
  | Some _ | None -> ()

let note_tx t ~hop ~at ~uid =
  match Hashtbl.find_opt t.open_tbl (uid, hop) with
  | Some r when Float.is_nan r.t_tx -> r.t_tx <- at
  | Some _ | None -> ()

let note_delivered t ~hop ~at ~uid =
  match Hashtbl.find_opt t.open_tbl (uid, hop) with
  | Some r ->
      if Float.is_nan r.t_rx then r.t_rx <- at;
      finish t r ~at Delivered
  | None -> ()  (* duplicate delivery of an already-closed span *)

let note_dropped t ~hop ~at ~uid ~flow ~seq ~kind =
  match Hashtbl.find_opt t.open_tbl (uid, hop) with
  | Some r -> finish t r ~at Dropped
  | None ->
      (* Tail drop: the packet never entered the queue, so there is no
         open record — synthesize a zero-length dropped span. *)
      let r =
        {
          uid;
          flow;
          seq;
          kind;
          hop;
          t_enq = at;
          t_deq = Float.nan;
          t_tx = Float.nan;
          t_rx = Float.nan;
          outcome = Dropped;
        }
      in
      t.started_n <- t.started_n + 1;
      finish t r ~at Dropped

(* End-of-run flush ("seal"): packets still queued or in flight when the
   simulation stops become [Incomplete] completed spans, so exporters
   see every started span exactly once. Driven by [Sim.run]. *)
let seal t ~now =
  let[@lint.allow R2 "collected in hash order, sorted on (uid, hop) below"] opens =
    Hashtbl.fold (fun _ r acc -> r :: acc) t.open_tbl [] in
  let opens =
    List.sort
      (fun (a : record) b ->
        match compare a.uid b.uid with 0 -> String.compare a.hop b.hop | c -> c)
      opens
  in
  List.iter (fun r -> finish t r ~at:now Incomplete) opens

let completed t = List.of_seq (Queue.to_seq t.completed)
let completed_count t = t.completed_n
let open_count t = Hashtbl.length t.open_tbl
let started t = t.started_n
let evicted t = t.evicted_n
