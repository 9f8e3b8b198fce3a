module U = Ccsim_util
module Obs = Ccsim_obs

(* Struct-of-arrays fluid population. Flow state is one scalar per flow
   (window in packets, or pacing rate for BBR — see Fluid_model),
   integrated by Ccsim_util.Ode on a fixed step. Links hold a fluid
   queue updated explicitly (operator splitting: the queue is advanced
   from the step's arrival/service balance, not by the integrator) so
   byte conservation  offered = dropped + served + Δqueue  holds exactly
   by construction each step — that identity is what the watchdog
   checks, and what the corruption-injection test breaks.

   Hot-path layout: flat [float array]/[int array] only (unboxed loads,
   no per-flow records), no allocation per step beyond the integrator's
   preallocated workspace. A step is four passes over flows plus one
   over links, which is what makes 10^6-flow scenarios run in seconds
   per simulated second (EXPERIMENTS.md, "Throughput"). *)

type link_id = int
type flow_id = int

(* Drop-tail fluid loss: a ramp from [theta * buffer] to the full
   buffer, reaching [p_max]. Flows respond to the ramp well before the
   queue pegs; residual overflow past the buffer is dropped and
   accounted but (like real tail drops under a ramp AQM) is a corner
   case. *)
(* slots of [totals_b] *)
let ti_offered = 0
let ti_served = 1
let ti_dropped = 2
let ti_q = 3

let loss_theta = 0.80
let loss_p_max = 0.25

type totals = {
  offered_bytes : float;
  served_bytes : float;
  dropped_bytes : float;
  queued_bytes : float;
}

type t = {
  dt_s : float;
  warmup_s : float;
  method_ : [ `Euler | `Rk4 ];
  payload_frac : float;
  rng : U.Rng.t;
  mutable now_s : float;
  mutable built : bool;
  (* links (SoA, sized at seal) *)
  mutable nl : int;
  mutable l_cap : float array;  (* capacity, bit/s *)
  mutable l_buf : float array;  (* buffer, bytes *)
  mutable l_q : float array;  (* fluid queue, bytes *)
  mutable l_pkt_rate : float array;  (* packet cross traffic, bit/s (hybrid) *)
  mutable l_pkt_backlog : float array;  (* packet queue share, bytes (hybrid) *)
  mutable l_arr : float array;  (* last fluid arrival, bit/s *)
  mutable l_loss : float array;  (* last loss probability *)
  mutable l_sr : float array;  (* last service ratio *)
  mutable l_served : float array;  (* last served rate, bit/s *)
  mutable l_active : int array;  (* active flows *)
  mutable l_contended_s : float array;
  mutable l_offered_b : float array;  (* cumulative byte accounting *)
  mutable l_served_b : float array;
  mutable l_dropped_b : float array;
  (* flows (SoA) *)
  mutable n : int;
  mutable f_model : int array;
  mutable f_link : int array;
  mutable f_y : float array;  (* ODE state *)
  mutable f_rtt_base : float array;
  mutable f_cap : float array;  (* demand cap, bit/s; infinity = bulk *)
  mutable f_on : float array;  (* mean on-period, s; infinity = always on *)
  mutable f_off : float array;
  mutable f_active : bool array;
  mutable f_toggle : float array;  (* next toggle time, s *)
  mutable f_good_b : float array;  (* delivered payload bytes after warmup *)
  mutable xs : float array;  (* scratch: per-flow instantaneous rate *)
  mutable ws : U.Ode.workspace option;
  (* running totals (kept incrementally so invariant checks are O(1)) *)
  totals_b : float array;
      (* engine-wide byte totals in unboxed slots (offered, served,
         dropped, queued — see the ti_ indices): mutable float fields here would
         box on every per-link, per-step accumulation *)
  (* observability *)
  profile : Obs.Profile.t option;
      (* standalone [run] charges each ODE step to component "fluid";
         when the engine is instead driven from a Sim (hybrid coupling),
         the Sim's own profiler does the charging and this stays unused *)
  watchdog : Obs.Watchdog.t option;
  tl_arrival : Obs.Timeline.series option;
  tl_served : Obs.Timeline.series option;
  tl_queue : Obs.Timeline.series option;
  tl_active : Obs.Timeline.series option;
  tl_contended : Obs.Timeline.series option;
  sample_interval_s : float;
  mutable next_sample_s : float;
  mutable next_check_s : float;
}

let default_dt_s = 0.01

let create ?(dt_s = default_dt_s) ?(method_ = `Euler) ?(warmup_s = 0.0)
    ?(payload_frac =
      float_of_int U.Units.mss /. float_of_int (U.Units.mss + U.Units.header_bytes))
    ~seed () =
  if dt_s <= 0.0 then invalid_arg "Fluid_engine.create: dt must be positive";
  if warmup_s < 0.0 then invalid_arg "Fluid_engine.create: negative warmup";
  let scope = Obs.Scope.ambient () in
  let series name =
    Option.map
      (fun tl -> Obs.Timeline.series tl ~labels:[ ("engine", "fluid") ] name)
      scope.Obs.Scope.timeline
  in
  let sample_interval_s =
    match scope.Obs.Scope.timeline with
    | Some tl -> Float.max dt_s (Obs.Timeline.interval tl)
    | None -> Float.max dt_s 0.1
  in
  let t =
    {
      dt_s;
      warmup_s;
      method_;
      payload_frac;
      rng = U.Rng.create seed;
      now_s = 0.0;
      built = false;
      nl = 0;
      l_cap = [||];
      l_buf = [||];
      l_q = [||];
      l_pkt_rate = [||];
      l_pkt_backlog = [||];
      l_arr = [||];
      l_loss = [||];
      l_sr = [||];
      l_served = [||];
      l_active = [||];
      l_contended_s = [||];
      l_offered_b = [||];
      l_served_b = [||];
      l_dropped_b = [||];
      n = 0;
      f_model = [||];
      f_link = [||];
      f_y = [||];
      f_rtt_base = [||];
      f_cap = [||];
      f_on = [||];
      f_off = [||];
      f_active = [||];
      f_toggle = [||];
      f_good_b = [||];
      xs = [||];
      ws = None;
      totals_b = Array.make 4 0.0;
      profile = scope.Obs.Scope.profile;
      watchdog = scope.Obs.Scope.watchdog;
      tl_arrival = series "fluid_arrival_bps";
      tl_served = series "fluid_served_bps";
      tl_queue = series "fluid_queue_bytes";
      tl_active = series "fluid_active_flows";
      tl_contended = series "fluid_contended_links";
      sample_interval_s;
      next_sample_s = 0.0;
      next_check_s = 0.0;
    }
  in
  (match t.watchdog with
  | Some w ->
      (* Engine-wide byte conservation: what the flows offered must be
         exactly the losses plus the served bytes plus what still sits
         in the fluid queues. The tolerance covers float summation
         noise across millions of link-steps, nothing more. *)
      Obs.Watchdog.register w ~component:"fluid" ~invariant:"byte_conservation" (fun () ->
          let residue =
            t.totals_b.(ti_offered) -. t.totals_b.(ti_dropped)
            -. t.totals_b.(ti_served) -. t.totals_b.(ti_q)
          in
          let tol = Float.max 1024.0 (1e-6 *. t.totals_b.(ti_offered)) in
          if Float.abs residue > tol then
            Some
              (Printf.sprintf
                 "offered=%.0f dropped=%.0f served=%.0f queued=%.0f: residue %.1f bytes \
                  exceeds %.1f"
                 t.totals_b.(ti_offered) t.totals_b.(ti_dropped) t.totals_b.(ti_served)
                 t.totals_b.(ti_q) residue tol)
          else None)
  | None -> ());
  t

let dt_s t = t.dt_s
let now_s t = t.now_s
let flows t = t.n
let links t = t.nl

(* --- build phase ---------------------------------------------------------- *)

let grow_f arr n default = if Array.length arr > n then arr else
  let next = Array.make (Int.max 16 (2 * Int.max n (Array.length arr))) default in
  Array.blit arr 0 next 0 (Array.length arr);
  next

let ensure_open t name = if t.built then invalid_arg (name ^ ": population is sealed (already stepped)")

let add_link t ~capacity_bps ~buffer_bytes =
  ensure_open t "Fluid_engine.add_link";
  if capacity_bps <= 0.0 then invalid_arg "Fluid_engine.add_link: capacity must be positive";
  if buffer_bytes <= 0 then invalid_arg "Fluid_engine.add_link: buffer must be positive";
  let l = t.nl in
  t.l_cap <- grow_f t.l_cap l 0.0;
  t.l_buf <- grow_f t.l_buf l 0.0;
  t.l_cap.(l) <- capacity_bps;
  t.l_buf.(l) <- float_of_int buffer_bytes;
  t.nl <- l + 1;
  l

let add_flow t ~link ~model ~rtt_base_s ?(cap_bps = infinity) ?on_off_s
    ?(start_active = true) () =
  ensure_open t "Fluid_engine.add_flow";
  if link < 0 || link >= t.nl then invalid_arg "Fluid_engine.add_flow: unknown link";
  if rtt_base_s <= 0.0 then invalid_arg "Fluid_engine.add_flow: rtt must be positive";
  let i = t.n in
  t.f_model <- (if Array.length t.f_model > i then t.f_model else begin
    let next = Array.make (Int.max 16 (2 * Int.max i (Array.length t.f_model))) 0 in
    Array.blit t.f_model 0 next 0 (Array.length t.f_model); next end);
  t.f_link <- (if Array.length t.f_link > i then t.f_link else begin
    let next = Array.make (Int.max 16 (2 * Int.max i (Array.length t.f_link))) 0 in
    Array.blit t.f_link 0 next 0 (Array.length t.f_link); next end);
  t.f_y <- grow_f t.f_y i 0.0;
  t.f_rtt_base <- grow_f t.f_rtt_base i 0.0;
  t.f_cap <- grow_f t.f_cap i 0.0;
  t.f_on <- grow_f t.f_on i 0.0;
  t.f_off <- grow_f t.f_off i 0.0;
  t.f_toggle <- grow_f t.f_toggle i 0.0;
  t.f_good_b <- grow_f t.f_good_b i 0.0;
  t.f_active <- (if Array.length t.f_active > i then t.f_active else begin
    let next = Array.make (Int.max 16 (2 * Int.max i (Array.length t.f_active))) false in
    Array.blit t.f_active 0 next 0 (Array.length t.f_active); next end);
  let tag = Fluid_model.index model in
  t.f_model.(i) <- tag;
  t.f_link.(i) <- link;
  t.f_rtt_base.(i) <- rtt_base_s;
  t.f_cap.(i) <- cap_bps;
  (match on_off_s with
  | None ->
      t.f_on.(i) <- infinity;
      t.f_off.(i) <- infinity;
      t.f_toggle.(i) <- infinity;
      t.f_active.(i) <- true
  | Some (on_s, off_s) ->
      if on_s <= 0.0 || off_s <= 0.0 then
        invalid_arg "Fluid_engine.add_flow: on/off means must be positive";
      t.f_on.(i) <- on_s;
      t.f_off.(i) <- off_s;
      t.f_active.(i) <- start_active;
      let mean = if start_active then on_s else off_s in
      t.f_toggle.(i) <- U.Rng.exponential t.rng ~mean);
  t.f_y.(i) <- (if t.f_active.(i) then Fluid_model.initial_state ~tag ~rtt_s:rtt_base_s else 0.0);
  t.f_good_b.(i) <- 0.0;
  t.n <- i + 1;
  i

(* Arrays are always at least length 1 so an empty population still
   matches the ODE workspace dimension. *)
let trim arr n default =
  let len = Int.max 1 n in
  if Array.length arr = len then arr
  else begin
    let next = Array.make len default in
    Array.blit arr 0 next 0 (Int.min n (Array.length arr));
    next
  end

let seal t =
  if not t.built then begin
    t.built <- true;
    t.f_model <- trim t.f_model t.n 0;
    t.f_link <- trim t.f_link t.n 0;
    t.f_y <- trim t.f_y t.n 0.0;
    t.f_rtt_base <- trim t.f_rtt_base t.n 0.0;
    t.f_cap <- trim t.f_cap t.n 0.0;
    t.f_on <- trim t.f_on t.n 0.0;
    t.f_off <- trim t.f_off t.n 0.0;
    t.f_toggle <- trim t.f_toggle t.n 0.0;
    t.f_good_b <- trim t.f_good_b t.n 0.0;
    t.f_active <- trim t.f_active t.n false;
    t.xs <- Array.make (Int.max 1 t.n) 0.0;
    t.l_cap <- trim t.l_cap t.nl 0.0;
    t.l_buf <- trim t.l_buf t.nl 0.0;
    let zeros () = Array.make (Int.max 1 t.nl) 0.0 in
    t.l_q <- zeros ();
    t.l_pkt_rate <- zeros ();
    t.l_pkt_backlog <- zeros ();
    t.l_arr <- zeros ();
    t.l_loss <- zeros ();
    t.l_sr <- zeros ();
    t.l_served <- zeros ();
    t.l_contended_s <- zeros ();
    t.l_offered_b <- zeros ();
    t.l_served_b <- zeros ();
    t.l_dropped_b <- zeros ();
    t.l_active <- Array.make (Int.max 1 t.nl) 0;
    for i = 0 to t.n - 1 do
      if t.f_active.(i) then begin
        let l = t.f_link.(i) in
        t.l_active.(l) <- t.l_active.(l) + 1
      end
    done;
    t.ws <- Some (U.Ode.workspace (Int.max 1 t.n))
  end

(* --- hybrid coupling inputs ----------------------------------------------- *)

let set_packet_signals t ~link ~rate_bps ~backlog_bytes =
  seal t;
  if link < 0 || link >= t.nl then invalid_arg "Fluid_engine.set_packet_signals: unknown link";
  t.l_pkt_rate.(link) <- Float.max 0.0 rate_bps;
  t.l_pkt_backlog.(link) <- float_of_int (Int.max 0 backlog_bytes)

(* --- stepping ------------------------------------------------------------- *)

let loss_of ~q ~buf =
  if buf <= 0.0 then 0.0
  else begin
    let frac = q /. buf in
    if frac <= loss_theta then 0.0
    else begin
      let z = Float.min 1.0 ((frac -. loss_theta) /. (1.0 -. loss_theta)) in
      loss_p_max *. z *. z
    end
  end

let queue_delay_s t l =
  (t.l_q.(l) +. t.l_pkt_backlog.(l)) *. 8.0 /. t.l_cap.(l)

let process_toggles t =
  for i = 0 to t.n - 1 do
    if t.f_toggle.(i) <= t.now_s then begin
      let l = t.f_link.(i) in
      if t.f_active.(i) then begin
        t.f_active.(i) <- false;
        t.f_y.(i) <- 0.0;
        t.l_active.(l) <- t.l_active.(l) - 1;
        t.f_toggle.(i) <- t.now_s +. U.Rng.exponential t.rng ~mean:t.f_off.(i)
      end
      else begin
        t.f_active.(i) <- true;
        t.f_y.(i) <-
          Fluid_model.initial_state ~tag:t.f_model.(i) ~rtt_s:t.f_rtt_base.(i);
        t.l_active.(l) <- t.l_active.(l) + 1;
        t.f_toggle.(i) <- t.now_s +. U.Rng.exponential t.rng ~mean:t.f_on.(i)
      end
    end
  done

(* Derivative of the flow-state vector: two flow passes around one link
   pass. The fluid queues are frozen during the step (operator
   splitting); their balance is applied in [settle]. *)
let[@ccsim.hot] deriv t ~t_s:_ ~y ~dy =
  for l = 0 to t.nl - 1 do
    t.l_arr.(l) <- 0.0
  done;
  for i = 0 to t.n - 1 do
    if t.f_active.(i) then begin
      let l = t.f_link.(i) in
      let rtt_s = t.f_rtt_base.(i) +. queue_delay_s t l in
      let x =
        Float.min (Fluid_model.rate_bps ~tag:t.f_model.(i) ~w:y.(i) ~rtt_s) t.f_cap.(i)
      in
      t.xs.(i) <- x;
      t.l_arr.(l) <- t.l_arr.(l) +. x
    end
    else begin
      t.xs.(i) <- 0.0;
      dy.(i) <- 0.0
    end
  done;
  for l = 0 to t.nl - 1 do
    t.l_loss.(l) <- loss_of ~q:t.l_q.(l) ~buf:t.l_buf.(l);
    let s = Float.max 0.0 (t.l_cap.(l) -. t.l_pkt_rate.(l)) in
    let a = t.l_arr.(l) in
    t.l_sr.(l) <- (if a <= s || a <= 0.0 then 1.0 else s /. a)
  done;
  for i = 0 to t.n - 1 do
    if t.f_active.(i) then begin
      let l = t.f_link.(i) in
      let rtt_s = t.f_rtt_base.(i) +. queue_delay_s t l in
      dy.(i) <-
        Fluid_model.deriv ~tag:t.f_model.(i) ~w:y.(i) ~rtt_s
          ~rtt_min_s:t.f_rtt_base.(i) ~loss_frac:t.l_loss.(l)
          ~service_ratio:t.l_sr.(l)
    end
  done

(* After the integrator: clamp states, advance the fluid queues from the
   step's arrival/service balance, and account bytes exactly. *)
let[@ccsim.hot] settle t =
  let dt = t.dt_s in
  let bbr = Fluid_model.index Fluid_model.Bbr in
  (* clamp + recompute rates and per-link arrival from the final state *)
  for l = 0 to t.nl - 1 do
    t.l_arr.(l) <- 0.0
  done;
  for i = 0 to t.n - 1 do
    if t.f_active.(i) then begin
      let l = t.f_link.(i) in
      let rtt_s = t.f_rtt_base.(i) +. queue_delay_s t l in
      (if t.f_model.(i) = bbr then begin
         let hi = Float.min (1.3 *. t.f_cap.(i)) (2.0 *. t.l_cap.(l)) in
         t.f_y.(i) <- Float.min (Float.max 1e3 t.f_y.(i)) hi
       end
       else begin
         let bdp_pkts = t.l_cap.(l) *. rtt_s /. Fluid_model.pkt_bits in
         let buf_pkts = t.l_buf.(l) /. float_of_int Fluid_model.pkt_bytes in
         let hi = Float.max 64.0 (2.0 *. (bdp_pkts +. buf_pkts)) in
         t.f_y.(i) <- Float.min (Float.max 0.1 t.f_y.(i)) hi
       end);
      let x =
        Float.min (Fluid_model.rate_bps ~tag:t.f_model.(i) ~w:t.f_y.(i) ~rtt_s) t.f_cap.(i)
      in
      t.xs.(i) <- x;
      t.l_arr.(l) <- t.l_arr.(l) +. x
    end
    else t.xs.(i) <- 0.0
  done;
  (* queue balance + exact byte accounting per link *)
  for l = 0 to t.nl - 1 do
    let q = t.l_q.(l) in
    let buf = t.l_buf.(l) in
    let a = t.l_arr.(l) in
    let p = loss_of ~q ~buf in
    let inq = a *. (1.0 -. p) in
    let s = Float.max 0.0 (t.l_cap.(l) -. t.l_pkt_rate.(l)) in
    let avail = inq +. (q *. 8.0 /. dt) in
    let served = Float.min s avail in
    let q1 = q +. ((inq -. served) *. dt /. 8.0) in
    let overflow = Float.max 0.0 (q1 -. buf) in
    let q1 = q1 -. overflow in
    t.l_q.(l) <- q1;
    t.l_loss.(l) <- p;
    t.l_served.(l) <- served;
    t.l_sr.(l) <- (if a <= 0.0 then 1.0 else Float.min 1.0 (served /. a));
    let offered_b = a *. dt /. 8.0 in
    let dropped_b = (p *. a *. dt /. 8.0) +. overflow in
    let served_b = served *. dt /. 8.0 in
    t.l_offered_b.(l) <- t.l_offered_b.(l) +. offered_b;
    t.l_dropped_b.(l) <- t.l_dropped_b.(l) +. dropped_b;
    t.l_served_b.(l) <- t.l_served_b.(l) +. served_b;
    t.totals_b.(ti_offered) <- t.totals_b.(ti_offered) +. offered_b;
    t.totals_b.(ti_dropped) <- t.totals_b.(ti_dropped) +. dropped_b;
    t.totals_b.(ti_served) <- t.totals_b.(ti_served) +. served_b;
    t.totals_b.(ti_q) <- t.totals_b.(ti_q) +. (q1 -. q);
    (* contention: a busy link with at least two active flows where the
       queue signal (loss or >=5 ms of queueing) is doing the
       allocating — the paper's prerequisites, in fluid terms. *)
    if
      s > 0.0
      && a >= 0.95 *. s
      && t.l_active.(l) >= 2
      && (p > 0.0 || queue_delay_s t l >= 0.005)
    then t.l_contended_s.(l) <- t.l_contended_s.(l) +. dt
  done;
  (* per-flow delivered payload over the measurement window *)
  if t.now_s +. dt > t.warmup_s then
    for i = 0 to t.n - 1 do
      if t.f_active.(i) then begin
        let l = t.f_link.(i) in
        let a = t.l_arr.(l) in
        if a > 0.0 then
          t.f_good_b.(i) <-
            t.f_good_b.(i)
            +. (t.xs.(i) /. a *. t.l_served.(l) *. t.payload_frac *. dt /. 8.0)
      end
    done

let[@ccsim.hot] step t =
  seal t;
  process_toggles t;
  let ws = Option.get t.ws in
  let f = (deriv t [@ccsim.alloc_ok "one integrator-callback closure per fluid step (dt, default 10 ms), not per event"]) in
  (match t.method_ with
  | `Euler -> U.Ode.euler_step ws f ~t_s:t.now_s ~dt_s:t.dt_s t.f_y
  | `Rk4 -> U.Ode.rk4_step ws f ~t_s:t.now_s ~dt_s:t.dt_s t.f_y);
  settle t;
  ((t.now_s <- t.now_s +. t.dt_s)
  [@ccsim.alloc_ok "one boxed clock store per fluid step, amortized over every flow it advances"])

(* --- standalone run loop --------------------------------------------------- *)

let record_samples t =
  let record series value =
    match series with
    | Some s -> Obs.Timeline.record s ~time:t.now_s ~value
    | None -> ()
  in
  if Option.is_some t.tl_arrival || Option.is_some t.tl_served || Option.is_some t.tl_queue
     || Option.is_some t.tl_active || Option.is_some t.tl_contended
  then begin
    let arr = ref 0.0 and served = ref 0.0 and q = ref 0.0 and contended = ref 0 in
    for l = 0 to t.nl - 1 do
      arr := !arr +. t.l_arr.(l);
      served := !served +. t.l_served.(l);
      q := !q +. t.l_q.(l);
      if t.l_contended_s.(l) > 0.0 then incr contended
    done;
    let active = ref 0 in
    for i = 0 to t.n - 1 do
      if t.f_active.(i) then incr active
    done;
    record t.tl_arrival !arr;
    record t.tl_served !served;
    record t.tl_queue !q;
    record t.tl_active (float_of_int !active);
    record t.tl_contended (float_of_int !contended)
  end

let run t ~until_s =
  seal t;
  while t.now_s < until_s -. (0.5 *. t.dt_s) do
    (match t.profile with
    | None -> step t
    | Some p ->
        let t0 = Obs.Profile.wall_now () in
        step t;
        Obs.Profile.record p ~comp:"fluid" ~seconds:(Obs.Profile.wall_now () -. t0));
    if t.now_s >= t.next_sample_s then begin
      record_samples t;
      t.next_sample_s <- t.now_s +. t.sample_interval_s
    end;
    match t.watchdog with
    | Some w when t.now_s >= t.next_check_s ->
        Obs.Watchdog.check_now w ~now:t.now_s;
        t.next_check_s <- t.now_s +. Obs.Watchdog.interval w
    | Some _ | None -> ()
  done;
  (match t.profile with
  | Some p ->
      Obs.Profile.note_sim_time p t.now_s;
      Obs.Profile.gc_flush p
  | None -> ());
  match t.watchdog with
  | Some w -> Obs.Watchdog.check_now w ~now:t.now_s
  | None -> ()

(* --- outputs --------------------------------------------------------------- *)

let check_link t l name = if l < 0 || l >= t.nl then invalid_arg (name ^ ": unknown link")
let check_flow t i name = if i < 0 || i >= t.n then invalid_arg (name ^ ": unknown flow")

let link_capacity_bps t l = check_link t l "Fluid_engine.link_capacity_bps"; t.l_cap.(l)
let link_arrival_bps t l = check_link t l "Fluid_engine.link_arrival_bps"; t.l_arr.(l)
let link_served_bps t l = check_link t l "Fluid_engine.link_served_bps"; t.l_served.(l)
let link_queue_bytes t l = check_link t l "Fluid_engine.link_queue_bytes"; t.l_q.(l)
let link_loss_frac t l = check_link t l "Fluid_engine.link_loss_frac"; t.l_loss.(l)

let link_contended_s t l =
  check_link t l "Fluid_engine.link_contended_s";
  t.l_contended_s.(l)

let link_active_flows t l = check_link t l "Fluid_engine.link_active_flows"; t.l_active.(l)
let link_served_bytes t l = check_link t l "Fluid_engine.link_served_bytes"; t.l_served_b.(l)

let link_residual_bytes t l =
  check_link t l "Fluid_engine.link_residual_bytes";
  t.l_offered_b.(l) -. t.l_dropped_b.(l) -. t.l_served_b.(l) -. t.l_q.(l)

let flow_rate_bps t i = check_flow t i "Fluid_engine.flow_rate_bps"; t.xs.(i)

let flow_goodput_bps t i =
  check_flow t i "Fluid_engine.flow_goodput_bps";
  let window_s = t.now_s -. t.warmup_s in
  if window_s <= 0.0 then 0.0 else t.f_good_b.(i) *. 8.0 /. window_s

let totals t =
  {
    offered_bytes = t.totals_b.(ti_offered);
    served_bytes = t.totals_b.(ti_served);
    dropped_bytes = t.totals_b.(ti_dropped);
    queued_bytes = t.totals_b.(ti_q);
  }

let residual_bytes t =
  t.totals_b.(ti_offered) -. t.totals_b.(ti_dropped) -. t.totals_b.(ti_served)
  -. t.totals_b.(ti_q)

let register_link_invariant t ~component w l =
  check_link t l "Fluid_engine.register_link_invariant";
  Obs.Watchdog.register w ~component ~invariant:"fluid_byte_conservation" (fun () ->
      let residue = link_residual_bytes t l in
      let tol = Float.max 64.0 (1e-6 *. t.l_offered_b.(l)) in
      if Float.abs residue > tol then
        Some
          (Printf.sprintf
             "link %d: offered=%.0f dropped=%.0f served=%.0f queued=%.0f: residue %.1f \
              bytes exceeds %.1f"
             l t.l_offered_b.(l) t.l_dropped_b.(l) t.l_served_b.(l) t.l_q.(l) residue tol)
      else None)

let inject_accounting_skew t ~link ~bytes =
  check_link t link "Fluid_engine.inject_accounting_skew";
  t.l_served_b.(link) <- t.l_served_b.(link) +. bytes;
  t.totals_b.(ti_served) <- t.totals_b.(ti_served) +. bytes
