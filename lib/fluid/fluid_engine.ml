module U = Ccsim_util
module Obs = Ccsim_obs

(* Struct-of-arrays fluid population. Flow state is one scalar per flow
   (window in packets, or pacing rate for BBR; the models are below),
   advanced by forward Euler on a fixed step. Links hold a fluid queue
   updated explicitly (operator splitting: the queue is advanced from
   the step's arrival/service balance, not by the integrator) so byte
   conservation  offered = dropped + served + Δqueue  holds exactly by
   construction each step — that identity is what the watchdog checks,
   and what the corruption-injection test breaks.

   Hot-path layout: flat [float array]/[int array] only (unboxed loads,
   no per-flow records), in flow-id order. A flow is active exactly
   when its state is > 0.0: activation sets a positive state, the
   clamps keep it positive, deactivation stores +0.0. At seal a
   counting sort builds a CSR index: link l's flows are
   [by_link.(l_off.(l))] to [by_link.(l_off.(l + 1) - 1)], and the
   first [l_active.(l)] of them, the active prefix, are its active
   flows in ascending flow id; its inactive flows follow in any order.
   Activation inserts a flow into the prefix at its id rank;
   deactivation removes it and closes the gap.

   A step is a visit of the flows whose toggle is due, then one
   link-major pass ([advance]) that finishes each link — arrival sum,
   loss and service ratio, every active flow's derivative, Euler
   update, clamp and new rate, queue settle, byte accounting, goodput
   — while its flows are still in cache, allocating nothing
   (EXPERIMENTS.md, "Throughput"). The pass walks each link's active
   prefix only. A flow interacts only through its own link and each
   link sums exactly its active flows in flow-id order, so every float
   is bit for bit what the old four-pass step (derivative, Euler
   update, settle, goodput) computed; test/ref_fluid_engine.ml keeps
   that step as the oracle.

   On/off toggles wait in a calendar of [cal_span] buckets, one per
   step modulo the span, each a list threaded through [cal_next]. A
   flow is filed for a step no later than the first step whose clock
   reaches its toggle time ([file_toggle] bounds how fast the clock can
   get there); a toggle beyond the span is filed at the span's end and
   refiled when visited. A visit re-applies the old scan's test,
   [f_toggle.(i) <= now], and refiles what is not yet due; the due
   flows are sorted and toggled in ascending flow id, the order the
   scan drew from the RNG in. A population with no on/off flow
   allocates no calendar.

   Each link carries one state byte ([l_state]) that the pass reads
   first, so a step costs what changes, not what exists:
   - idle: no active flow and a queue of exactly 0.0. Its step would
     add +0.0 to every accumulator, fail the contention test and move
     no flow; only its arrival and served rate read 0.0, and they
     already do. A step costs it the byte.
   - idling: idle since this step. The step stores its arrival and
     served rate as 0.0 and makes it idle. A toggle that empties a link
     whose queue is 0.0 (the rates are read between steps, by
     [aggregate], so they turn 0.0 in the first idle step, not at the
     end of the step that drained the queue), and a full step that
     leaves no active flow and a queue of 0.0, both set it.
   - frozen: its step repeats the last full one (below).
   - full: the full step, which also sets the byte for the next step.
   A full step sums its pre-step arrival afresh.

   A link whose step repeats itself is frozen. A full step freezes the
   link when all of these hold: its queue was exactly 0.0 before the
   step and is after it; its packet rate and backlog are 0.0; the
   arrival the step used equals the one it ended with, bitwise, and
   is at most the service rate; every active flow's new rate is its
   cap, bitwise; every BBR window is bitwise unchanged. The next step
   then has the same inputs: loss 0.0, a service ratio of 1.0, each
   RTT its base RTT and so the same window clamps, and the same
   arrival. With loss 0.0 a Reno or CUBIC window's increment,
   dt alpha / R, does not depend on the window; a window that grows
   keeps a rate at or above its cap, as the rate is monotone in the
   window; a still BBR window stays still. So every rate stays its
   cap, the arrival and the settle repeat, and the step's only changes
   are its increments:
   - each window becomes [float_min (w +. inc) hi], with [inc] and
     [hi] the full step's, kept by CSR position in [k_inc] and [k_hi]
     (for BBR 0.0 and infinity, which leave the window as it is; the
     lower clamp is left out, as w + inc >= w >= 0.1);
   - once the warmup is over, each flow's goodput gets the full step's
     term, which the full step of a freezing link keeps in [k_good],
     credited or not yet;
   - the link's offered and served bytes, and the engine's, get
     arrival dt / 8 (the served rate is the arrival). The dropped and
     queue terms are +0.0 and are left out: an accumulator that starts
     at +0.0 and only adds terms that are not -0.0 is never -0.0, and
     x +. 0.0 is x for every other x.
   The queue, arrival, served rate and contention time do not change.

   The deferral rule. A frozen link's step adds arrival dt / 8 to the
   engine's offered and served totals, which sum across links and so
   take every link's additions on every step, in link order; that is
   all it does. Its windows, goodputs and its own offered and served
   bytes wait: [l_frozen_at] holds the first step they have not seen,
   and [replay] applies the steps since, one addition after another,
   each accumulator in its own order. It runs before anything moves
   or reads them: when a toggle on the link ([toggle_due]) or a packet
   signal ([set_packet_signals]) thaws it, before the active prefix
   and the CSR-indexed [k_inc], [k_hi] and [k_good] move; and when
   [link_served_bytes], [link_residual_bytes], [flow_goodput_bps],
   [inject_accounting_skew] or the per-link watchdog check reads the
   link, which then stays frozen from the current step. A step credits
   goodput when its clock plus dt passes the warmup; the clock only
   grows, so the credited steps are a suffix of all steps and
   [credit_from], the first of them, tells which deferred steps
   credit. Each window, goodput and byte counter then sees exactly the
   sequence of additions the step-by-step path made, and nothing else
   reads it in between, so every result is bit for bit the same. A
   window's replay stops where a step leaves it unchanged: the step is
   one fixed function of the window while the link is frozen, so every
   further step leaves it unchanged too. The hybrid coupling signals
   its link every step, so a coupled link never freezes. [link_steps]
   counts link-steps by path: a step adds the links frozen when it
   starts ([frozen_links], kept as links freeze and thaw) to the
   reduced ones, and the idle and idling ones are the rest of links x
   steps. *)

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

(* [l_state] bytes: the path a link's next step takes (see the header) *)
let st_idle = '\000'
let st_idling = '\001'
let st_frozen = '\002'
let st_full = '\003'

let loss_theta = 0.80
let loss_p_max = 0.25

type totals = {
  offered_bytes : float;
  served_bytes : float;
  dropped_bytes : float;
  queued_bytes : float;
}

type aggregate = {
  arrival_bps : float;
  served_bps : float;
  queue_bytes : float;
  active_flows : int;
  contended_links : int;
}

type t = {
  dt_s : float;
  warmup_s : float;
  payload_frac : float;
  rng : U.Rng.t;
  clock_s : float array;
      (* the engine's clock in one unboxed slot: a mutable float field
         here would box on every step *)
  mutable built : bool;
  (* links (SoA, sized at seal) *)
  mutable nl : int;
  mutable l_cap : float array;  (* capacity, bit/s *)
  mutable l_buf : float array;  (* buffer, bytes *)
  mutable l_q : float array;  (* fluid queue, bytes *)
  mutable l_pkt_rate : float array;  (* packet cross traffic, bit/s (hybrid) *)
  mutable l_pkt_backlog : float array;  (* packet queue share, bytes (hybrid) *)
  mutable l_arr : float array;  (* last fluid arrival, bit/s *)
  mutable l_served : float array;  (* last served rate, bit/s *)
  mutable l_state : Bytes.t;  (* the next step's path: see the header and [st_idle] *)
  mutable l_frozen_at : int array;
      (* a frozen link's first step that its flows and byte counters
         have not seen *)
  mutable l_active : int array;  (* active flows *)
  mutable l_contended_s : float array;
  mutable l_offered_b : float array;  (* cumulative byte accounting *)
  mutable l_served_b : float array;
  mutable l_dropped_b : float array;
  mutable l_off : int array;  (* CSR offsets, nl + 1 entries *)
  mutable by_link : int array;
      (* flow ids grouped by link: the active prefix in flow-id order,
         then the link's inactive flows *)
  (* flows (SoA) *)
  mutable n : int;
  mutable f_model : int array;
  mutable f_link : int array;
  mutable f_y : float array;  (* ODE state; > 0.0 exactly when active *)
  mutable f_rtt_base : float array;
  mutable f_cap : float array;  (* demand cap, bit/s; infinity = bulk *)
  mutable f_on : float array;  (* mean on-period, s; infinity = always on *)
  mutable f_off : float array;
  mutable f_toggle : float array;  (* next toggle time, s *)
  mutable k_good : float array;
      (* by CSR position k, two slots: at 2k the post-step rate, then
         the step's goodput term, which a frozen link keeps; at 2k + 1
         the flow's delivered payload bytes after warmup, which move
         with the flow in the prefix. A step credits the goodput on the
         line that holds its term. *)
  mutable k_inc : float array;
  mutable k_hi : float array;
      (* by CSR position, kept while the link is frozen: the window's
         increment and upper clamp from the last full step; 0.0 and
         infinity for BBR *)
  (* The arrays above hold [n] flows and [nl] links; those grown while
     building keep their spare capacity rather than be copied at seal. *)
  (* toggle calendar (see the header); [cal_head] and [cal_next] stay
     [||] when no flow toggles *)
  mutable steps : int;  (* steps taken *)
  mutable credit_from : int;  (* the first step that credited goodput, or max_int *)
  mutable reduced_steps : int;  (* link-steps by path; the rest took the idle skip *)
  mutable frozen_links : int;  (* links whose state byte is frozen *)
  mutable full_steps : int;
  mutable cal_head : int array;  (* per bucket: the first flow filed, or -1 *)
  mutable cal_next : int array;  (* per flow: the next flow in its bucket, or -1 *)
  draw : float array;  (* one unboxed slot for the toggles' uniform draws *)
  held : float array;  (* one unboxed slot: the goodput of a flow whose CSR position moves *)
  (* running totals (kept incrementally so invariant checks are O(1)) *)
  totals_b : float array;
      (* engine-wide byte totals in unboxed slots (offered, served,
         dropped, queued — see the ti_ indices): mutable float fields here would
         box on every per-link, per-step accumulation *)
}

let default_dt_s = 0.01

let positive_finite x = Float.is_finite x && x > 0.0

let create ?(dt_s = default_dt_s) ?(warmup_s = 0.0)
    ?(payload_frac =
      float_of_int U.Units.mss /. float_of_int (U.Units.mss + U.Units.header_bytes))
    ~seed () =
  if not (positive_finite dt_s) then
    invalid_arg "Fluid_engine.create: dt_s must be finite and positive";
  if not (Float.is_finite warmup_s && warmup_s >= 0.0) then
    invalid_arg "Fluid_engine.create: warmup_s must be finite and non-negative";
  if not (payload_frac > 0.0 && payload_frac <= 1.0) then
    invalid_arg "Fluid_engine.create: payload_frac must be in (0, 1]";
  let t =
    {
      dt_s;
      warmup_s;
      payload_frac;
      rng = U.Rng.create seed;
      clock_s = [| 0.0 |];
      built = false;
      nl = 0;
      l_cap = [||];
      l_buf = [||];
      l_q = [||];
      l_pkt_rate = [||];
      l_pkt_backlog = [||];
      l_arr = [||];
      l_served = [||];
      l_state = Bytes.empty;
      l_frozen_at = [||];
      l_active = [||];
      l_contended_s = [||];
      l_offered_b = [||];
      l_served_b = [||];
      l_dropped_b = [||];
      l_off = [||];
      by_link = [||];
      n = 0;
      f_model = [||];
      f_link = [||];
      f_y = [||];
      f_rtt_base = [||];
      f_cap = [||];
      f_on = [||];
      f_off = [||];
      f_toggle = [||];
      k_good = [||];
      k_inc = [||];
      k_hi = [||];
      steps = 0;
      credit_from = max_int;
      reduced_steps = 0;
      frozen_links = 0;
      full_steps = 0;
      cal_head = [||];
      cal_next = [||];
      draw = [| 0.0 |];
      held = [| 0.0 |];
      totals_b = Array.make 4 0.0;
    }
  in
  (match (Obs.Scope.ambient ()).Obs.Scope.watchdog with
  | Some w ->
      (* Engine-wide byte conservation: what the flows offered must be
         exactly the losses plus the served bytes plus what still sits
         in the fluid queues. The tolerance covers float summation
         noise across millions of link-steps, nothing more; a NaN
         residue is a violation too. *)
      Obs.Watchdog.register w ~component:"fluid" ~invariant:"byte_conservation" (fun () ->
          let residue =
            t.totals_b.(ti_offered) -. t.totals_b.(ti_dropped)
            -. t.totals_b.(ti_served) -. t.totals_b.(ti_q)
          in
          let tol = Float.max 1024.0 (1e-6 *. t.totals_b.(ti_offered)) in
          if not (Float.abs residue <= tol) then
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
let now_s t = t.clock_s.(0)
let flows t = t.n

(* --- flow models ------------------------------------------------------------ *)

(* Per-flow fluid (rate-ODE) models of the simulator's main CCAs,
   following the control-theoretic competition model of Scherrer et al.
   (arXiv:2510.22773) in the Misra–Gong–Towsley window-ODE tradition:

   - Loss-based flows (Reno, CUBIC) evolve a window [w] in packets:
       dw/dt = alpha / R  -  (1 - beta) * w * lambda
     where [R] is the instantaneous RTT, [lambda = p * w / R] the loss
     event rate seen by the flow (loss probability [p] times packet
     rate), and (alpha, beta) the additive-increase / multiplicative-
     decrease pair. Reno is AIMD(1, 1/2); CUBIC is represented by its
     TCP-friendly AIMD equivalent (alpha = 0.53, beta = 0.7), which
     matches its steady-state throughput on the paths we model.

   - BBR evolves its sending rate [x] (bit/s) directly: it paces toward
     a probe gain times its delivered rate, capped by the inflight
     limit of two estimated BDPs, converging on one RTT timescale:
       target = deliv * min(probe_gain, cwnd_gain * R_min / R)
       dx/dt  = (target - x) / max(R, 1 ms)
     where [deliv = x * service_ratio] is the share the link actually
     delivered. The min reproduces BBR's two regimes: probing while the
     queue is short, inflight-capped (standing queue ~1 BDP) once RTT
     inflation makes the cap bind.

   All models are deterministic given the link signals; every
   stochastic input (demand, on/off activity) draws from the engine's
   seeded SplitMix64 stream. The equations live in the kernel's
   compilation unit and are [@inline]: dune's dev profile compiles with
   -opaque, so every float passed to or returned from another module
   is boxed. *)

(* [Float.min] and [Float.max] without their C call: both ask
   [caml_signbit] whenever their first comparison fails, which is most
   of the time on the per-flow path. Here only ties and NaNs reach the
   Stdlib function, so each returns exactly what it would, signed
   zeros and NaNs included. *)
let[@inline] float_min (x : float) y = if x < y then x else if y < x then y else Float.min x y
let[@inline] float_max (x : float) y = if x > y then x else if y > x then y else Float.max x y

let bbr = Fluid_model.index Fluid_model.Bbr
let cubic = Fluid_model.index Fluid_model.Cubic

(* CUBIC's TCP-friendly AIMD equivalent: beta 0.7 and the matching
   additive increase 3*(1-b)/(1+b). *)
let cubic_beta = 0.7
let cubic_alpha = 3.0 *. (1.0 -. cubic_beta) /. (1.0 +. cubic_beta)
let bbr_probe_gain = 1.25
let bbr_cwnd_gain = 2.0

(* Initial state on (re)activation: IW10 for the window models, ten
   packets per base RTT for BBR's pacing rate. *)
let[@inline] initial_state ~tag ~rtt_s =
  if tag = bbr then 10.0 *. Fluid_model.pkt_bits /. float_max 1e-4 rtt_s else 10.0

(* Instantaneous wire sending rate in bit/s. *)
let[@inline] rate_bps ~tag ~w ~rtt_s =
  if tag = bbr then w else w *. Fluid_model.pkt_bits /. float_max 1e-4 rtt_s

(* dw/dt (window models: packets/s; BBR: bit/s per second). *)
let[@inline] deriv ~tag ~w ~rtt_s ~rtt_min_s ~loss_frac ~service_ratio =
  let r = float_max 1e-3 rtt_s in
  if tag = bbr then begin
    let deliv = w *. service_ratio in
    let gain = float_min bbr_probe_gain (bbr_cwnd_gain *. rtt_min_s /. r) in
    ((gain *. deliv) -. w) /. r
  end
  else begin
    let alpha = if tag = cubic then cubic_alpha else 1.0 in
    let beta = if tag = cubic then cubic_beta else 0.5 in
    (alpha -. ((1.0 -. beta) *. loss_frac *. w *. w)) /. r
  end

(* [U.Rng.exponential rng ~mean] for a finite positive [mean]: the
   uniform comes through [slot.(0)] and the rest is done here, so no
   float crosses a module boundary boxed. *)
let[@inline][@ccsim.hot] exponential_draw rng slot ~mean =
  U.Rng.unit_float_into rng slot 0;
  let u = 1.0 -. slot.(0) in
  -.mean *. log u

(* --- toggle calendar ---------------------------------------------------------- *)

let cal_span = 256

(* File flow [i] in the bucket of step [t.steps + off]: [min_off] when
   its toggle time [f] is already due, else the step after the last one
   whose clock is sure to be below [f], capped at [cal_span - 1] (a
   toggle that far ahead is refiled when visited). While the clock is
   below [f], a step adds [dt_s] and one rounding of at most half an ulp
   of [f] (none while both are subnormal), less than [f *. 0x1p-52]. So
   the clock cannot reach [f] within [floor q] more steps, [q] the gap
   over [dt_s +. f *. 0x1p-52], scaled down by 2^-20 to absorb the
   rounding of [q] itself. *)
let[@inline][@ccsim.hot] file_toggle t i ~min_off =
  let f = t.f_toggle.(i) and now_s = t.clock_s.(0) in
  let off =
    if f <= now_s then min_off
    else begin
      let q = (f -. now_s) /. (t.dt_s +. (f *. 0x1p-52)) *. (1.0 -. 0x1p-20) in
      if q < float_of_int (cal_span - 1) then 1 + int_of_float q else cal_span - 1
    end
  in
  let b = (t.steps + off) land (cal_span - 1) in
  t.cal_next.(i) <- t.cal_head.(b);
  t.cal_head.(b) <- i

(* The first [len] flows of the list from [head], sorted by id and
   ended by -1: a merge sort through [next], recursing log2 [len]
   deep and allocating nothing. *)
let[@ccsim.hot] rec skip next i k = if k = 0 then i else skip next next.(i) (k - 1)

let[@ccsim.hot] rec merge_after next last a b =
  if a < 0 then next.(last) <- b
  else if b < 0 then next.(last) <- a
  else if a < b then begin
    next.(last) <- a;
    merge_after next a next.(a) b
  end
  else begin
    next.(last) <- b;
    merge_after next b a next.(b)
  end

let[@ccsim.hot] rec sort_list next head len =
  if len <= 1 then begin
    if len = 1 then next.(head) <- -1;
    head
  end
  else begin
    let half = len / 2 in
    let b = sort_list next (skip next head half) (len - half) in
    let a = sort_list next head half in
    if a < b then begin
      merge_after next a next.(a) b;
      a
    end
    else begin
      merge_after next b a next.(b);
      b
    end
  end

(* --- build phase ---------------------------------------------------------- *)

(* A full column, copied into one twice as long (at least 16). The
   columns of one kind start empty and grow at the same count, so one
   length test tells when all of them are full; storing a column back
   into [t] is a [caml_modify], so it happens only when it grows. *)
let grow arr default =
  let next = Array.make (Int.max 16 (2 * Array.length arr)) default in
  Array.blit arr 0 next 0 (Array.length arr);
  next

let ensure_open t name = if t.built then invalid_arg (name ^ ": population is sealed (already stepped)")

let add_link t ~capacity_bps ~buffer_bytes =
  ensure_open t "Fluid_engine.add_link";
  if not (positive_finite capacity_bps) then
    invalid_arg "Fluid_engine.add_link: capacity_bps must be finite and positive";
  if buffer_bytes <= 0 then invalid_arg "Fluid_engine.add_link: buffer must be positive";
  let l = t.nl in
  if l = Array.length t.l_cap then begin
    t.l_cap <- grow t.l_cap 0.0;
    t.l_buf <- grow t.l_buf 0.0
  end;
  t.l_cap.(l) <- capacity_bps;
  t.l_buf.(l) <- float_of_int buffer_bytes;
  t.nl <- l + 1;
  l

let add_flow t ~link ~model ~rtt_base_s ?(cap_bps = infinity) ?on_off_s
    ?(start_active = true) () =
  ensure_open t "Fluid_engine.add_flow";
  if link < 0 || link >= t.nl then invalid_arg "Fluid_engine.add_flow: unknown link";
  if not (positive_finite rtt_base_s) then
    invalid_arg "Fluid_engine.add_flow: rtt_base_s must be finite and positive";
  if not (cap_bps > 0.0) then invalid_arg "Fluid_engine.add_flow: cap_bps must be positive";
  let i = t.n in
  if i = Array.length t.f_model then begin
    t.f_model <- grow t.f_model 0;
    t.f_link <- grow t.f_link 0;
    t.f_y <- grow t.f_y 0.0;
    t.f_rtt_base <- grow t.f_rtt_base 0.0;
    t.f_cap <- grow t.f_cap 0.0;
    t.f_on <- grow t.f_on 0.0;
    t.f_off <- grow t.f_off 0.0;
    t.f_toggle <- grow t.f_toggle 0.0
  end;
  let tag = Fluid_model.index model in
  t.f_model.(i) <- tag;
  t.f_link.(i) <- link;
  t.f_rtt_base.(i) <- rtt_base_s;
  t.f_cap.(i) <- cap_bps;
  let active =
    match on_off_s with
    | None ->
        t.f_on.(i) <- infinity;
        t.f_off.(i) <- infinity;
        t.f_toggle.(i) <- infinity;
        true
    | Some (on_s, off_s) ->
        if not (positive_finite on_s && positive_finite off_s) then
          invalid_arg "Fluid_engine.add_flow: on_off_s means must be finite and positive";
        t.f_on.(i) <- on_s;
        t.f_off.(i) <- off_s;
        let mean = if start_active then on_s else off_s in
        t.f_toggle.(i) <- U.Rng.exponential t.rng ~mean;
        start_active
  in
  t.f_y.(i) <- (if active then initial_state ~tag ~rtt_s:rtt_base_s else 0.0);
  t.n <- i + 1;
  i

let seal t =
  if not t.built then begin
    t.built <- true;
    let n = t.n and nl = t.nl in
    t.k_good <- Array.make (2 * n) 0.0;
    t.k_inc <- Array.make n 0.0;
    t.k_hi <- Array.make n 0.0;
    let zeros () = Array.make nl 0.0 in
    t.l_q <- zeros ();
    t.l_pkt_rate <- zeros ();
    t.l_pkt_backlog <- zeros ();
    t.l_arr <- zeros ();
    t.l_served <- zeros ();
    t.l_frozen_at <- Array.make nl 0;
    t.l_contended_s <- zeros ();
    t.l_offered_b <- zeros ();
    t.l_served_b <- zeros ();
    t.l_dropped_b <- zeros ();
    t.l_active <- Array.make nl 0;
    (* CSR index by a counting sort, with no scratch array: count link
       l's flows into l_off.(l + 1) and its active ones into
       l_active.(l), turn l_off.(l + 1) into link l's start, then place
       the active flows and after them the inactive ones, each in
       flow-id order, moving l_off.(l + 1) up to link l's end, which is
       link l + 1's start. *)
    t.l_off <- Array.make (nl + 1) 0;
    let toggles = ref false in
    for i = 0 to n - 1 do
      let l = t.f_link.(i) in
      t.l_off.(l + 1) <- t.l_off.(l + 1) + 1;
      if t.f_y.(i) > 0.0 then t.l_active.(l) <- t.l_active.(l) + 1;
      if t.f_toggle.(i) < infinity then toggles := true
    done;
    let start = ref 0 in
    for l = 0 to nl - 1 do
      let count = t.l_off.(l + 1) in
      t.l_off.(l + 1) <- !start;
      start := !start + count
    done;
    t.by_link <- Array.make n 0;
    let place active =
      for i = 0 to n - 1 do
        if Bool.equal (t.f_y.(i) > 0.0) active then begin
          let l = t.f_link.(i) in
          t.by_link.(t.l_off.(l + 1)) <- i;
          t.l_off.(l + 1) <- t.l_off.(l + 1) + 1
        end
      done
    in
    place true;
    place false;
    (* the rates of a link idle at seal already read 0.0 *)
    t.l_state <- Bytes.init nl (fun l -> if t.l_active.(l) = 0 then st_idle else st_full);
    if !toggles then begin
      t.cal_head <- Array.make cal_span (-1);
      t.cal_next <- Array.make n (-1);
      for i = 0 to n - 1 do
        if t.f_toggle.(i) < infinity then file_toggle t i ~min_off:0
      done
    end
  end

(* --- deferred steps ---------------------------------------------------------- *)

(* [a.(i)] plus [x], [n] times over, one addition after another; four
   additions to an expression keep the sum in a register between
   stores. *)
let[@inline][@ccsim.hot] add_times (a : float array) i x n =
  for _ = 1 to n / 4 do
    a.(i) <- a.(i) +. x +. x +. x +. x
  done;
  for _ = 1 to n mod 4 do
    a.(i) <- a.(i) +. x
  done

(* [n] steps of [w <- float_min (w +. inc) hi] on the window [y.(i)],
   with [inc] and [hi] at CSR position [k], four to a pass; a pass
   whose last step leaves the window as it was ends the replay, as
   every further step would too (see the header). Frozen windows are
   at least 0.1 and never NaN, so [Float.equal] is bitwise equality. *)
let[@ccsim.hot] rec replay_window (y : float array) i (k_inc : float array) k_hi k n =
  if n >= 4 then begin
    let inc = k_inc.(k) and hi = k_hi.(k) in
    let w = float_min (y.(i) +. inc) hi in
    let w = float_min (w +. inc) hi in
    let w3 = float_min (w +. inc) hi in
    let w = float_min (w3 +. inc) hi in
    y.(i) <- w;
    if not (Float.equal w w3) then replay_window y i k_inc k_hi k (n - 4)
  end
  else
    for _ = 1 to n do
      y.(i) <- float_min (y.(i) +. k_inc.(k)) k_hi.(k)
    done

(* Apply frozen link [l]'s steps from [l_frozen_at] up to now to its
   flows' windows and goodputs and to its offered and served bytes. *)
let[@ccsim.hot] replay t l =
  let from = t.l_frozen_at.(l) and upto = t.steps in
  if upto > from then begin
    t.l_frozen_at.(l) <- upto;
    let n = upto - from and credited = upto - Int.max from t.credit_from in
    let first = t.l_off.(l) in
    for k = first to first + t.l_active.(l) - 1 do
      let i = t.by_link.(k) in
      replay_window t.f_y i t.k_inc t.k_hi k n;
      add_times t.k_good ((2 * k) + 1) t.k_good.(2 * k) credited
    done;
    (* served is the arrival, so one term serves both *)
    let offered_b = t.l_arr.(l) *. t.dt_s *. 0.125 in
    add_times t.l_offered_b l offered_b n;
    add_times t.l_served_b l offered_b n
  end

let[@inline][@ccsim.hot] frozen t l = Char.equal (Bytes.get t.l_state l) st_frozen

(* Replay a frozen link before it changes; the caller sets its byte. *)
let[@inline][@ccsim.hot] thaw t l =
  replay t l;
  t.frozen_links <- t.frozen_links - 1

(* Bring a link's deferred state up to now before it is read; a link
   has no state byte before the seal, and nothing to replay. *)
let sync t l = if t.built && frozen t l then replay t l

(* --- hybrid coupling inputs ----------------------------------------------- *)

let set_packet_signals t ~link rate ~backlog_bytes =
  seal t;
  if link < 0 || link >= t.nl then invalid_arg "Fluid_engine.set_packet_signals: unknown link";
  if Float.is_nan rate.(0) then invalid_arg "Fluid_engine.set_packet_signals: NaN rate_bps";
  if frozen t link then begin
    thaw t link;
    Bytes.set t.l_state link st_full
  end;
  t.l_pkt_rate.(link) <- Float.max 0.0 rate.(0);
  t.l_pkt_backlog.(link) <- float_of_int (Int.max 0 backlog_bytes)

(* --- stepping ------------------------------------------------------------- *)

let[@inline] loss_of ~q ~buf =
  if buf <= 0.0 then 0.0
  else begin
    let frac = q /. buf in
    if frac <= loss_theta then 0.0
    else begin
      let z = float_min 1.0 ((frac -. loss_theta) /. (1.0 -. loss_theta)) in
      loss_p_max *. z *. z
    end
  end

(* The first slot at or after [k] holding [x]. *)
let[@ccsim.hot] rec find_from (a : int array) x k = if a.(k) = x then k else find_from a x (k + 1)

(* Move CSR entry [src], its flow id and goodput, to [dst]. *)
let[@inline][@ccsim.hot] move_entry t src dst =
  t.by_link.(dst) <- t.by_link.(src);
  t.k_good.((2 * dst) + 1) <- t.k_good.((2 * src) + 1)

(* Slide the prefix entries above [x] in [first, j) up by one and put
   [x] in the gap, with the goodput in [held]. *)
let[@ccsim.hot] rec insert_at_rank t first j x =
  if j > first && t.by_link.(j - 1) > x then begin
    move_entry t (j - 1) j;
    insert_at_rank t first (j - 1) x
  end
  else begin
    t.by_link.(j) <- x;
    t.k_good.((2 * j) + 1) <- t.held.(0)
  end

let[@ccsim.hot] rec shift_down t k last =
  if k < last then begin
    move_entry t (k + 1) k;
    shift_down t (k + 1) last
  end

let[@inline][@ccsim.hot] activate t l i =
  let first = t.l_off.(l) and active = t.l_active.(l) in
  let free = first + active in
  let k = find_from t.by_link i free in
  t.held.(0) <- t.k_good.((2 * k) + 1);
  move_entry t free k;
  insert_at_rank t first free i;
  t.l_active.(l) <- active + 1

let[@inline][@ccsim.hot] deactivate t l i =
  let first = t.l_off.(l) and active = t.l_active.(l) in
  let last = first + active - 1 in
  let k = find_from t.by_link i first in
  t.held.(0) <- t.k_good.((2 * k) + 1);
  shift_down t k last;
  t.by_link.(last) <- i;
  t.k_good.((2 * last) + 1) <- t.held.(0);
  t.l_active.(l) <- active - 1

(* Toggle the sorted due list from [i] on, in flow-id order (the RNG
   draw order), and file each flow's next toggle for a later step. *)
let[@ccsim.hot] rec toggle_due t i =
  if i >= 0 then begin
    let next = t.cal_next.(i) and now_s = t.clock_s.(0) in
    let l = t.f_link.(i) in
    if frozen t l then thaw t l;
    if t.f_y.(i) > 0.0 then begin
      t.f_y.(i) <- 0.0;
      deactivate t l i;
      t.f_toggle.(i) <- now_s +. exponential_draw t.rng t.draw ~mean:t.f_off.(i)
    end
    else begin
      t.f_y.(i) <- initial_state ~tag:t.f_model.(i) ~rtt_s:t.f_rtt_base.(i);
      activate t l i;
      t.f_toggle.(i) <- now_s +. exponential_draw t.rng t.draw ~mean:t.f_on.(i)
    end;
    Bytes.set t.l_state l
      (if t.l_active.(l) = 0 && Float.equal t.l_q.(l) 0.0 then st_idling else st_full);
    file_toggle t i ~min_off:1;
    toggle_due t next
  end

(* Walk this step's bucket: refile the flows not yet due, collect the
   due ones, then sort and toggle those. *)
let[@ccsim.hot] rec visit t i due count =
  if i < 0 then toggle_due t (sort_list t.cal_next due count)
  else begin
    let next = t.cal_next.(i) in
    if t.f_toggle.(i) <= t.clock_s.(0) then begin
      t.cal_next.(i) <- due;
      visit t next i (count + 1)
    end
    else begin
      file_toggle t i ~min_off:1;
      visit t next due count
    end
  end

let[@ccsim.hot] process_toggles t =
  if Array.length t.cal_head > 0 then begin
    let b = t.steps land (cal_span - 1) in
    let first = t.cal_head.(b) in
    t.cal_head.(b) <- -1;
    visit t first (-1) 0
  end

(* One Euler step of every active flow, link by link. The fluid queue
   is frozen while the link's flows advance (operator splitting), so its
   queueing delay is computed once; the loss probability and service
   ratio come from the arrival of the pre-step states, and [l_arr] ends
   holding the arrival of the post-step states, which the settle and
   the goodput credit use. Each loop walks the link's active prefix:
   inactive flows hold y = +0.0 and add nothing, so leaving them out is
   exact; so are the idle skip and a frozen link's step, which defers
   all but the engine totals (see the header). *)
let[@ccsim.hot] advance t =
  let dt = t.dt_s and payload_frac = t.payload_frac in
  let credit = t.clock_s.(0) +. dt > t.warmup_s in
  if credit && t.credit_from > t.steps then t.credit_from <- t.steps;
  (* the links frozen now take this step's reduced path; a link that
     freezes during the pass takes it from the next step *)
  t.reduced_steps <- t.reduced_steps + t.frozen_links;
  let l_off = t.l_off and by_link = t.by_link and l_active = t.l_active in
  let l_cap = t.l_cap and l_buf = t.l_buf and l_q = t.l_q in
  let l_pkt_rate = t.l_pkt_rate and l_pkt_backlog = t.l_pkt_backlog in
  let l_arr = t.l_arr and l_served = t.l_served in
  let l_state = t.l_state in
  let f_model = t.f_model and f_y = t.f_y and f_rtt_base = t.f_rtt_base and f_cap = t.f_cap in
  let k_good = t.k_good and k_inc = t.k_inc and k_hi = t.k_hi in
  let totals_b = t.totals_b in
  let pkt_bytes = float_of_int Fluid_model.pkt_bytes in
  for l = 0 to t.nl - 1 do
    let state = Bytes.get l_state l in
    if Char.equal state st_idle then ()
    else if Char.equal state st_frozen then begin
      (* served is the arrival, so one term serves both *)
      let offered_b = l_arr.(l) *. dt *. 0.125 in
      totals_b.(ti_offered) <- totals_b.(ti_offered) +. offered_b;
      totals_b.(ti_served) <- totals_b.(ti_served) +. offered_b
    end
    else if Char.equal state st_idling then begin
      l_arr.(l) <- 0.0;
      l_served.(l) <- 0.0;
      Bytes.set l_state l st_idle
    end
    else begin
      t.full_steps <- t.full_steps + 1;
      let q = l_q.(l) in
      let first = l_off.(l) in
      let last = first + l_active.(l) - 1 in
      let cap = l_cap.(l) and buf = l_buf.(l) in
      let queue_delay_s = (q +. l_pkt_backlog.(l)) *. 8.0 /. cap in
      l_arr.(l) <- 0.0;
      for k = first to last do
        let i = by_link.(k) in
        let rtt_s = f_rtt_base.(i) +. queue_delay_s in
        l_arr.(l) <- l_arr.(l) +. float_min (rate_bps ~tag:f_model.(i) ~w:f_y.(i) ~rtt_s) f_cap.(i)
      done;
      let p = loss_of ~q ~buf in
      let s = float_max 0.0 (cap -. l_pkt_rate.(l)) in
      let a0 = l_arr.(l) in
      let service_ratio = if a0 <= s || a0 <= 0.0 then 1.0 else s /. a0 in
      let two_cap = 2.0 *. cap and buf_pkts = buf /. pkt_bytes in
      l_arr.(l) <- 0.0;
      (* the frozen byte doubles as the flows' half of the test: a
         rate below its cap or a BBR window that moved clears it *)
      Bytes.set l_state l st_frozen;
      for k = first to last do
        let i = by_link.(k) in
        let w0 = f_y.(i) and cap_i = f_cap.(i) in
        let tag = f_model.(i) and rtt_min_s = f_rtt_base.(i) in
        let rtt_s = rtt_min_s +. queue_delay_s in
        let inc = dt *. deriv ~tag ~w:w0 ~rtt_s ~rtt_min_s ~loss_frac:p ~service_ratio in
        let w =
          if tag = bbr then begin
            let w = float_min (float_max 1e3 (w0 +. inc)) (float_min (1.3 *. cap_i) two_cap) in
            if not (Float.equal w w0) then Bytes.set l_state l st_full;
            k_inc.(k) <- 0.0;
            k_hi.(k) <- infinity;
            w
          end
          else begin
            let bdp_pkts = cap *. rtt_s /. Fluid_model.pkt_bits in
            let hi = float_max 64.0 (2.0 *. (bdp_pkts +. buf_pkts)) in
            k_inc.(k) <- inc;
            k_hi.(k) <- hi;
            float_min (float_max 0.1 (w0 +. inc)) hi
          end
        in
        f_y.(i) <- w;
        let x = float_min (rate_bps ~tag ~w ~rtt_s) cap_i in
        if not (Float.equal x cap_i) then Bytes.set l_state l st_full;
        k_good.(2 * k) <- x;
        l_arr.(l) <- l_arr.(l) +. x
      done;
      (* queue balance + exact byte accounting; x /. 8.0 is written
         x *. 0.125, the same float *)
      let a = l_arr.(l) in
      let inq = a *. (1.0 -. p) in
      let avail = inq +. (q *. 8.0 /. dt) in
      let served = float_min s avail in
      let q1 = q +. ((inq -. served) *. dt *. 0.125) in
      let overflow = float_max 0.0 (q1 -. buf) in
      let q1 = q1 -. overflow in
      l_q.(l) <- q1;
      l_served.(l) <- served;
      let offered_b = a *. dt *. 0.125 in
      let dropped_b = (p *. a *. dt *. 0.125) +. overflow in
      let served_b = served *. dt *. 0.125 in
      t.l_offered_b.(l) <- t.l_offered_b.(l) +. offered_b;
      t.l_dropped_b.(l) <- t.l_dropped_b.(l) +. dropped_b;
      t.l_served_b.(l) <- t.l_served_b.(l) +. served_b;
      totals_b.(ti_offered) <- totals_b.(ti_offered) +. offered_b;
      totals_b.(ti_dropped) <- totals_b.(ti_dropped) +. dropped_b;
      totals_b.(ti_served) <- totals_b.(ti_served) +. served_b;
      totals_b.(ti_q) <- totals_b.(ti_q) +. (q1 -. q);
      (* contention: a busy link with at least two active flows where the
         queue signal (loss or >=5 ms of queueing, read after the settle)
         is doing the allocating — the paper's prerequisites, in fluid
         terms. *)
      if
        s > 0.0
        && a >= 0.95 *. s
        && l_active.(l) >= 2
        && (p > 0.0 || (q1 +. l_pkt_backlog.(l)) *. 8.0 /. cap >= 0.005)
      then t.l_contended_s.(l) <- t.l_contended_s.(l) +. dt;
      (* the link's half of the freeze rule (see the header) *)
      let frozen =
        Char.equal (Bytes.get l_state l) st_frozen
        && Float.equal q 0.0 && Float.equal q1 0.0
        && Float.equal l_pkt_rate.(l) 0.0 && Float.equal l_pkt_backlog.(l) 0.0
        && Float.equal a0 a && a0 <= s
      in
      (* a frozen link's next step is its first deferred one *)
      if frozen then begin
        t.l_frozen_at.(l) <- t.steps + 1;
        t.frozen_links <- t.frozen_links + 1
      end
      else
        Bytes.set l_state l
          (if l_active.(l) = 0 && Float.equal q1 0.0 then st_idling else st_full);
      (* per-flow delivered payload over the measurement window; a
         frozen link keeps each flow's term in [k_good] for its deferred
         steps, credited or not yet *)
      if (credit || frozen) && a > 0.0 then
        for k = first to last do
          let g = k_good.(2 * k) /. a *. served *. payload_frac *. dt *. 0.125 in
          k_good.(2 * k) <- g;
          if credit then k_good.((2 * k) + 1) <- k_good.((2 * k) + 1) +. g
        done
    end
  done

let[@ccsim.hot] step t =
  seal t;
  process_toggles t;
  advance t;
  t.clock_s.(0) <- t.clock_s.(0) +. t.dt_s;
  t.steps <- t.steps + 1

let link_steps t =
  (t.steps * t.nl - t.reduced_steps - t.full_steps, t.reduced_steps, t.full_steps)

(* --- outputs --------------------------------------------------------------- *)

let check_link t l name = if l < 0 || l >= t.nl then invalid_arg (name ^ ": unknown link")
let check_flow t i name = if i < 0 || i >= t.n then invalid_arg (name ^ ": unknown flow")

let link_capacity_bps t l = check_link t l "Fluid_engine.link_capacity_bps"; t.l_cap.(l)
let link_served_bps t l = check_link t l "Fluid_engine.link_served_bps"; t.l_served.(l)
let link_queue_bytes t l = check_link t l "Fluid_engine.link_queue_bytes"; t.l_q.(l)

let link_cross_into t l out =
  check_link t l "Fluid_engine.link_cross_into";
  out.(0) <- t.l_served.(l);
  out.(1) <- t.l_q.(l)

let link_contended_s t l =
  check_link t l "Fluid_engine.link_contended_s";
  t.l_contended_s.(l)

let link_served_bytes t l =
  check_link t l "Fluid_engine.link_served_bytes";
  sync t l;
  t.l_served_b.(l)

let link_residual_bytes t l =
  check_link t l "Fluid_engine.link_residual_bytes";
  sync t l;
  t.l_offered_b.(l) -. t.l_dropped_b.(l) -. t.l_served_b.(l) -. t.l_q.(l)

let flow_goodput_bps t i =
  check_flow t i "Fluid_engine.flow_goodput_bps";
  sync t t.f_link.(i);
  let window_s = now_s t -. t.warmup_s in
  (* a stepped population is sealed, so the flow has a CSR position *)
  if window_s <= 0.0 then 0.0
  else t.k_good.((2 * find_from t.by_link i t.l_off.(t.f_link.(i))) + 1) *. 8.0 /. window_s

let totals t =
  {
    offered_bytes = t.totals_b.(ti_offered);
    served_bytes = t.totals_b.(ti_served);
    dropped_bytes = t.totals_b.(ti_dropped);
    queued_bytes = t.totals_b.(ti_q);
  }

(* One pass over the links, summing in link order; the per-link
   arrays are empty until the seal, so an unsealed engine reads zeros. *)
let aggregate t =
  let arrival = ref 0.0 and served = ref 0.0 and queue = ref 0.0 in
  let active = ref 0 and contended = ref 0 in
  for l = 0 to Array.length t.l_arr - 1 do
    arrival := !arrival +. t.l_arr.(l);
    served := !served +. t.l_served.(l);
    queue := !queue +. t.l_q.(l);
    active := !active + t.l_active.(l);
    if t.l_contended_s.(l) > 0.0 then incr contended
  done;
  {
    arrival_bps = !arrival;
    served_bps = !served;
    queue_bytes = !queue;
    active_flows = !active;
    contended_links = !contended;
  }

let residual_bytes t =
  t.totals_b.(ti_offered) -. t.totals_b.(ti_dropped) -. t.totals_b.(ti_served)
  -. t.totals_b.(ti_q)

let register_link_invariant t ~component w l =
  check_link t l "Fluid_engine.register_link_invariant";
  Obs.Watchdog.register w ~component ~invariant:"fluid_byte_conservation" (fun () ->
      let residue = link_residual_bytes t l in
      let tol = Float.max 64.0 (1e-6 *. t.l_offered_b.(l)) in
      if not (Float.abs residue <= tol) then
        Some
          (Printf.sprintf
             "link %d: offered=%.0f dropped=%.0f served=%.0f queued=%.0f: residue %.1f \
              bytes exceeds %.1f"
             l t.l_offered_b.(l) t.l_dropped_b.(l) t.l_served_b.(l) t.l_q.(l) residue tol)
      else None)

let inject_accounting_skew t ~link ~bytes =
  check_link t link "Fluid_engine.inject_accounting_skew";
  sync t link;
  t.l_served_b.(link) <- t.l_served_b.(link) +. bytes;
  t.totals_b.(ti_served) <- t.totals_b.(ti_served) +. bytes
