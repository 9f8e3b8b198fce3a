type kind =
  | Timed of { default_s : float; warmup_s : float }
  | Sized of int

type t = {
  id : string;
  title : string;
  kind : kind;
  backends : string list;
  supports_faults : bool;
  render : ?backend:string -> ?duration:float -> ?n:int -> seed:int -> unit -> string;
}

(* Timed experiments all run through Scenario.run, which consults the
   ambient fault-plan arming; the sized ones (fig2's synthetic M-Lab
   population, the a2 detector ablation, p1's fluid/hybrid population)
   never build a packet topology a plan could act on.

   Every timed experiment measures for at least one simulated second
   after its warmup. A shorter window reads as a result (e4 at 5.001 s
   printed "cubic got 0.00" beside "satisfied A 100.0%") while holding
   almost no samples. One second is also the shortest window anything
   runs: the cache test's [sweep e4 --durations 6] and the quick a4
   perf row (16 s after a 15 s warmup). *)
let min_window_s = 1.0

let timed id title default_s ~warmup_s render =
  {
    id;
    title;
    kind = Timed { default_s; warmup_s };
    backends = [ "packet" ];
    supports_faults = true;
    render = (fun ?backend:_ ?duration ?n ~seed () -> render ?duration ?n ~seed ());
  }

let sized id title default render =
  {
    id;
    title;
    kind = Sized default;
    backends = [ "packet" ];
    supports_faults = false;
    render = (fun ?backend:_ ?duration ?n ~seed () -> render ?duration ?n ~seed ());
  }

(* Experiments that run on more than one backend list them explicitly
   (first = default) and receive the validated [backend] string. *)
let sized_multi id title default backends render =
  { id; title; kind = Sized default; backends; supports_faults = false; render }

let all =
  [
    timed "fig1" "Contention-prerequisite taxonomy behind Figure 1" 60.0
      ~warmup_s:Fig1_taxonomy.warmup_s
      (fun ?duration ?n:_ ~seed () -> Fig1_taxonomy.(render (run ?duration ~seed ())));
    sized "fig2" "M-Lab NDT categorization + change-point analysis (Figure 2)" 9984
      (fun ?duration:_ ?n ~seed () -> Fig2.(render (run ?n ~seed ())));
    timed "fig3" "Nimbus elasticity vs five cross-traffic types (Figure 3)" 45.0
      ~warmup_s:Fig3.warmup_s
      (fun ?duration ?n:_ ~seed () -> Fig3.(render (run ?duration ~seed ())));
    timed "e1" "FIFO vs DRR fair queueing across CCA pairings" 60.0 ~warmup_s:E1_fq.warmup_s
      (fun ?duration ?n:_ ~seed () -> E1_fq.(render (run ?duration ~seed ())));
    timed "e2" "Token-bucket shaping and policing pin the allocation" 30.0
      ~warmup_s:E2_throttle.warmup_s
      (fun ?duration ?n:_ ~seed () -> E2_throttle.(render (run ?duration ~seed ())));
    timed "e3" "Short flows fit in the initial window" 60.0 ~warmup_s:E3_short_flows.warmup_s
      (fun ?duration ?n:_ ~seed () -> E3_short_flows.(render (run ?duration ~seed ())));
    timed "e4" "App-limited flows receive exactly their demand" 30.0
      ~warmup_s:E4_app_limited.warmup_s
      (fun ?duration ?n:_ ~seed () -> E4_app_limited.(render (run ?duration ~seed ())));
    timed "e5" "ABR video bounds its own demand" 60.0 ~warmup_s:E5_video.warmup_s
      (fun ?duration ?n:_ ~seed () -> E5_video.(render (run ?duration ~seed ())));
    timed "e6" "Sub-packet BDP starvation (Chen et al.)" 120.0 ~warmup_s:E6_subpacket.warmup_s
      (fun ?duration ?n:_ ~seed () -> E6_subpacket.(render (run ?duration ~seed ())));
    timed "e7" "Token-bucket bursts cause jitter under fair queueing" 30.0
      ~warmup_s:E7_jitter.warmup_s
      (fun ?duration ?n:_ ~seed () -> E7_jitter.(render (run ?duration ~seed ())));
    timed "x1" "Utilization/delay trade-off on a wandering cellular-like link" 60.0
      ~warmup_s:X1_cellular.warmup_s
      (fun ?duration ?n:_ ~seed () -> X1_cellular.(render (run ?duration ~seed ())));
    timed "x2" "Ware et al. harm matrix across CCA pairings" 40.0 ~warmup_s:X2_harm.warmup_s
      (fun ?duration ?n:_ ~seed () -> X2_harm.(render (run ?duration ~seed ())));
    (* x3 measures whole runs, from t = 0. *)
    timed "x3" "Per-flow vs per-user FQ vs the RCS share model" 40.0 ~warmup_s:0.0
      (fun ?duration ?n:_ ~seed () -> X3_rcs.(render (run ?duration ~seed ())));
    timed "x4" "Scavenger (LEDBAT) software updates do not contend" 90.0
      ~warmup_s:X4_scavenger.warmup_s
      (fun ?duration ?n:_ ~seed () -> X4_scavenger.(render (run ?duration ~seed ())));
    timed "a1" "Ablation: Nimbus pulse amplitude vs separation" 45.0
      ~warmup_s:A1_pulse_ablation.warmup_s
      (fun ?duration ?n:_ ~seed () -> A1_pulse_ablation.(render (run ?duration ~seed ())));
    sized "a2" "Ablation: change-point penalty vs detector accuracy" 3000
      (fun ?duration:_ ?n ~seed () -> A2_penalty_ablation.(render (run ?n ~seed ())));
    timed "a3" "Ablation: DRR quantum vs isolation quality" 40.0
      ~warmup_s:A3_quantum_ablation.warmup_s
      (fun ?duration ?n:_ ~seed () -> A3_quantum_ablation.(render (run ?duration ~seed ())));
    timed "a4" "Ablation: buffer depth vs BBR/Reno share" 60.0
      ~warmup_s:A4_buffer_ablation.warmup_s
      (fun ?duration ?n:_ ~seed () -> A4_buffer_ablation.(render (run ?duration ~seed ())));
    timed "c1" "Chaos: elasticity-verdict stability under canonical fault plans" 45.0
      ~warmup_s:C1_chaos.warmup_s
      (fun ?duration ?n:_ ~seed () -> C1_chaos.(render (run ?duration ~seed ())));
    sized_multi "p1" "Contention prevalence across a fluid/hybrid user population" 2000
      [ "fluid"; "hybrid" ]
      (fun ?backend ?duration:_ ?n ~seed () ->
        let backend =
          match backend with
          | None -> P1_prevalence.Fluid
          | Some s -> (
              match P1_prevalence.backend_of_string s with
              | Some b -> b
              | None -> invalid_arg (Printf.sprintf "p1: unsupported backend %S" s))
        in
        P1_prevalence.(render (run ?n ~seed ~backend ())));
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all

let effective_params e ?backend ?duration ?n ~seed () =
  let main =
    match e.kind with
    | Timed { default_s = default; _ } ->
        ("duration", Printf.sprintf "%g" (Option.value duration ~default))
    | Sized default -> ("n", string_of_int (Option.value n ~default))
  in
  let base = [ main; ("seed", string_of_int seed) ] in
  (* Single-backend experiments keep their historical parameter set, so
     cached results from before the backend axis stay valid. *)
  match e.backends with
  | [] | [ _ ] -> base
  | default :: _ -> base @ [ ("backend", Option.value backend ~default) ]
