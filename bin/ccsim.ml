(* ccsim — regenerate the paper's figures and experiments from the CLI.

   Subcommands are generated from Ccsim_core.Experiments (DESIGN.md's
   index) and execute through Ccsim_runner: jobs on a domain pool
   (-j N), a content-addressed result cache, and run telemetry. `ccsim
   all` runs everything; `ccsim sweep` runs cross-products over
   experiments x seeds x durations.

   Observability (--metrics / --flight-rec / --profile) attaches a
   per-job Ccsim_obs scope around each job thunk: every component the
   job creates picks up the instruments from the ambient scope, and
   the collected data is exported after the pool drains. Instrumented
   runs always recompute (a cache hit would skip the thunk and leave
   the instruments empty). *)

open Cmdliner
module R = Ccsim_runner
module E = Ccsim_core.Experiments
module Obs = Ccsim_obs
module Faults = Ccsim_faults

(* Reject out-of-domain numbers at parse time, so they exit 2 naming the
   option: downstream they raise an uncaught Invalid_argument
   (Recorder.create, Span.create, Timeline.create), fail the job
   (Scenario.make, the population builders), or never finish (an
   infinite duration). *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ -> Error (`Msg "value must be positive")
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* A float converter accepting the values [ok] holds for. *)
let float_where ~expected ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when ok x -> Ok x
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv (parse, Format.pp_print_float)

let positive_float =
  float_where ~expected:"a finite positive number" (fun x -> Float.is_finite x && x > 0.0)

(* A NaN warmup or threshold compares false against every sample, so it
   would silently empty or flip every verdict. *)
let finite_float = float_where ~expected:"a finite number" Float.is_finite

(* A sampling interval finer than a millisecond stalls the run: the
   timeline driver fires so often that the clock barely advances (1e-300
   never finishes), as with the flap floor of the fault plans. *)
let sampling_interval =
  float_where ~expected:"a finite interval of at least 0.001 s" (fun x ->
      Float.is_finite x && x >= 0.001)

let nonempty_list conv =
  let list = Arg.list conv in
  let parse s =
    match Arg.conv_parser list s with
    | Ok [] -> Error (`Msg "expected at least one value")
    | result -> result
  in
  Arg.conv (parse, Arg.conv_printer list)

(* An output file is written after the jobs ran (missing parents are
   created), so a path that cannot be written would throw their results
   away: refuse it while parsing. *)
let out_file =
  let parse path =
    let rec parent_ok dir =
      if Sys.file_exists dir then Sys.is_directory dir
      else
        let up = Filename.dirname dir in
        String.equal up dir || parent_ok up
    in
    if String.equal path "" then Error (`Msg "expected a file path")
    else if Sys.file_exists path && Sys.is_directory path then
      Error (`Msg (Printf.sprintf "%S is a directory" path))
    else if not (parent_ok (Filename.dirname path)) then
      Error (`Msg (Printf.sprintf "cannot write %S: its parent is not a directory" path))
    else Ok path
  in
  Arg.conv (parse, Format.pp_print_string)

let seed_arg =
  let doc = "Deterministic seed for the experiment." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let duration_arg default =
  let doc = "Simulated seconds per scenario." in
  Arg.(value & opt positive_float default & info [ "duration" ] ~docv:"SECONDS" ~doc)

let flows_arg default =
  let doc = "Synthetic population size (flows/candidates to generate)." in
  Arg.(value & opt positive_int default & info [ "flows" ] ~docv:"N" ~doc)

let backend_arg =
  let doc =
    "Simulation backend: $(b,packet) (discrete-event), $(b,fluid) (per-flow rate ODEs), \
     or $(b,hybrid) (packet foreground against fluid background aggregates). Defaults to \
     the experiment's first supported backend."
  in
  Arg.(value & opt (some string) None & info [ "backend" ] ~docv:"BACKEND" ~doc)

(* Reject a backend the experiment does not support before any job is
   built. Exit 124, not the usage-error 2: an unsupported backend is a
   capability gap, not a malformed command line (see the exit-code table
   in the README). *)
let validate_backend (e : E.t) = function
  | None -> None
  | Some b ->
      if List.mem b e.backends then Some b
      else begin
        Printf.eprintf "ccsim %s: unsupported backend %S (supported: %s)\n" e.id b
          (String.concat ", " e.backends);
        exit 124
      end

(* A timed experiment measures after its warmup, for at least its
   minimum window. A duration inside the warmup would fail every job
   (Scenario.make raises) or, for a1, score no samples at all; one just
   past it reports on a window too short to mean anything. Either is
   refused before any job starts, exit 2. *)
let check_duration ~cmd ~option (e : E.t) d =
  match e.kind with
  | E.Timed { warmup_s; _ } when d < warmup_s +. E.min_window_s ->
      Printf.eprintf
        "ccsim %s: %s %g is shorter than %s's %g s warmup plus its %g s minimum measurement window\n"
        cmd option d e.id warmup_s E.min_window_s;
      exit 2
  | E.Timed _ | E.Sized _ -> ()

let jobs_arg =
  let doc = "Worker domains; 1 runs serially (bit-identical to the pre-runner CLI)." in
  Arg.(value & opt positive_int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* --- fault injection ------------------------------------------------------- *)

let plan_conv =
  let parse s =
    match Faults.Plan.parse s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg ("invalid fault plan: " ^ msg))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Faults.Plan.to_string p))

let faults_arg =
  let doc =
    "Arm a deterministic fault-injection plan against every scenario's bottleneck: \
     semicolon-separated clauses such as $(b,outage at=20 dur=2), $(b,burst-loss at=30 \
     dur=20 p-enter=0.01 p-exit=0.25 loss-bad=0.3), $(b,capacity at=10 factor=0.5 dur=5), \
     $(b,ramp), $(b,loss), $(b,corrupt), $(b,duplicate), $(b,reorder), $(b,delay-spike), \
     $(b,qdisc-reset at=40), $(b,flap from=10 until=50 mean-up=5 mean-down=0.5). Fault \
     events are journaled by the flight recorder (class $(b,fault)) and mirrored as \
     $(b,fault_span) timeline series. A malformed plan is a usage error."
  in
  Arg.(value & opt (some plan_conv) None & info [ "faults" ] ~docv:"PLAN" ~doc)

let fault_seed_arg =
  let doc =
    "Seed for the fault plan's SplitMix64 streams (flap holding times, per-packet \
     loss/corruption draws). Independent of --seed: the same workload can be replayed \
     under different chaos. Same (plan, fault-seed) reproduces byte-identically."
  in
  Arg.(value & opt int 42 & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let faults_term =
  Term.(
    const (fun plan fault_seed -> Option.map (fun p -> (p, fault_seed)) plan)
    $ faults_arg $ fault_seed_arg)

let no_cache_arg =
  let doc = "Always recompute; do not read or write the result cache." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let report_arg =
  let doc = "Write the machine-readable JSON run report to $(docv)." in
  Arg.(value & opt (some out_file) None & info [ "report" ] ~docv:"FILE" ~doc)

(* --- observability flags --------------------------------------------------- *)

let metrics_arg =
  let doc =
    "Collect the metrics registry (counters, gauges, histograms) of every job and write \
     it to $(docv) as NDJSON, one instrument per line, each line tagged with its job."
  in
  Arg.(value & opt (some out_file) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let flight_arg =
  let doc =
    "Record a structured flight journal (packet events, qdisc drops, CCA decisions) per \
     job and write it to $(docv); a .csv extension selects CSV, anything else NDJSON."
  in
  Arg.(value & opt (some out_file) None & info [ "flight-rec" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Profile the event loop: per-component execution time, events/sec, simulated-vs-real \
     speedup, peak heap depth. Summaries go to stderr; the full profile is embedded in \
     the JSON report."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let series_arg =
  let doc =
    "Sample timeline series (per-flow goodput/cwnd/srtt/inflight, queue backlog and \
     drops, Nimbus elasticity) on the simulation clock and write them to $(docv); a .csv \
     extension selects CSV, anything else NDJSON (one point per line, analyzable offline \
     with `ccsim analyze`)."
  in
  Arg.(value & opt (some out_file) None & info [ "series" ] ~docv:"FILE" ~doc)

let series_interval_arg =
  let doc = "Timeline sampling interval in simulated seconds (at least 0.001)." in
  Arg.(
    value
    & opt sampling_interval Obs.Timeline.default_interval
    & info [ "series-interval" ] ~docv:"SECONDS" ~doc)

let chrome_arg =
  let doc =
    "Export a Chrome trace-event file to $(docv) — timeline series as counter tracks \
     merged with flight-recorder events — loadable in Perfetto (ui.perfetto.dev) or \
     chrome://tracing."
  in
  Arg.(value & opt (some out_file) None & info [ "chrome-trace" ] ~docv:"FILE" ~doc)

let check_arg =
  let doc =
    "Run the invariant watchdog: packet/byte conservation per link, queue backlog within \
     capacity, positive cwnd, clock monotonicity, telemetry ordering. The first violation \
     fails the run with a structured report."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let check_policy_arg =
  let doc =
    "Watchdog violation policy (implies --check): $(b,abort) fails the run on the first \
     violation (the --check default), $(b,quarantine) completes the run but marks the job \
     degraded, $(b,warn) only reports violations on stderr."
  in
  let policy_conv =
    let parse s =
      match Obs.Watchdog.policy_of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "expected warn, quarantine or abort, got %S" s))
    in
    Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Obs.Watchdog.policy_to_string p))
  in
  Arg.(value & opt (some policy_conv) None & info [ "check-policy" ] ~docv:"POLICY" ~doc)

let flight_cap_arg =
  let doc =
    "Flight recorder capacity: keep the most recent $(docv) events per job. Must be \
     positive."
  in
  Arg.(
    value
    & opt positive_int Obs.Recorder.default_capacity
    & info [ "flight-rec-cap" ] ~docv:"N" ~doc)

let flight_level_arg =
  let doc =
    "Flight recorder severity floor: $(b,debug) (keep everything, the default), \
     $(b,info), $(b,warn) or $(b,error). Events below the floor are discarded at record \
     time without counting against the capacity."
  in
  let level_conv =
    let parse s =
      match String.lowercase_ascii s with
      | "debug" -> Ok Obs.Recorder.Debug
      | "info" -> Ok Obs.Recorder.Info
      | "warn" -> Ok Obs.Recorder.Warn
      | "error" -> Ok Obs.Recorder.Error
      | _ ->
          Error (`Msg (Printf.sprintf "expected debug, info, warn or error, got %S" s))
    in
    Arg.conv
      (parse, fun ppf l -> Format.pp_print_string ppf (Obs.Recorder.severity_to_string l))
  in
  Arg.(
    value
    & opt level_conv Obs.Recorder.Debug
    & info [ "flight-rec-level" ] ~docv:"LEVEL" ~doc)

let spans_arg =
  let doc =
    "Record sampled packet lifecycle spans: for a deterministic 1-in-N sample of packets \
     (see --span-sample), the enqueue → dequeue → serialization → delivery/drop \
     timestamps at every hop, decomposing hop delay into queueing, serialization and \
     propagation. Spans export as per-hop duration tracks in --chrome-trace and journal \
     as class-$(b,span) events in --flight-rec; a per-job summary goes to stderr."
  in
  Arg.(value & flag & info [ "spans" ] ~doc)

let default_span_sample = 64

let span_sample_arg =
  let doc =
    "Span sampling rate: record one packet in $(docv), selected by packet uid (no RNG is \
     consumed, so sampling never perturbs results). 1 records every packet. Implies \
     --spans."
  in
  Arg.(
    value & opt (some positive_int) None & info [ "span-sample" ] ~docv:"N" ~doc)

type obs_cfg = {
  metrics_path : string option;
  flight_path : string option;
  profile : bool;
  series_path : string option;
  series_interval : float;
  chrome_path : string option;
  check : bool;
  check_policy : Obs.Watchdog.policy option;
  flight_cap : int;
  flight_level : Obs.Recorder.severity;
  spans : bool;
  span_sample : int;
}

let obs_cfg_term =
  let make metrics_path flight_path profile series_path series_interval chrome_path check
      check_policy flight_cap flight_level spans span_sample =
    {
      metrics_path;
      flight_path;
      profile;
      series_path;
      series_interval;
      chrome_path;
      check = check || Option.is_some check_policy;
      check_policy;
      flight_cap;
      flight_level;
      spans = spans || Option.is_some span_sample;
      span_sample = Option.value span_sample ~default:default_span_sample;
    }
  in
  Term.(
    const make $ metrics_arg $ flight_arg $ profile_arg $ series_arg $ series_interval_arg
    $ chrome_arg $ check_arg $ check_policy_arg $ flight_cap_arg $ flight_level_arg
    $ spans_arg $ span_sample_arg)

let obs_enabled c =
  Option.is_some c.metrics_path || Option.is_some c.flight_path || c.profile
  || Option.is_some c.series_path || Option.is_some c.chrome_path || c.check || c.spans

(* The scope a job runs under, holding that job's own instruments
   (registries are not thread-safe; a job runs entirely on one pool
   domain). They are harvested after the pool drains. *)
let job_scope cfg =
  let metrics = if Option.is_some cfg.metrics_path then Some (Obs.Metrics.create ()) else None in
  let recorder =
    if Option.is_some cfg.flight_path || Option.is_some cfg.chrome_path then
      Some (Obs.Recorder.create ~capacity:cfg.flight_cap ~level:cfg.flight_level ())
    else None
  in
  let profile = if cfg.profile then Some (Obs.Profile.create ()) else None in
  let timeline =
    if Option.is_some cfg.series_path || Option.is_some cfg.chrome_path then
      Some (Obs.Timeline.create ~interval:cfg.series_interval ())
    else None
  in
  let watchdog =
    if cfg.check then Some (Obs.Watchdog.create ?policy:cfg.check_policy ()) else None
  in
  let span =
    if cfg.spans then Some (Obs.Span.create ?recorder ~sample:cfg.span_sample ()) else None
  in
  (match (watchdog, timeline) with
  | Some w, Some tl -> Obs.Watchdog.watch_timeline w tl
  | _ -> ());
  Obs.Scope.v ?metrics ?recorder ?profile ?timeline ?watchdog ?span ()

let write_file path content =
  R.Cache.mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc content)

(* One export file built job by job from the instrument [get] picks out
   of each job's scope: [render ~csv ~header ~extra x] tags the job's
   lines with its name, and the CSV header goes on the first job only. *)
let export_per_job path scopes get render =
  Option.iter
    (fun path ->
      let csv = Filename.check_suffix path ".csv" in
      let buf = Buffer.create 4096 in
      List.iteri
        (fun i (name, scope) ->
          Option.iter
            (fun x ->
              Buffer.add_string buf (render ~csv ~header:(i = 0) ~extra:[ ("job", name) ] x))
            (get scope))
        scopes;
      write_file path (Buffer.contents buf))
    path

(* Export the instruments of every [(job, scope)]; returns [(job,
   profile-json)] pairs for the runner report. *)
let export_obs cfg scopes =
  export_per_job cfg.metrics_path scopes
    (fun s -> s.Obs.Scope.metrics)
    (fun ~csv:_ ~header:_ ~extra m -> Obs.Metrics.to_ndjson ~extra m);
  export_per_job cfg.flight_path scopes
    (fun s -> s.Obs.Scope.recorder)
    (fun ~csv ~header ~extra r ->
      if csv then Obs.Recorder.to_csv ~header ~extra r else Obs.Recorder.to_ndjson ~extra r);
  export_per_job cfg.series_path scopes
    (fun s -> s.Obs.Scope.timeline)
    (fun ~csv ~header ~extra tl ->
      if csv then Obs.Timeline.to_csv ~header ~extra tl else Obs.Timeline.to_ndjson ~extra tl);
  Option.iter
    (fun path ->
      write_file path
        (Obs.Chrome_trace.to_string
           (List.map
              (fun (name, (s : Obs.Scope.t)) -> (name, s.timeline, s.recorder, s.span))
              scopes)))
    cfg.chrome_path;
  List.iter
    (fun (name, (s : Obs.Scope.t)) ->
      Option.iter
        (fun sp ->
          Printf.eprintf "spans %s: sample 1/%d, started %d, completed %d, evicted %d\n%!" name
            (Obs.Span.sample sp) (Obs.Span.started sp) (Obs.Span.completed_count sp)
            (Obs.Span.evicted sp))
        s.span)
    scopes;
  (* Under warn/quarantine the run survives past the first violation, so
     report every one the watchdog collected, not just the first. *)
  List.iter
    (fun (_, (s : Obs.Scope.t)) ->
      Option.iter
        (fun w ->
          List.iter
            (fun v -> Printf.eprintf "%s%!" (Obs.Watchdog.report v))
            (Obs.Watchdog.violations w))
        s.watchdog)
    scopes;
  List.filter_map
    (fun (name, (s : Obs.Scope.t)) ->
      Option.map
        (fun p ->
          Printf.eprintf "profile %s: %s\n%!" name (Obs.Profile.summary p);
          (name, Obs.Profile.to_json p))
        s.profile)
    scopes

(* An armed fault plan changes what the renderer computes, so it joins
   the digest params (fault-free digests are unchanged — old cache
   entries stay valid) and wraps the thunk in the ambient arming that
   Scenario.run consults. *)
let fault_params = function
  | None -> []
  | Some (plan, fault_seed) ->
      [ ("faults", Faults.Plan.to_string plan); ("fault-seed", string_of_int fault_seed) ]

let arm_faults faults render =
  match faults with
  | None -> render
  | Some (plan, fault_seed) ->
      fun () ->
        Faults.Plan.with_armed (Some { Faults.Plan.plan; seed = fault_seed }) render

(* Sweep names a job by its effective params, not by its sweep point:
   experiments ignore the axes that do not apply to them. *)
let params_name (e : E.t) params =
  String.concat " " (e.id :: List.map (fun (k, v) -> k ^ "=" ^ v) params)

(* Every job the CLI runs, paired with the scope it runs under when
   instruments are on. The digest is keyed by the experiment id; [name]
   only labels the job. *)
let job_of ?backend ?duration ?n ?faults ?(name = fun (e : E.t) _ -> e.id) ~seed ~obs
    (e : E.t) =
  let params = E.effective_params e ?backend ?duration ?n ~seed () @ fault_params faults in
  let render = arm_faults faults (fun () -> e.render ?backend ?duration ?n ~seed ()) in
  let scope = if obs_enabled obs then Some (job_scope obs) else None in
  let thunk =
    match scope with None -> render | Some s -> fun () -> Obs.Scope.with_scope s render
  in
  let digest = R.Job.digest_of_params ~name:e.id params in
  (R.Job.make ~name:(name e params) ~digest thunk, scope)

(* A job whose watchdog tripped under the quarantine policy completed,
   but its numbers ran through a violated invariant: mark the result
   degraded so the telemetry table, JSON report and exit code say so. *)
let mark_quarantined scope (r : R.Job.result) =
  match scope with
  | Some { Obs.Scope.watchdog = Some w; _ } when r.ok && Obs.Watchdog.degraded w ->
      { r with degraded = true; error = Some "watchdog quarantine: invariant violated" }
  | Some _ | None -> r

(* Run jobs and report them. [print_block i r] writes each job's rows to
   stdout in submission order, and stdout carries nothing else, so it
   stays byte-identical across -j levels and cache states. The telemetry
   table (when [telemetry]) goes to stderr. The JSON report goes to
   [report], or to [default_report] in the cache directory when caching.
   Returns the unified exit code (Telemetry.exit_code). *)
let run_jobs ~jobs ~no_cache ~report ~default_report ~telemetry ~print_block ~obs pairs =
  let no_cache = no_cache || obs_enabled obs in
  let cache = if no_cache then None else Some (R.Cache.create ()) in
  let t0 = R.Telemetry.now_s () in
  let results = R.Pool.run ~jobs ?cache (List.map fst pairs) in
  let scopes = Array.of_list (List.map snd pairs) in
  let results = Array.map2 mark_quarantined scopes results in
  let total_wall_s = R.Telemetry.now_s () -. t0 in
  Array.iteri print_block results;
  flush stdout;
  let tele = R.Telemetry.make ~pool_jobs:jobs ~total_wall_s results in
  if telemetry then prerr_string (R.Telemetry.summary tele);
  flush stderr;
  let profiles =
    export_obs obs
      (List.filter_map
         (fun ((j : R.Job.t), scope) -> Option.map (fun s -> (j.name, s)) scope)
         pairs)
  in
  let report_path =
    match report with
    | Some p -> Some p
    | None when not no_cache -> Some (Filename.concat (R.Cache.default_dir ()) default_report)
    | None -> None
  in
  Option.iter (fun path -> R.Telemetry.write_json ~profiles tele ~path) report_path;
  R.Telemetry.exit_code tele

(* `all` and the experiment commands: blocks separated by a blank line. *)
let print_plain i (r : R.Job.result) =
  if i > 0 then print_newline ();
  print_string r.output

let exp_cmd (e : E.t) =
  let size =
    match e.kind with
    | E.Timed { default_s; _ } ->
        Term.(const (fun d -> (Some d, None)) $ duration_arg default_s)
    | E.Sized default -> Term.(const (fun n -> (None, Some n)) $ flows_arg default)
  in
  let run (duration, n) seed backend jobs report obs faults =
    let backend = validate_backend e backend in
    Option.iter (check_duration ~cmd:e.id ~option:"--duration" e) duration;
    exit
      (run_jobs ~jobs ~no_cache:true ~report ~default_report:"last_run.json" ~telemetry:false
         ~print_block:print_plain ~obs
         [ job_of ?backend ?duration ?n ?faults ~seed ~obs e ])
  in
  Cmd.v (Cmd.info e.id ~doc:e.title)
    Term.(
      const run $ size $ seed_arg $ backend_arg $ jobs_arg $ report_arg $ obs_cfg_term
      $ faults_term)

let all_cmd =
  (* Fault params join the job digests, so caching stays correct with
     --faults: same (plan, seed) hits, anything else misses. *)
  let run seed jobs no_cache report obs faults =
    exit
      (run_jobs ~jobs ~no_cache ~report ~default_report:"last_run.json" ~telemetry:true
         ~print_block:print_plain ~obs
         (List.map (job_of ?faults ~seed ~obs) E.all))
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "Run every figure and experiment in DESIGN.md order on a domain pool (-j), with \
          result caching and run telemetry")
    Term.(const run $ seed_arg $ jobs_arg $ no_cache_arg $ report_arg $ obs_cfg_term $ faults_term)

let list_cmd =
  let run () =
    List.iter
      (fun (e : E.t) ->
        let default =
          match e.kind with
          | E.Timed { default_s; _ } -> Printf.sprintf "duration %gs" default_s
          | E.Sized n -> Printf.sprintf "population %d" n
        in
        Printf.printf "%-6s %-18s %-13s %-7s %s\n" e.id
          ("[" ^ default ^ "]")
          (String.concat "|" e.backends)
          (if e.supports_faults then "faults" else "-")
          e.title)
      E.all
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List every experiment with its default parameters, supported backends, \
          fault-plan support (--faults), and description")
    Term.(const run $ const ())

let sweep_cmd =
  let ids_arg =
    let doc = "Experiments to sweep (default: all)." in
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let seeds_arg =
    let doc = "Comma-separated seeds axis." in
    Arg.(value & opt (nonempty_list int) [ 42 ] & info [ "seeds" ] ~docv:"SEEDS" ~doc)
  in
  let durations_arg =
    let doc =
      "Comma-separated durations axis (seconds). Applies to timed experiments; sized ones \
       (fig2, a2, p1) keep their population and run once per seed."
    in
    Arg.(value & opt (list positive_float) [] & info [ "durations" ] ~docv:"SECONDS" ~doc)
  in
  let populations_arg =
    let doc =
      "Comma-separated population-size axis. Applies to sized experiments (fig2, a2, p1); \
       timed ones ignore it and run once per (seed, duration)."
    in
    Arg.(value & opt (list positive_int) [] & info [ "populations" ] ~docv:"N" ~doc)
  in
  let backends_arg =
    let doc =
      "Comma-separated backend axis (packet, fluid, hybrid). Points pairing an experiment \
       with a backend it does not support are skipped; single-backend experiments run \
       once regardless."
    in
    Arg.(value & opt (list string) [] & info [ "backends" ] ~docv:"BACKENDS" ~doc)
  in
  let run ids seeds durations populations backends jobs no_cache report obs faults =
    let ids = match ids with [] -> List.map (fun (e : E.t) -> e.id) E.all | _ :: _ -> ids in
    let experiments =
      List.map
        (fun id ->
          match E.find id with
          | Some e -> e
          | None ->
              Printf.eprintf "ccsim sweep: unknown experiment %S\n" id;
              exit 2)
        ids
    in
    List.iter
      (fun e -> List.iter (check_duration ~cmd:"sweep" ~option:"--durations" e) durations)
      experiments;
    let axes =
      [ R.Sweep.axis "exp" ids; R.Sweep.ints "seed" seeds ]
      @ (match durations with [] -> [] | _ :: _ -> [ R.Sweep.floats "duration" durations ])
      @ (match populations with [] -> [] | _ :: _ -> [ R.Sweep.ints "n" populations ])
      @ match backends with [] -> [] | _ :: _ -> [ R.Sweep.axis "backend" backends ]
    in
    (* Each experiment reads only the axes that apply to it (duration
       for timed, population for sized, backend for multi-backend);
       dedupe by digest so the irrelevant axes do not multiply runs. *)
    let seen = Hashtbl.create 64 in
    let pairs =
      List.filter_map
        (fun point ->
          let id = Option.get (R.Sweep.get point "exp") in
          let e = List.find (fun (e : E.t) -> String.equal e.id id) experiments in
          let seed = int_of_string (Option.get (R.Sweep.get point "seed")) in
          let duration = Option.map float_of_string (R.Sweep.get point "duration") in
          let n = Option.map int_of_string (R.Sweep.get point "n") in
          (* A single-backend experiment runs once whatever the backend
             axis says; a multi-backend one skips the backends it lacks. *)
          let backend =
            if List.length e.backends > 1 then R.Sweep.get point "backend" else None
          in
          match backend with
          | Some b when not (List.mem b e.backends) -> None
          | backend ->
              let ((job : R.Job.t), _) as pair =
                job_of ?backend ?duration ?n ?faults ~name:params_name ~seed ~obs e
              in
              if Hashtbl.mem seen job.digest then None
              else begin
                Hashtbl.add seen job.digest ();
                Some pair
              end)
        (R.Sweep.points axes)
    in
    Printf.eprintf "sweep: %d job(s) on %d worker(s)\n%!" (List.length pairs) jobs;
    let print_block _ (r : R.Job.result) =
      Printf.printf "== %s\n" r.name;
      print_string r.output;
      print_newline ()
    in
    exit
      (run_jobs ~jobs ~no_cache ~report ~default_report:"last_sweep.json" ~telemetry:true
         ~print_block ~obs pairs)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Cross-product sweep over experiments x seeds x durations on a domain pool")
    Term.(
      const run $ ids_arg $ seeds_arg $ durations_arg $ populations_arg $ backends_arg
      $ jobs_arg $ no_cache_arg $ report_arg $ obs_cfg_term $ faults_term)

(* --- engine micro-benchmark (`ccsim perf`) --------------------------------- *)

(* A fixed matrix of engine-stressing scenarios, one per execution
   regime: pure packet dumbbell (e4), a heavier packet ablation slice
   (a4), the pure-fluid ODE stepper, the hybrid coupling, and Nimbus
   probes with their spectral estimation epochs (fig3). Each row
   runs in-process under a fresh profile + metrics scope and lands in
   BENCH_engine.json. There is one matrix: CI runs it, gates its shape
   and exact counts, and trends it against the checked-in baseline. *)
type perf_row = {
  row_name : string;
  row_exp : string;
  row_backend : string option;
  row_duration : float option;
  row_n : int option;
}

let perf_matrix =
  [
    (* Durations must clear each scenario's warmup (e4: 5s, a4: 15s,
       fig3: 10s). *)
    { row_name = "packet-dumbbell"; row_exp = "e4"; row_backend = None;
      row_duration = Some 15.0; row_n = None };
    { row_name = "packet-sweep-slice"; row_exp = "a4"; row_backend = None;
      row_duration = Some 24.0; row_n = None };
    { row_name = "fluid-population"; row_exp = "p1"; row_backend = Some "fluid";
      row_duration = None; row_n = Some 10_000 };
    { row_name = "hybrid-population"; row_exp = "p1"; row_backend = Some "hybrid";
      row_duration = None; row_n = Some 300 };
    { row_name = "nimbus-probe"; row_exp = "fig3"; row_backend = None;
      row_duration = Some 20.0; row_n = None };
  ]

let perf_run_row ~seed row =
  let e =
    match E.find row.row_exp with
    | Some e -> e
    | None -> failwith ("ccsim perf: unknown experiment " ^ row.row_exp)
  in
  let metrics = Obs.Metrics.create () in
  let profile = Obs.Profile.create () in
  let scope = Obs.Scope.v ~metrics ~profile () in
  let t0 = R.Telemetry.now_s () in
  let (_ : string) =
    Obs.Scope.with_scope scope (fun () ->
        e.render ?backend:row.row_backend ?duration:row.row_duration ?n:row.row_n ~seed ())
  in
  let wall_s = R.Telemetry.now_s () -. t0 in
  let heap_p99 =
    match Obs.Metrics.find_histogram metrics "engine_heap_depth" with
    | Some h -> Obs.Metrics.quantile h 0.99
    | None -> 0.0
  in
  (profile, wall_s, heap_p99)

let perf_row_json row (p, wall_s, heap_p99) =
  let fnum v = Printf.sprintf "%.6f" v in
  let delivered = Obs.Profile.packets_delivered p in
  let idle, reduced, full = Obs.Profile.fluid_link_steps p in
  let pkts_per_wall_s =
    if wall_s > 0.0 then float_of_int delivered /. wall_s else 0.0
  in
  Printf.sprintf
    "    {\"name\": \"%s\", \"experiment\": \"%s\", \"backend\": \"%s\", \"duration_s\": %s, \
     \"n\": %s, \"wall_s\": %s, \"sim_s\": %s, \"events_executed\": %d, \
     \"events_scheduled\": %d, \"events_cancelled\": %d, \"events_per_sec\": %.0f, \
     \"sim_speedup\": %.2f, \"pkts_enqueued\": %d, \"pkts_dequeued\": %d, \
     \"pkts_delivered\": %d, \"pkts_dropped\": %d, \"pkts_per_wall_s\": %.0f, \
     \"minor_words_per_event\": %.1f, \"minor_words_per_packet\": %.1f, \
     \"heap_depth_p99\": %.1f, \"max_heap_depth\": %d, \
     \"fluid_link_steps\": {\"idle\": %d, \"reduced\": %d, \"full\": %d}}"
    row.row_name row.row_exp
    (match row.row_backend with Some b -> b | None -> "packet")
    (match row.row_duration with Some d -> fnum d | None -> "null")
    (match row.row_n with Some n -> string_of_int n | None -> "null")
    (fnum wall_s) (fnum (Obs.Profile.sim_s p)) (Obs.Profile.events_executed p)
    (Obs.Profile.events_scheduled p) (Obs.Profile.events_cancelled p)
    (Obs.Profile.events_per_sec p) (Obs.Profile.sim_speedup p)
    (Obs.Profile.packets_enqueued p) (Obs.Profile.packets_dequeued p) delivered
    (Obs.Profile.packets_dropped p) pkts_per_wall_s
    (Obs.Profile.minor_words_per_event p) (Obs.Profile.minor_words_per_packet p)
    heap_p99 (Obs.Profile.max_heap_depth p) idle reduced full

let perf_cmd =
  let out_arg =
    let doc = "Write the engine benchmark report (schema ccsim-engine/3) to $(docv)." in
    Arg.(value & opt out_file "BENCH_engine.json" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let iters_arg =
    let doc =
      "Run each matrix row $(docv) times and report the median iteration (by wall time). \
       Wall-clock metrics (events/s, pkts/wall-s) on a shared host are noisy; the median \
       row is what baseline comparisons should trend."
    in
    Arg.(value & opt positive_int 1 & info [ "iters" ] ~docv:"N" ~doc)
  in
  let run out seed iters =
    let results =
      List.map
        (fun row ->
          let runs = List.init iters (fun _ -> perf_run_row ~seed row) in
          (* Median by wall time: deterministic work per iteration, so
             wall_s is the only axis the scheduler can perturb. *)
          let sorted =
            List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) runs
          in
          let ((p, wall_s, _) as res) = List.nth sorted ((iters - 1) / 2) in
          Printf.printf "%-20s %8.2fs wall  %9.0f events/s  %9.0f pkts/s  %7.1fx sim%s\n%!"
            row.row_name wall_s
            (Obs.Profile.events_per_sec p)
            (if wall_s > 0.0 then
               float_of_int (Obs.Profile.packets_delivered p) /. wall_s
             else 0.0)
            (Obs.Profile.sim_speedup p)
            (if iters > 1 then Printf.sprintf "  (median of %d)" iters else "");
          (row, res))
        perf_matrix
    in
    let buf = Buffer.create 4096 in
    Printf.bprintf buf
      "{\n  \"schema\": \"ccsim-engine/3\",\n  \"seed\": %d,\n  \
       \"iters\": %d,\n  \
       \"host\": {\"date\": \"%s\", \"ocaml\": \"%s\", \"word_size\": %d, \"cores\": %d},\n  \
       \"rows\": [\n"
      seed iters (R.Telemetry.date_utc ()) Sys.ocaml_version Sys.word_size
      (R.Telemetry.host_cores ());
    List.iteri
      (fun i (row, res) ->
        Buffer.add_string buf (perf_row_json row res);
        Buffer.add_string buf (if i = List.length results - 1 then "\n" else ",\n"))
      results;
    Buffer.add_string buf "  ]\n}\n";
    write_file out (Buffer.contents buf);
    Printf.printf "wrote %s\n" out;
    exit 0
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Benchmark the simulation engine itself: a fixed micro-scenario matrix (packet, \
          fluid, hybrid) run under the profiler, reporting events/s, simulated packets per \
          wall-second, allocation per event/packet and heap-depth quantiles to \
          BENCH_engine.json")
    Term.(const run $ out_arg $ seed_arg $ iters_arg)

(* `analyze` and `explain` read a --series recording over the same
   window and threshold. An unreadable or malformed file is a usage
   error (exit 2) with a message, never an uncaught exception. *)
let series_cmd name ~doc extra render =
  let file_arg =
    let doc = "NDJSON series file produced by a run with --series." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SERIES_FILE" ~doc)
  in
  let warmup_arg =
    let doc =
      "Drop samples before this time (seconds) from the analysis (use the scenario's \
       warmup; fig3 uses 10)."
    in
    Arg.(value & opt finite_float 0.0 & info [ "warmup" ] ~docv:"SECONDS" ~doc)
  in
  let until_arg =
    let doc = "Drop samples after this time (seconds) from the analysis; must exceed --warmup." in
    Arg.(value & opt (some finite_float) None & info [ "until" ] ~docv:"SECONDS" ~doc)
  in
  let threshold_arg =
    let doc = "Elasticity p90 classification threshold (fig3's rule uses 0.5)." in
    Arg.(value & opt finite_float 0.5 & info [ "threshold" ] ~docv:"X" ~doc)
  in
  let run file warmup until threshold extra =
    (match until with
    | Some u when u <= warmup ->
        Printf.eprintf "ccsim %s: --until %g does not exceed --warmup %g\n" name u warmup;
        exit 2
    | Some _ | None -> ());
    match Ccsim_measure.Offline.load file with
    | exception Sys_error msg ->
        Printf.eprintf "ccsim %s: %s\n" name msg;
        exit 2
    | exception Ccsim_measure.Offline.Parse_error msg ->
        Printf.eprintf "ccsim %s: %s: %s\n" name file msg;
        exit 2
    | series ->
        print_string (render ~warmup ~until ~threshold extra series);
        exit 0
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ file_arg $ warmup_arg $ until_arg $ threshold_arg $ extra)

let analyze_cmd =
  let shift_threshold_arg =
    let doc =
      "Minimum largest-shift / mean ratio for a change-point verdict of \
       contention-consistent (fig2's rule uses 0.2)."
    in
    Arg.(value & opt finite_float 0.2 & info [ "shift-threshold" ] ~docv:"X" ~doc)
  in
  series_cmd "analyze"
    ~doc:
      "Re-run the change-point and elasticity detectors offline over a --series \
       recording; on a same-seed recording this reproduces the in-sim verdicts"
    shift_threshold_arg
    (fun ~warmup ~until ~threshold shift_threshold series ->
      Ccsim_measure.Offline.render ~warmup ?hi:until ~threshold ~shift_threshold series)

let explain_cmd =
  series_cmd "explain"
    ~doc:
      "Diagnose each flow's contention from a --series recording: dominant send limit \
       (app/rwnd/cwnd/pacing/recovery), queueing-delay share of RTT, bottleneck \
       occupancy and drop shares, contended time, and the scenario's cross-traffic \
       elasticity verdict (same rule as the online Nimbus detector)"
    (Term.const ())
    (fun ~warmup ~until ~threshold () series ->
      Ccsim_measure.Offline.render_explain ~warmup ?hi:until ~threshold series)

let main =
  let doc = "reproduce 'How I Learned to Stop Worrying About CCA Contention' (HotNets '23)" in
  Cmd.group
    (Cmd.info "ccsim" ~version:"1.0.0" ~doc)
    (List.map exp_cmd E.all
    @ [ all_cmd; sweep_cmd; analyze_cmd; explain_cmd; perf_cmd; list_cmd ])

(* Unified exit codes (README): 0 ok, 1 verdict/job failure, 2 usage
   error, 124 unsupported backend. Cmdliner's defaults remap
   inconsistently (unknown options honour ~term_err while conv
   failures hard-code 124), so map the eval outcome ourselves: every
   command-line problem — unknown command, bad flag, malformed value —
   is a usage error. *)
let () =
  match Cmd.eval_value main with
  | Ok (`Ok ()) | Ok `Version | Ok `Help -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
