(* The ccsim CLI's exit-code contract (README "Fault injection &
   chaos"): 0 ok, 1 job/verdict failure, 2 usage error, 124 unsupported
   backend. Regression-tested against the real binary — cmdliner 1.3.0
   hard-codes 124 for option-converter failures, so the CLI maps codes
   itself and this suite pins the mapping. *)

(* The binary sits next to this test in the build tree
   (_build/default/{test,bin}); resolving via the running executable
   works under both `dune runtest` and `dune exec` from the root. *)
let in_build rel = Filename.concat (Filename.dirname Sys.executable_name) rel
let binary = in_build "../bin/ccsim.exe"

let ccsim args = Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote binary) args)

let check_code name args expected =
  Alcotest.(check int) (Printf.sprintf "%s: `ccsim %s`" name args) expected (ccsim args)

(* An out-of-domain number must be refused while parsing, naming the
   option. Under a deadline, so an input that hangs the run fails the
   test instead of hanging the suite (timeout exits 124). *)
let check_rejected args () =
  Alcotest.(check int)
    (Printf.sprintf "`ccsim %s` exits 2 within 30 s" args)
    2
    (Sys.command
       (Printf.sprintf "timeout 30 %s %s >/dev/null 2>&1" (Filename.quote binary) args))

let test_ok () =
  check_code "listing runs clean" "list" 0;
  check_code "version runs clean" "--version" 0

let test_usage_errors () =
  check_code "unknown command" "no-such-command" 2;
  check_code "unknown flag" "e4 --bogus-flag" 2;
  check_code "malformed float" "e4 --duration abc" 2;
  check_code "malformed fault plan" "e4 --faults bogus" 2;
  check_code "fault plan with bad field" "e4 --faults \"outage at=1\"" 2;
  check_code "unknown sweep experiment" "sweep nope --seeds 1,2" 2

let test_unsupported_backend () =
  check_code "packet-only experiment on fluid backend" "e1 --backend fluid" 124

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let with_temp_file contents f =
  let path = Filename.temp_file "ccsim_series" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      f path)

(* A duration at or below the experiment's warmup leaves nothing to
   measure. It used to fail every job (exit 1), or for a1 exit 0 with a
   table built from no samples; it is refused before any job starts,
   exit 2, naming the option and the warmup. *)
let test_duration_within_warmup () =
  List.iter
    (fun (args, option) ->
      let err = Filename.temp_file "ccsim_cli" ".err" in
      Fun.protect
        ~finally:(fun () -> Sys.remove err)
        (fun () ->
          let code =
            Sys.command
              (Printf.sprintf "timeout 30 %s %s >/dev/null 2>%s" (Filename.quote binary) args
                 (Filename.quote err))
          in
          Alcotest.(check int) (Printf.sprintf "`ccsim %s` exits 2" args) 2 code;
          let msg = read_file err in
          Alcotest.(check bool)
            (Printf.sprintf "`ccsim %s` names %s and the warmup: %S" args option msg)
            true
            (contains ~sub:option msg && contains ~sub:"warmup" msg)))
    [
      ("fig3 --duration 10", "--duration");
      ("fig1 --duration 2", "--duration");
      ("e6 --duration 15", "--duration");
      ("c1 --duration 8", "--duration");
      ("a1 --duration 5", "--duration");
      ("sweep e4 --seeds 1 --durations 3", "--durations");
    ]

let test_bad_series_files () =
  (* analyze and explain read a --series file; malformed input is a
     usage error with a message, not an uncaught exception (125). *)
  let line = "{\"series\":\"x\",\"labels\":{},\"t\":1.0,\"v\":2.0}\n" in
  List.iter
    (fun (what, contents) ->
      with_temp_file contents (fun path ->
          List.iter
            (fun cmd ->
              check_code (cmd ^ " on " ^ what) (cmd ^ " " ^ Filename.quote path) 2)
            [ "analyze"; "explain" ]))
    [
      ("a non-hex \\u escape", "{\"series\":\"x\\uZZZZ\",\"labels\":{},\"t\":1.0,\"v\":2.0}\n");
      ("a file cut off mid-line", line ^ String.sub line 0 20);
    ]

(* The exit code and stdout of shell command [cmd]. *)
let run_capturing cmd =
  let out = Filename.temp_file "ccsim_stdout" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code = Sys.command (Printf.sprintf "(%s) >%s" cmd (Filename.quote out)) in
      (code, read_file out))

(* stdout carries only result rows, so a sweep prints the same bytes
   whatever the worker count; its header line and telemetry table (wall
   times) go to stderr. *)
let test_sweep_stdout_parallelism_free () =
  let stdout_of jobs =
    let args = Printf.sprintf "sweep e4 --seeds 1,2 --durations 7 --no-cache -j %d" jobs in
    let code, out =
      run_capturing (Printf.sprintf "%s %s 2>/dev/null" (Filename.quote binary) args)
    in
    Alcotest.(check int) ("`ccsim " ^ args ^ "` succeeds") 0 code;
    out
  in
  let serial = stdout_of 1 in
  Alcotest.(check bool) "blocks printed" true (contains ~sub:"== e4 " serial);
  Alcotest.(check string) "-j 1 and -j 2 print identical stdout" serial (stdout_of 2)

(* Every [--flag] token in [text], in order of appearance. *)
let flags_in text =
  let n = String.length text in
  let flag_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' in
  let rec scan i acc =
    if i + 2 >= n then List.rev acc
    else if text.[i] = '-' && text.[i + 1] = '-' && text.[i + 2] >= 'a' && text.[i + 2] <= 'z'
    then begin
      let j = ref (i + 2) in
      while !j < n && flag_char text.[!j] do
        incr j
      done;
      scan !j (String.sub text i (!j - i) :: acc)
    end
    else scan (i + 1) acc
  in
  scan 0 []

(* README advertises only flags that exist: each one is in some ccsim
   command's help or in ccsim_lint's usage text. *)
let test_readme_flags_exist () =
  let help_flags cmd = flags_in (snd (run_capturing (cmd ^ " 2>&1"))) in
  let commands =
    [ "list"; "all"; "sweep"; "perf"; "analyze"; "explain" ]
    @ List.map (fun (e : Ccsim_core.Experiments.t) -> e.id) Ccsim_core.Experiments.all
  in
  let known =
    help_flags (Filename.quote (in_build "../tools/lint/ccsim_lint.exe") ^ " --help")
    @ List.concat_map
        (fun c -> help_flags (Printf.sprintf "%s %s --help=plain" (Filename.quote binary) c))
        commands
  in
  let readme = read_file (in_build "../README.md") in
  let missing = List.filter (fun f -> not (List.mem f known)) (flags_in readme) in
  Alcotest.(check (list string)) "README flags missing from every help text" []
    (List.sort_uniq String.compare missing)

let test_flight_rec_level () =
  (* --flight-rec-level raises the recorder's severity floor: a journal
     captured at `warn` must drop the debug/info event bulk (packet
     lifecycle, CCA decisions) a default capture keeps. *)
  let tmp = Filename.temp_file "ccsim_flight" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      check_code "flight journal at default level"
        (Printf.sprintf "e4 --duration 7 --flight-rec %s" (Filename.quote tmp))
        0;
      let full = read_file tmp in
      Alcotest.(check bool) "default keeps debug events" true
        (contains ~sub:"\"severity\":\"debug\"" full);
      check_code "flight journal at warn level"
        (Printf.sprintf "e4 --duration 7 --flight-rec %s --flight-rec-level warn"
           (Filename.quote tmp))
        0;
      let filtered = read_file tmp in
      Alcotest.(check bool) "warn floor drops debug" false
        (contains ~sub:"\"severity\":\"debug\"" filtered);
      Alcotest.(check bool) "warn floor drops info" false
        (contains ~sub:"\"severity\":\"info\"" filtered);
      Alcotest.(check bool) "filtered journal is smaller" true
        (String.length filtered < String.length full);
      check_code "bad level is a usage error" "e4 --flight-rec-level loud" 2)

(* An output file is written only after the jobs ran, so a path that
   cannot be written used to throw their results away with an uncaught
   Sys_error (exit 125). *)
let test_unwritable_outputs () =
  List.iter
    (fun args -> check_rejected args ())
    [
      "e4 --duration 6 --report /dev/null/x.json";
      "e4 --duration 6 --metrics /dev/null/x.ndjson";
      "e4 --duration 6 --flight-rec /dev/null/x.ndjson";
      "e4 --duration 6 --series /dev/null/x.ndjson";
      "e4 --duration 6 --chrome-trace /dev/null/x.json";
      "perf --out /dev/null/x.json";
    ]

(* A NaN window or threshold compares false against every sample: it
   used to exit 0 with every row "0 samples, inelastic". *)
let test_analyze_window_and_thresholds () =
  with_temp_file "{\"series\":\"x\",\"labels\":{},\"t\":1.0,\"v\":2.0}\n" (fun path ->
      let path = Filename.quote path in
      List.iter
        (fun args -> check_rejected (Printf.sprintf args path) ())
        [
          "analyze %s --warmup nan --until 20";
          "analyze %s --threshold nan";
          "analyze %s --shift-threshold nan";
          "explain %s --until inf";
          "analyze %s --warmup 10 --until 5";
        ])

let test_nonpositive_jobs () =
  check_rejected "e4 --duration 6 -j 0" ();
  check_rejected "sweep e4 --durations 6 --seeds 1 --jobs=-3" ()

(* A duration just past the warmup used to run: e4 at 5.001 s (a 1 ms
   window) exited 0 and printed "cubic got 0.00" beside "satisfied A
   100.0%". Every timed experiment now measures for at least a second;
   a shorter window exits 2 before any job runs, naming the warmup and
   the window. The shortest accepted duration still runs. *)
let test_window_below_minimum () =
  let err = Filename.temp_file "ccsim_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "timeout 30 %s e4 --duration 5.001 >/dev/null 2>%s" (Filename.quote binary)
             (Filename.quote err))
      in
      Alcotest.(check int) "`ccsim e4 --duration 5.001` exits 2" 2 code;
      let msg = read_file err in
      Alcotest.(check bool)
        (Printf.sprintf "names the option, the warmup and the window: %S" msg)
        true
        (contains ~sub:"--duration" msg && contains ~sub:"warmup" msg && contains ~sub:"window" msg));
  check_code "a 1 s window runs" "e4 --duration 6" 0

let suite =
  [
    Alcotest.test_case "exit 0: success paths" `Quick test_ok;
    Alcotest.test_case "exit 2: usage errors (incl. fault plans)" `Quick test_usage_errors;
    Alcotest.test_case "exit 2: duration at or below warmup" `Quick test_duration_within_warmup;
    Alcotest.test_case "exit 124: unsupported backend" `Quick test_unsupported_backend;
    Alcotest.test_case "exit 2: malformed series files" `Quick test_bad_series_files;
    Alcotest.test_case "exit 2: infinite --duration" `Quick (check_rejected "e4 --duration inf");
    Alcotest.test_case "exit 2: NaN --duration" `Quick (check_rejected "e4 --duration nan");
    Alcotest.test_case "exit 2: negative --duration" `Quick (check_rejected "e4 --duration=-1");
    Alcotest.test_case "exit 2: zero --flows" `Quick (check_rejected "p1 --flows 0");
    Alcotest.test_case "exit 2: NaN in --durations" `Quick
      (check_rejected "sweep e4 --durations nan --seeds 1");
    Alcotest.test_case "exit 2: zero --series-interval" `Quick
      (check_rejected "e4 --series series.ndjson --series-interval 0");
    Alcotest.test_case "sweep: stdout identical at -j 1 and -j 2" `Slow
      test_sweep_stdout_parallelism_free;
    Alcotest.test_case "README: every advertised flag exists" `Quick test_readme_flags_exist;
    Alcotest.test_case "flight recorder: severity floor flag" `Slow test_flight_rec_level;
    Alcotest.test_case "exit 2: flap holding times below 1 ms" `Quick
      (check_rejected
         "e4 --duration 10 --faults \"flap from=0 until=20 mean-up=1e-300 mean-down=1e-300\"");
    Alcotest.test_case "exit 2: series interval below 1 ms" `Quick
      (check_rejected "e4 --duration 10 --series-interval 1e-300 --series s.ndjson");
    Alcotest.test_case "exit 2: empty --seeds" `Quick
      (check_rejected "sweep e4 --durations 6 --seeds ''");
    Alcotest.test_case "exit 2: unwritable output paths" `Quick test_unwritable_outputs;
    Alcotest.test_case "exit 2: non-finite analyze window and thresholds" `Quick
      test_analyze_window_and_thresholds;
    Alcotest.test_case "exit 2: non-positive --jobs" `Quick test_nonpositive_jobs;
    Alcotest.test_case "exit 2: window below the minimum" `Quick test_window_below_minimum;
  ]
