module U = Ccsim_util

(* Offline analysis over exported timeline files: parse `--series`
   NDJSON back into series and rerun the lib/measure detectors over
   them. Floats are exported with round-trip precision, so the offline
   verdicts reproduce the in-simulation ones bit-for-bit. *)

type series = {
  job : string option;
  name : string;
  labels : (string * string) list;
  times : float array;
  values : float array;
}

(* --- Ccsim_obs.Json's reader under the names ccbench reads reports by --- *)

exception Parse_error = Ccsim_obs.Json.Parse_error

type json = Ccsim_obs.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Obj of (string * json) list
  | Arr of json list

let json_of_string = Ccsim_obs.Json.parse

(* --- NDJSON ingestion --------------------------------------------------- *)

type builder = {
  b_job : string option;
  b_name : string;
  b_labels : (string * string) list;
  mutable b_times : float list;  (* newest first *)
  mutable b_values : float list;
  mutable b_len : int;
}

let of_string content =
  let table : (string, builder) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let line_no = ref 0 in
  String.split_on_char '\n' content
  |> List.iter (fun line ->
         incr line_no;
         if not (String.equal (String.trim line) "") then begin
           let fields =
             match json_of_string line with
             | Obj fields -> fields
             | _ -> raise (Parse_error (Printf.sprintf "line %d: not a JSON object" !line_no))
             | exception Parse_error msg ->
                 raise (Parse_error (Printf.sprintf "line %d: %s" !line_no msg))
           in
           let str_field k =
             match List.assoc_opt k fields with Some (Str s) -> Some s | _ -> None
           in
           let num_field k =
             match List.assoc_opt k fields with Some (Num v) -> Some v | _ -> None
           in
           match (str_field "series", num_field "t", num_field "v") with
           | None, _, _ | _, None, _ ->
               raise
                 (Parse_error
                    (Printf.sprintf "line %d: missing \"series\" or \"t\" field" !line_no))
           | Some _, Some _, None -> ()  (* null/non-numeric value: skip the point *)
           | Some name, Some t, Some v ->
               let job = str_field "job" in
               let labels =
                 match List.assoc_opt "labels" fields with
                 | Some (Obj pairs) ->
                     List.filter_map
                       (fun (k, v) -> match v with Str s -> Some (k, s) | _ -> None)
                       pairs
                 | _ -> []
               in
               let key =
                 String.concat "\x00"
                   ((match job with Some j -> j | None -> "")
                   :: name
                   :: List.concat_map (fun (k, v) -> [ k; v ]) labels)
               in
               let b =
                 match Hashtbl.find_opt table key with
                 | Some b -> b
                 | None ->
                     let b =
                       {
                         b_job = job;
                         b_name = name;
                         b_labels = labels;
                         b_times = [];
                         b_values = [];
                         b_len = 0;
                       }
                     in
                     Hashtbl.add table key b;
                     order := b :: !order;
                     b
               in
               b.b_times <- t :: b.b_times;
               b.b_values <- v :: b.b_values;
               b.b_len <- b.b_len + 1
         end);
  List.rev_map
    (fun b ->
      let times = Array.make b.b_len 0.0 and values = Array.make b.b_len 0.0 in
      List.iteri (fun i t -> times.(b.b_len - 1 - i) <- t) b.b_times;
      List.iteri (fun i v -> values.(b.b_len - 1 - i) <- v) b.b_values;
      { job = b.b_job; name = b.b_name; labels = b.b_labels; times; values })
    !order

let load path =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string content

let filter t ~name = List.filter (fun s -> String.equal s.name name) t

let flow_id s =
  match
    ( List.assoc_opt "flow" s.labels,
      List.assoc_opt "scenario" s.labels,
      List.assoc_opt "sim" s.labels )
  with
  | Some f, _, _ -> f
  | None, Some sc, _ -> sc
  | None, None, Some sim -> "sim " ^ sim
  | None, None, None -> s.name

(* --- change-point analysis (fig2's detector, offline) ------------------- *)

type changepoint_row = {
  cp_series : series;
  change_points : int list;
  largest_shift : float;
  mean : float;
  contention_consistent : bool;
}

(* Mirrors [Mlab_analysis.analyze_record]'s Candidate branch exactly:
   PELT over the per-interval throughput, contention-consistent when the
   largest level shift is at least [shift_threshold] of the mean. *)
let changepoint_of ?(shift_threshold = 0.2) s =
  let changes = Changepoint.pelt s.values in
  let shift = Changepoint.largest_shift s.values changes in
  let mean = if Array.length s.values = 0 then 0.0 else U.Stats.mean s.values in
  {
    cp_series = s;
    change_points = changes;
    largest_shift = shift;
    mean;
    contention_consistent = (match changes with [] -> false | _ :: _ -> true) && shift /. Float.max 1e-9 mean >= shift_threshold;
  }

(* --- elasticity classification (fig3's rule, offline) ------------------- *)

type elasticity_row = {
  el_series : series;
  samples : int;
  mean_elasticity : float;
  p90_elasticity : float;
  classified_elastic : bool;
}

(* Mirrors fig3: p90 of the steady-state elasticity samples (inclusive
   [warmup, hi] window, matching [Timeseries.between]) against the
   elastic threshold. *)
let elasticity_of ?(warmup = 0.0) ?(hi = infinity) ?(threshold = 0.5) s =
  let values =
    Array.to_list (Array.mapi (fun i t -> (t, s.values.(i))) s.times)
    |> List.filter (fun (t, _) -> t >= warmup && t <= hi)
    |> List.map snd |> Array.of_list
  in
  let samples = Array.length values in
  let mean_e = if samples = 0 then 0.0 else U.Stats.mean values in
  let p90 = if samples = 0 then 0.0 else U.Stats.percentile values 90.0 in
  {
    el_series = s;
    samples;
    mean_elasticity = mean_e;
    p90_elasticity = p90;
    classified_elastic = p90 > threshold;
  }

(* --- report ------------------------------------------------------------- *)

let ndt_series_name = "ndt_throughput_mbps"
let elasticity_series_name = "nimbus_elasticity"

(* --- flow-level contention diagnosis (`ccsim explain`) ------------------ *)

type explain_row = {
  ex_job : string option;
  ex_scenario : string;
  ex_flow : string;
  ex_goodput_bps : float;
  ex_limits : (string * float) list;
  ex_dominant : string;
  ex_dominant_s : float;
  ex_queue_delay_share : float;
  ex_occupancy_share : float;
  ex_drop_share : float;
  ex_contended_s : float;
  ex_verdict : string option;
}

let limit_order = [ "app"; "rwnd"; "cwnd"; "pacing"; "recovery" ]

(* Last sample at or before [hi]; attribution series are cumulative, so
   this is "the counter's value at the end of the analysis window". *)
let last_value_in ~hi s =
  let v = ref None in
  Array.iteri (fun i t -> if t <= hi then v := Some s.values.(i)) s.times;
  !v

let mean_in ~lo ~hi s =
  let sum = ref 0.0 and n = ref 0 in
  Array.iteri
    (fun i t ->
      if t >= lo && t <= hi then begin
        sum := !sum +. s.values.(i);
        incr n
      end)
    s.times;
  if !n = 0 then None else Some (!sum /. float_of_int !n)

type flow_acc = {
  fa_flow : string;
  mutable fa_goodput : series option;
  mutable fa_srtt : series option;
  mutable fa_min_rtt : series option;
  mutable fa_limits : (string * series) list;  (* newest first *)
  mutable fa_busy : series option;
  mutable fa_drops : series option;
}

type group_acc = {
  ga_job : string option;
  ga_scenario : string;
  mutable ga_flows : flow_acc list;  (* newest first *)
  mutable ga_elasticity : series option;
}

let explain ?(warmup = 0.0) ?(hi = infinity) ?(threshold = 0.5) t =
  (* Group attribution series per (job, scenario), then per flow label.
     The scenario's Nimbus elasticity verdict describes the cross
     traffic the probe contends with, so it attaches to every flow row
     of that scenario. *)
  let groups : (string, group_acc) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let group_of job scenario =
    let key = (match job with Some j -> j | None -> "") ^ "\x00" ^ scenario in
    match Hashtbl.find_opt groups key with
    | Some g -> g
    | None ->
        let g =
          { ga_job = job; ga_scenario = scenario; ga_flows = []; ga_elasticity = None }
        in
        Hashtbl.add groups key g;
        order := g :: !order;
        g
  in
  let flow_of g name =
    match List.find_opt (fun f -> String.equal f.fa_flow name) g.ga_flows with
    | Some f -> f
    | None ->
        let f =
          {
            fa_flow = name;
            fa_goodput = None;
            fa_srtt = None;
            fa_min_rtt = None;
            fa_limits = [];
            fa_busy = None;
            fa_drops = None;
          }
        in
        g.ga_flows <- f :: g.ga_flows;
        f
  in
  List.iter
    (fun s ->
      let scenario =
        match List.assoc_opt "scenario" s.labels with Some sc -> sc | None -> ""
      in
      if String.equal s.name elasticity_series_name then begin
        let g = group_of s.job scenario in
        match g.ga_elasticity with
        | Some _ -> ()
        | None -> g.ga_elasticity <- Some s
      end
      else
        match List.assoc_opt "flow" s.labels with
        | None -> ()
        | Some flow -> (
            let f () = flow_of (group_of s.job scenario) flow in
            match s.name with
            | "flow_goodput_bps" -> (f ()).fa_goodput <- Some s
            | "flow_srtt_s" -> (f ()).fa_srtt <- Some s
            | "flow_min_rtt_s" -> (f ()).fa_min_rtt <- Some s
            | "flow_bneck_busy_s" -> (f ()).fa_busy <- Some s
            | "flow_bneck_drops" -> (f ()).fa_drops <- Some s
            | "flow_limited_s" -> (
                match List.assoc_opt "limit" s.labels with
                | Some limit ->
                    let f = f () in
                    f.fa_limits <- (limit, s) :: f.fa_limits
                | None -> ())
            | _ -> ()))
    t;
  let final s = match last_value_in ~hi s with Some v -> v | None -> 0.0 in
  let final_opt o = match o with Some s -> final s | None -> 0.0 in
  List.rev !order
  |> List.concat_map (fun g ->
         let verdict =
           match g.ga_elasticity with
           | None -> None
           | Some s ->
               let r = elasticity_of ~warmup ~hi ~threshold s in
               Some (if r.classified_elastic then "elastic" else "inelastic")
         in
         let flows = List.rev g.ga_flows in
         let busy_total = List.fold_left (fun acc f -> acc +. final_opt f.fa_busy) 0.0 flows in
         let drops_total =
           List.fold_left (fun acc f -> acc +. final_opt f.fa_drops) 0.0 flows
         in
         List.map
           (fun f ->
             let limits =
               List.map
                 (fun limit ->
                   ( limit,
                     match List.assoc_opt limit f.fa_limits with
                     | Some s -> final s
                     | None -> 0.0 ))
                 limit_order
             in
             let has_limits = match f.fa_limits with [] -> false | _ -> true in
             let dominant, dominant_s =
               if not has_limits then ("-", 0.0)
               else
                 List.fold_left
                   (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
                   ("-", neg_infinity) limits
             in
             (* Contended time: connection age minus the self-inflicted
                limits (app/rwnd) — the span during which the flow had
                unmet demand and the network set its rate. *)
             let elapsed =
               List.fold_left
                 (fun acc (_, s) ->
                   Array.fold_left
                     (fun a tm -> if tm <= hi then Float.max a tm else a)
                     acc s.times)
                 0.0 f.fa_limits
             in
             let contended =
               if has_limits then
                 Float.max 0.0
                   (elapsed -. List.assoc "app" limits -. List.assoc "rwnd" limits)
               else 0.0
             in
             let goodput =
               match f.fa_goodput with
               | Some s -> (
                   match mean_in ~lo:warmup ~hi s with Some m -> m | None -> 0.0)
               | None -> 0.0
             in
             let qdelay =
               match (f.fa_srtt, f.fa_min_rtt) with
               | Some srtt_s, Some min_s -> (
                   match (mean_in ~lo:warmup ~hi srtt_s, last_value_in ~hi min_s) with
                   | Some srtt, Some base when srtt > 0.0 ->
                       Float.max 0.0 (Float.min 1.0 ((srtt -. base) /. srtt))
                   | _ -> 0.0)
               | _ -> 0.0
             in
             let share v total = if total > 0.0 then v /. total else 0.0 in
             {
               ex_job = g.ga_job;
               ex_scenario = g.ga_scenario;
               ex_flow = f.fa_flow;
               ex_goodput_bps = goodput;
               ex_limits = limits;
               ex_dominant = dominant;
               ex_dominant_s = (if has_limits then dominant_s else 0.0);
               ex_queue_delay_share = qdelay;
               ex_occupancy_share = share (final_opt f.fa_busy) busy_total;
               ex_drop_share = share (final_opt f.fa_drops) drops_total;
               ex_contended_s = contended;
               ex_verdict = verdict;
             })
           flows)

let render_explain ?warmup ?hi ?threshold t =
  let rows = explain ?warmup ?hi ?threshold t in
  let buf = Buffer.create 1024 in
  (match rows with
  | [] ->
      Buffer.add_string buf
        "no per-flow attribution series found (export with --series from a run \
         recording a timeline)\n"
  | rows ->
      Printf.bprintf buf "flow-level contention diagnosis (%d flows):\n"
        (List.length rows);
      let table =
        U.Table.create
          ~columns:
            [
              ("scenario", U.Table.Left);
              ("flow", U.Table.Left);
              ("goodput Mbit/s", U.Table.Right);
              ("dominant limit", U.Table.Left);
              ("limited s", U.Table.Right);
              ("qdelay share", U.Table.Right);
              ("bneck share", U.Table.Right);
              ("drop share", U.Table.Right);
              ("contended s", U.Table.Right);
              ("cross-traffic", U.Table.Left);
            ]
      in
      List.iter
        (fun r ->
          let scenario =
            if not (String.equal r.ex_scenario "") then r.ex_scenario
            else match r.ex_job with Some j -> j | None -> "-"
          in
          U.Table.add_row table
            [
              scenario;
              r.ex_flow;
              U.Table.cell_f (r.ex_goodput_bps /. 1e6);
              r.ex_dominant;
              U.Table.cell_f r.ex_dominant_s;
              U.Table.cell_pct r.ex_queue_delay_share;
              U.Table.cell_pct r.ex_occupancy_share;
              U.Table.cell_pct r.ex_drop_share;
              U.Table.cell_f r.ex_contended_s;
              (match r.ex_verdict with Some v -> v | None -> "-");
            ])
        rows;
      Buffer.add_string buf (U.Table.render table));
  Buffer.contents buf

let render ?(warmup = 0.0) ?(hi = infinity) ?(threshold = 0.5) ?shift_threshold t =
  let buf = Buffer.create 1024 in
  let points = List.fold_left (fun acc s -> acc + Array.length s.times) 0 t in
  Printf.bprintf buf "offline analysis: %d series, %d points\n" (List.length t) points;
  (match filter t ~name:elasticity_series_name with
  | [] -> ()
  | rows ->
      Buffer.add_string buf "\nelasticity (nimbus_elasticity series, fig3 rule):\n";
      let table =
        U.Table.create
          ~columns:
            [
              ("series", U.Table.Left);
              ("samples", U.Table.Right);
              ("mean", U.Table.Right);
              ("p90", U.Table.Right);
              ("classified", U.Table.Left);
            ]
      in
      List.iter
        (fun s ->
          let r = elasticity_of ~warmup ~hi ~threshold s in
          U.Table.add_row table
            [
              flow_id s;
              string_of_int r.samples;
              U.Table.cell_f r.mean_elasticity;
              U.Table.cell_f r.p90_elasticity;
              (if r.classified_elastic then "elastic" else "inelastic");
            ])
        rows;
      Buffer.add_string buf (U.Table.render table));
  (match filter t ~name:ndt_series_name with
  | [] -> ()
  | rows ->
      let verdicts = List.map (changepoint_of ?shift_threshold) rows in
      let consistent =
        List.length (List.filter (fun v -> v.contention_consistent) verdicts)
      in
      Printf.bprintf buf
        "\nchange points (%s series, fig2 rule): %d candidate flows, %d contention-consistent\n"
        ndt_series_name (List.length verdicts) consistent;
      let table =
        U.Table.create
          ~columns:
            [
              ("flow", U.Table.Left);
              ("points", U.Table.Right);
              ("changes", U.Table.Right);
              ("shift/mean", U.Table.Right);
              ("verdict", U.Table.Left);
            ]
      in
      List.iter
        (fun v ->
          U.Table.add_row table
            [
              flow_id v.cp_series;
              string_of_int (Array.length v.cp_series.values);
              string_of_int (List.length v.change_points);
              U.Table.cell_f (v.largest_shift /. Float.max 1e-9 v.mean);
              (if v.contention_consistent then "contention-consistent" else "stable");
            ])
        verdicts;
      Buffer.add_string buf (U.Table.render table));
  let other =
    List.filter (fun s -> not (String.equal s.name ndt_series_name) && not (String.equal s.name elasticity_series_name)) t
  in
  (match other with
  | [] -> ()
  | rows ->
      Printf.bprintf buf "\nother series:\n";
      let table =
        U.Table.create
          ~columns:
            [
              ("series", U.Table.Left);
              ("points", U.Table.Right);
              ("mean", U.Table.Right);
              ("min", U.Table.Right);
              ("max", U.Table.Right);
            ]
      in
      List.iter
        (fun s ->
          let n = Array.length s.values in
          let mean = if n = 0 then 0.0 else U.Stats.mean s.values in
          let mn = Array.fold_left Float.min infinity s.values in
          let mx = Array.fold_left Float.max neg_infinity s.values in
          let label_cell =
            String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) s.labels)
          in
          let id = if String.equal label_cell "" then s.name else s.name ^ "{" ^ label_cell ^ "}" in
          U.Table.add_row table
            [
              id;
              string_of_int n;
              U.Table.cell_f mean;
              U.Table.cell_f (if n = 0 then 0.0 else mn);
              U.Table.cell_f (if n = 0 then 0.0 else mx);
            ])
        rows;
      Buffer.add_string buf (U.Table.render table));
  Buffer.contents buf
