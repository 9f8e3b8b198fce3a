(* Declarative fault plans: a list of scheduled / stochastic
   non-congestive impairment events, parsed from a compact textual
   schema (README "Fault injection & chaos"). The canonical rendering
   [to_string] feeds runner job digests, so two runs with the same
   (plan, seed) share a cache entry and different plans never collide. *)

type event =
  | Outage of { at_s : float; dur_s : float }
  | Capacity of { at_s : float; factor : float; dur_s : float option }
  | Ramp of { at_s : float; dur_s : float; factor : float }
  | Loss of { at_s : float; dur_s : float; p : float }
  | Burst_loss of {
      at_s : float;
      dur_s : float;
      p_enter : float;
      p_exit : float;
      loss_good : float;
      loss_bad : float;
    }
  | Corrupt of { at_s : float; dur_s : float; p : float }
  | Duplicate of { at_s : float; dur_s : float; p : float }
  | Reorder of { at_s : float; dur_s : float; p : float; extra_s : float }
  | Delay_spike of { at_s : float; dur_s : float; extra_s : float }
  | Qdisc_reset of { at_s : float }
  | Flap of { from_s : float; until_s : float; mean_up_s : float; mean_down_s : float }

type t = event list

let kind_of = function
  | Outage _ -> "outage"
  | Capacity _ -> "capacity"
  | Ramp _ -> "ramp"
  | Loss _ -> "loss"
  | Burst_loss _ -> "burst-loss"
  | Corrupt _ -> "corrupt"
  | Duplicate _ -> "duplicate"
  | Reorder _ -> "reorder"
  | Delay_spike _ -> "delay-spike"
  | Qdisc_reset _ -> "qdisc-reset"
  | Flap _ -> "flap"

let event_window = function
  | Outage { at_s; dur_s }
  | Ramp { at_s; dur_s; _ }
  | Loss { at_s; dur_s; _ }
  | Burst_loss { at_s; dur_s; _ }
  | Corrupt { at_s; dur_s; _ }
  | Duplicate { at_s; dur_s; _ }
  | Reorder { at_s; dur_s; _ }
  | Delay_spike { at_s; dur_s; _ } ->
      (at_s, at_s +. dur_s)
  | Capacity { at_s; dur_s = Some d; _ } -> (at_s, at_s +. d)
  | Capacity { at_s; dur_s = None; _ } -> (at_s, Float.infinity)
  | Qdisc_reset { at_s } -> (at_s, at_s)
  | Flap { from_s; until_s; _ } -> (from_s, until_s)

let windows t = List.map event_window t

(* The shortest of %.15g, %.16g and %.17g that reads back as [x], so
   [parse] inverts the rendering: short decimals print as %g prints
   them below 1e6, and %.17g always reads back. *)
let render_float x =
  let rec shortest digits =
    let s = Printf.sprintf "%.*g" digits x in
    if digits >= 17 || Float.equal (float_of_string s) x then s else shortest (digits + 1)
  in
  shortest 15

let fields_of = function
  | Outage { at_s; dur_s } -> [ ("at", at_s); ("dur", dur_s) ]
  | Capacity { at_s; factor; dur_s = None } -> [ ("at", at_s); ("factor", factor) ]
  | Capacity { at_s; factor; dur_s = Some d } -> [ ("at", at_s); ("factor", factor); ("dur", d) ]
  | Ramp { at_s; dur_s; factor } -> [ ("at", at_s); ("dur", dur_s); ("factor", factor) ]
  | Loss { at_s; dur_s; p } | Corrupt { at_s; dur_s; p } | Duplicate { at_s; dur_s; p } ->
      [ ("at", at_s); ("dur", dur_s); ("p", p) ]
  | Burst_loss { at_s; dur_s; p_enter; p_exit; loss_good; loss_bad } ->
      [
        ("at", at_s);
        ("dur", dur_s);
        ("p-enter", p_enter);
        ("p-exit", p_exit);
        ("loss-good", loss_good);
        ("loss-bad", loss_bad);
      ]
  | Reorder { at_s; dur_s; p; extra_s } ->
      [ ("at", at_s); ("dur", dur_s); ("p", p); ("delay", extra_s) ]
  | Delay_spike { at_s; dur_s; extra_s } -> [ ("at", at_s); ("dur", dur_s); ("extra", extra_s) ]
  | Qdisc_reset { at_s } -> [ ("at", at_s) ]
  | Flap { from_s; until_s; mean_up_s; mean_down_s } ->
      [ ("from", from_s); ("until", until_s); ("mean-up", mean_up_s); ("mean-down", mean_down_s) ]

let event_to_string e =
  String.concat " "
    (kind_of e :: List.map (fun (k, v) -> k ^ "=" ^ render_float v) (fields_of e))

let to_string t = String.concat "; " (List.map event_to_string t)

(* --- parsing ----------------------------------------------------------- *)

let ( let* ) = Result.bind

let split_on_any ~seps s =
  let buf = Buffer.create 16 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter (fun c -> if List.mem c seps then flush () else Buffer.add_char buf c) s;
  flush ();
  List.rev !out

let parse_kv clause token =
  match String.index_opt token '=' with
  | None -> Error (Printf.sprintf "%S: expected key=value, got %S" clause token)
  | Some i ->
      let k = String.sub token 0 i in
      let v = String.sub token (i + 1) (String.length token - i - 1) in
      (match float_of_string_opt v with
      | Some f when Float.is_finite f -> Ok (k, f)
      | Some _ | None -> Error (Printf.sprintf "%S: %s is not a finite number: %S" clause k v))

let parse_fields clause tokens =
  List.fold_left
    (fun acc token ->
      let* fields = acc in
      let* k, v = parse_kv clause token in
      if List.exists (fun (k', _) -> String.equal k k') fields then
        Error (Printf.sprintf "%S: repeated key %s=" clause k)
      else Ok ((k, v) :: fields))
    (Ok []) tokens

let lookup fields k = List.assoc_opt k fields

let required clause fields k =
  match lookup fields k with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%S: missing %s=" clause k)

let optional fields k ~default = match lookup fields k with Some v -> v | None -> default

let check clause cond msg = if cond then Ok () else Error (Printf.sprintf "%S: %s" clause msg)

let check_time clause name v = check clause (v >= 0.0) (name ^ " must be non-negative")
let check_dur clause v = check clause (v > 0.0) "dur must be positive"
let check_p clause name v = check clause (v >= 0.0 && v <= 1.0) (name ^ " outside [0, 1]")

(* A flap draws holding times until [until], so a mean far below the
   clock's useful resolution means millions of draws per simulated
   second: a run that never finishes. *)
let min_flap_mean_s = 0.001

let check_flap_mean clause name v =
  check clause (v >= min_flap_mean_s)
    (Printf.sprintf "%s must be at least %g s" name min_flap_mean_s)

let known_keys clause fields keys =
  List.fold_left
    (fun acc (k, _) ->
      let* () = acc in
      check clause (List.mem k keys) (Printf.sprintf "unknown key %s=" k))
    (Ok ()) fields

let parse_clause clause =
  match split_on_any ~seps:[ ' '; '\t' ] clause with
  | [] -> Ok None
  | kind :: rest -> (
      let* fields = parse_fields clause rest in
      let keys ks = known_keys clause fields ks in
      match kind with
      | "outage" ->
          let* () = keys [ "at"; "dur" ] in
          let* at_s = required clause fields "at" in
          let* dur_s = required clause fields "dur" in
          let* () = check_time clause "at" at_s in
          let* () = check_dur clause dur_s in
          Ok (Some (Outage { at_s; dur_s }))
      | "capacity" ->
          let* () = keys [ "at"; "factor"; "dur" ] in
          let* at_s = required clause fields "at" in
          let* factor = required clause fields "factor" in
          let* () = check_time clause "at" at_s in
          let* () = check clause (factor > 0.0) "factor must be positive" in
          let dur_s = lookup fields "dur" in
          let* () =
            match dur_s with Some d -> check_dur clause d | None -> Ok ()
          in
          Ok (Some (Capacity { at_s; factor; dur_s }))
      | "ramp" ->
          let* () = keys [ "at"; "dur"; "factor" ] in
          let* at_s = required clause fields "at" in
          let* dur_s = required clause fields "dur" in
          let* factor = required clause fields "factor" in
          let* () = check_time clause "at" at_s in
          let* () = check_dur clause dur_s in
          let* () = check clause (factor > 0.0) "factor must be positive" in
          Ok (Some (Ramp { at_s; dur_s; factor }))
      | "loss" ->
          let* () = keys [ "at"; "dur"; "p" ] in
          let* at_s = required clause fields "at" in
          let* dur_s = required clause fields "dur" in
          let* p = required clause fields "p" in
          let* () = check_time clause "at" at_s in
          let* () = check_dur clause dur_s in
          let* () = check_p clause "p" p in
          Ok (Some (Loss { at_s; dur_s; p }))
      | "burst-loss" ->
          let* () = keys [ "at"; "dur"; "p-enter"; "p-exit"; "loss-good"; "loss-bad" ] in
          let* at_s = required clause fields "at" in
          let* dur_s = required clause fields "dur" in
          let p_enter = optional fields "p-enter" ~default:0.01 in
          let p_exit = optional fields "p-exit" ~default:0.25 in
          let loss_good = optional fields "loss-good" ~default:0.0 in
          let loss_bad = optional fields "loss-bad" ~default:0.3 in
          let* () = check_time clause "at" at_s in
          let* () = check_dur clause dur_s in
          let* () = check_p clause "p-enter" p_enter in
          let* () = check_p clause "p-exit" p_exit in
          let* () = check_p clause "loss-good" loss_good in
          let* () = check_p clause "loss-bad" loss_bad in
          Ok (Some (Burst_loss { at_s; dur_s; p_enter; p_exit; loss_good; loss_bad }))
      | "corrupt" | "duplicate" ->
          let* () = keys [ "at"; "dur"; "p" ] in
          let* at_s = required clause fields "at" in
          let* dur_s = required clause fields "dur" in
          let* p = required clause fields "p" in
          let* () = check_time clause "at" at_s in
          let* () = check_dur clause dur_s in
          let* () = check_p clause "p" p in
          if String.equal kind "corrupt" then Ok (Some (Corrupt { at_s; dur_s; p }))
          else Ok (Some (Duplicate { at_s; dur_s; p }))
      | "reorder" ->
          let* () = keys [ "at"; "dur"; "p"; "delay" ] in
          let* at_s = required clause fields "at" in
          let* dur_s = required clause fields "dur" in
          let* p = required clause fields "p" in
          let extra_s = optional fields "delay" ~default:0.01 in
          let* () = check_time clause "at" at_s in
          let* () = check_dur clause dur_s in
          let* () = check_p clause "p" p in
          let* () = check clause (extra_s > 0.0) "delay must be positive" in
          Ok (Some (Reorder { at_s; dur_s; p; extra_s }))
      | "delay-spike" ->
          let* () = keys [ "at"; "dur"; "extra" ] in
          let* at_s = required clause fields "at" in
          let* dur_s = required clause fields "dur" in
          let* extra_s = required clause fields "extra" in
          let* () = check_time clause "at" at_s in
          let* () = check_dur clause dur_s in
          let* () = check clause (extra_s > 0.0) "extra must be positive" in
          Ok (Some (Delay_spike { at_s; dur_s; extra_s }))
      | "qdisc-reset" ->
          let* () = keys [ "at" ] in
          let* at_s = required clause fields "at" in
          let* () = check_time clause "at" at_s in
          Ok (Some (Qdisc_reset { at_s }))
      | "flap" ->
          let* () = keys [ "from"; "until"; "mean-up"; "mean-down" ] in
          let* from_s = required clause fields "from" in
          let* until_s = required clause fields "until" in
          let mean_up_s = optional fields "mean-up" ~default:5.0 in
          let mean_down_s = optional fields "mean-down" ~default:0.5 in
          let* () = check_time clause "from" from_s in
          let* () = check clause (until_s > from_s) "until must exceed from" in
          let* () = check_flap_mean clause "mean-up" mean_up_s in
          let* () = check_flap_mean clause "mean-down" mean_down_s in
          Ok (Some (Flap { from_s; until_s; mean_up_s; mean_down_s }))
      | other -> Error (Printf.sprintf "%S: unknown fault kind %S" clause other))

let parse s =
  let clauses = split_on_any ~seps:[ ';'; '\n' ] s in
  let* events =
    List.fold_left
      (fun acc clause ->
        let* events = acc in
        let* event = parse_clause (String.trim clause) in
        match event with None -> Ok events | Some e -> Ok (e :: events))
      (Ok []) clauses
  in
  match List.rev events with
  | [] -> Error "empty fault plan"
  | events -> Ok events

let parse_exn s =
  match parse s with Ok t -> t | Error msg -> invalid_arg ("fault plan: " ^ msg)

(* --- ambient arming ---------------------------------------------------- *)

type armed = { plan : t; seed : int }

(* Domain-local like Scope: a pool worker arms only its own job's plan. *)
let key = Domain.DLS.new_key (fun () -> None)

let armed () : armed option = Domain.DLS.get key

let with_armed a f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key a;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f
