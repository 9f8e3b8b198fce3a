type violation = {
  at : float;
  component : string;
  invariant : string;
  message : string;
}

exception Violation of violation

type policy = Warn | Quarantine | Abort

let policy_to_string = function
  | Warn -> "warn"
  | Quarantine -> "quarantine"
  | Abort -> "abort"

let policy_of_string = function
  | "warn" -> Some Warn
  | "quarantine" -> Some Quarantine
  | "abort" -> Some Abort
  | _ -> None

type check = { c_component : string; c_invariant : string; run : unit -> string option }

(* Under [Warn]/[Quarantine] a broken invariant keeps failing on every
   sweep; violations are deduplicated by (component, invariant) and the
   list is capped so a long run cannot accumulate unbounded reports. *)
let max_violations = 64

type t = {
  interval : float;
  policy : policy;
  mutable checks : check list;  (* registration order, newest first *)
  mutable tripped : violation option;
  mutable noted : violation list;  (* newest first, deduped, capped *)
  mutable checks_run : int;
}

let default_interval = 0.25

let create ?(interval = default_interval) ?(policy = Abort) () =
  if interval <= 0.0 then invalid_arg "Watchdog.create: interval must be positive";
  { interval; policy; checks = []; tripped = None; noted = []; checks_run = 0 }

let interval t = t.interval
let checks t = List.length t.checks
let checks_run t = t.checks_run
let violation t = t.tripped
let violations t = List.rev t.noted
let degraded t = (match t.policy with Quarantine -> Option.is_some t.tripped | Warn | Abort -> false)

let note t v =
  if Option.is_none t.tripped then t.tripped <- Some v;
  let dup =
    List.exists
      (fun n -> String.equal n.component v.component && String.equal n.invariant v.invariant)
      t.noted
  in
  if (not dup) && List.length t.noted < max_violations then t.noted <- v :: t.noted

let violate t ~now ~component ~invariant message =
  let v = { at = now; component; invariant; message } in
  note t v;
  match t.policy with Abort -> raise (Violation v) | Warn | Quarantine -> ()

let check_now t ~now =
  match (t.tripped, t.policy) with
  | Some v, Abort -> raise (Violation v)
  | _, _ ->
      List.iter
        (fun c ->
          t.checks_run <- t.checks_run + 1;
          match c.run () with
          | None -> ()
          | Some msg -> violate t ~now ~component:c.c_component ~invariant:c.c_invariant msg)
        (List.rev t.checks)

let register t ~component ~invariant run =
  t.checks <- { c_component = component; c_invariant = invariant; run } :: t.checks

let watch_timeline t tl =
  register t ~component:"timeline" ~invariant:"sample_ordering" (fun () ->
      match Timeline.ordering_violation tl with
      | None -> None
      | Some (series, last, offending) ->
          Some
            (Printf.sprintf "series %S went backwards: %.9f after %.9f" series offending
               last))

let one_line v =
  Printf.sprintf "watchdog violation [component=%s invariant=%s at=%.6f]: %s" v.component
    v.invariant v.at v.message

let report v =
  Printf.sprintf
    "watchdog: invariant violated at t=%.6f\n  component: %s\n  invariant: %s\n  detail: %s\n"
    v.at v.component v.invariant v.message

(* Failed runner jobs carry [Printexc.to_string] of the exception, so a
   watchdog abort surfaces its structured report in job errors, the
   telemetry table, and the JSON run report. *)
let () =
  Printexc.register_printer (function Violation v -> Some (one_line v) | _ -> None)
