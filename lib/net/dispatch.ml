module Obs = Ccsim_obs

(* Handlers sit in an array indexed by flow id. Ids are small and
   non-negative (scenario flows count from 0, short flows from 1000), so
   a delivery is one bounds check and one load, with no hashing. Empty
   slots hold [absent], recognised by physical equality. *)
let absent (_ : Packet.t) = ()

type t = {
  mutable handlers : (Packet.t -> unit) array;
  mutable unmatched : int;
  m_delivered : Obs.Metrics.counter option;
  m_unmatched : Obs.Metrics.counter option;
}

let create () =
  let scope = Obs.Scope.ambient () in
  let counter name =
    Option.map (fun m -> Obs.Metrics.counter m name) scope.Obs.Scope.metrics
  in
  {
    handlers = Array.make 16 absent;
    unmatched = 0;
    m_delivered = counter "dispatch_delivered_total";
    m_unmatched = counter "dispatch_unmatched_total";
  }

let register t ~flow handler =
  if flow < 0 then invalid_arg "Dispatch.register: negative flow id";
  let n = Array.length t.handlers in
  if flow >= n then begin
    let size = ref n in
    while !size <= flow do
      size := 2 * !size
    done;
    let grown = Array.make !size absent in
    Array.blit t.handlers 0 grown 0 n;
    t.handlers <- grown
  end;
  if t.handlers.(flow) != absent then invalid_arg "Dispatch.register: flow already registered";
  t.handlers.(flow) <- handler

let unregister t ~flow =
  if flow >= 0 && flow < Array.length t.handlers then t.handlers.(flow) <- absent

let[@ccsim.hot] deliver t (pkt : Packet.t) =
  let flow = pkt.flow in
  let handler =
    if flow >= 0 && flow < Array.length t.handlers then t.handlers.(flow) else absent
  in
  if handler != absent then begin
    (match t.m_delivered with Some c -> Obs.Metrics.inc c | None -> ());
    handler pkt
  end
  else begin
    t.unmatched <- t.unmatched + 1;
    match t.m_unmatched with Some c -> Obs.Metrics.inc c | None -> ()
  end

let as_sink t pkt = deliver t pkt
let unmatched t = t.unmatched
