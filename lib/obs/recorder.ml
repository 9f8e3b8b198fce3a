type severity = Debug | Info | Warn | Error

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type event = {
  at : float;
  severity : severity;
  kind : string;
  point : string;
  detail : string;
  fields : (string * string) list;
}

type t = {
  capacity : int;
  level : severity;
  buffer : event Queue.t;
  mutable total : int;
}

let default_capacity = 200_000

let create ?(capacity = default_capacity) ?(level = Debug) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  { capacity; level; buffer = Queue.create (); total = 0 }

let admits t severity = severity_rank severity >= severity_rank t.level

let record t ~at ?(severity = Info) ~kind ~point ?(fields = []) detail =
  if admits t severity then begin
    Queue.push { at; severity; kind; point; detail; fields } t.buffer;
    t.total <- t.total + 1;
    if Queue.length t.buffer > t.capacity then ignore (Queue.pop t.buffer)
  end

let events t = List.of_seq (Queue.to_seq t.buffer)
let count t = t.total
let retained t = Queue.length t.buffer
let evicted t = t.total - Queue.length t.buffer
let filter t ~f = List.filter f (events t)
let by_kind t kind = filter t ~f:(fun e -> String.equal e.kind kind)

let event_to_ndjson buf ?(extra = []) e =
  Buffer.add_char buf '{';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Json.str k);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Json.str v);
      Buffer.add_char buf ',')
    extra;
  Printf.bprintf buf "\"at\":%.9f,\"severity\":%s,\"class\":%s,\"point\":%s,\"detail\":%s" e.at
    (Json.str (severity_to_string e.severity))
    (Json.str e.kind) (Json.str e.point) (Json.str e.detail);
  if (match e.fields with [] -> false | _ :: _ -> true) then
    Printf.bprintf buf ",\"fields\":%s" (Json.obj_of_strings e.fields);
  Buffer.add_string buf "}\n"

let to_ndjson ?extra t =
  let buf = Buffer.create 4096 in
  Queue.iter (fun e -> event_to_ndjson buf ?extra e) t.buffer;
  Buffer.contents buf

let csv_header ?(extra = []) () =
  String.concat "," (List.map fst extra @ [ "at"; "severity"; "class"; "point"; "detail"; "fields" ])
  ^ "\n"

let to_csv ?(header = true) ?(extra = []) t =
  let buf = Buffer.create 4096 in
  if header then Buffer.add_string buf (csv_header ~extra ());
  Queue.iter
    (fun e ->
      let fields = String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) e.fields) in
      let cells =
        List.map snd extra
        @ [
            Printf.sprintf "%.9f" e.at;
            severity_to_string e.severity;
            e.kind;
            e.point;
            e.detail;
            fields;
          ]
      in
      Buffer.add_string buf (Ccsim_util.Csv.row_to_string cells);
      Buffer.add_char buf '\n')
    t.buffer;
  Buffer.contents buf
