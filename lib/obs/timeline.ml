type labels = (string * string) list

(* A series stores (time, value) pairs in a pair of parallel arrays.
   Memory is bounded: when a series reaches [capacity] points it is
   compacted by keeping every other point and doubling the acceptance
   stride, so a series always covers the whole run at a resolution that
   degrades gracefully (classic streaming decimation). The stride gates
   on the count of points *offered*, which keeps the retained points
   aligned on a regular sub-grid of the sampling grid. *)
type series = {
  s_name : string;
  s_labels : labels;
  capacity : int;
  mutable times : float array;
  mutable values : float array;
  mutable len : int;
  mutable stride : int;  (* keep 1 of every [stride] offered points *)
  mutable offered : int;
  mutable last_time : float;
  violation : (string * float * float) option ref;
      (* shared with the owning timeline: (series, last_time, offending_time) *)
}

type t = {
  interval : float;
  capacity : int;
  table : (string * labels, series) Hashtbl.t;  (* (name, normalized labels) *)
  mutable order : series list;  (* registration order, newest first *)
  mutable sim_ids : int;
  violation : (string * float * float) option ref;
}

let default_interval = 0.1
let default_capacity = 4096

let create ?(interval = default_interval) ?(capacity = default_capacity) () =
  if interval <= 0.0 then invalid_arg "Timeline.create: interval must be positive";
  if capacity < 2 then invalid_arg "Timeline.create: capacity must be at least 2";
  {
    interval;
    capacity;
    table = Hashtbl.create 64;
    order = [];
    sim_ids = 0;
    violation = ref None;
  }

let interval t = t.interval

let next_sim_id t =
  t.sim_ids <- t.sim_ids + 1;
  t.sim_ids

let normalize_labels labels = List.sort (fun ((a : string), _) (b, _) -> String.compare a b) labels

let series t ?(labels = []) name =
  let labels = normalize_labels labels in
  let key = (name, labels) in
  match Hashtbl.find_opt t.table key with
  | Some s -> s
  | None ->
      let s =
        {
          s_name = name;
          s_labels = labels;
          capacity = t.capacity;
          times = Array.make 16 0.0;
          values = Array.make 16 0.0;
          len = 0;
          stride = 1;
          offered = 0;
          last_time = neg_infinity;
          violation = t.violation;
        }
      in
      Hashtbl.add t.table key s;
      t.order <- s :: t.order;
      s

let compact s =
  (* Keep points at even offered-offsets: they sit on the doubled
     stride's sub-grid, so future acceptances stay aligned. *)
  let kept = (s.len + 1) / 2 in
  for i = 0 to kept - 1 do
    s.times.(i) <- s.times.(2 * i);
    s.values.(i) <- s.values.(2 * i)
  done;
  s.len <- kept;
  s.stride <- s.stride * 2

let push s ~time ~value =
  if s.len = s.capacity then compact s;
  if s.len = Array.length s.times then begin
    let n = min s.capacity (2 * Array.length s.times) in
    let times = Array.make n 0.0 and values = Array.make n 0.0 in
    Array.blit s.times 0 times 0 s.len;
    Array.blit s.values 0 values 0 s.len;
    s.times <- times;
    s.values <- values
  end;
  s.times.(s.len) <- time;
  s.values.(s.len) <- value;
  s.len <- s.len + 1

let record s ~time ~value =
  if time < s.last_time then begin
    (* Out-of-order samples are dropped but remembered: the watchdog's
       telemetry-ordering invariant reads this flag. *)
    if Option.is_none !(s.violation) then s.violation := Some (s.s_name, s.last_time, time)
  end
  else begin
    s.last_time <- time;
    if s.offered mod s.stride = 0 then push s ~time ~value;
    s.offered <- s.offered + 1
  end

let name s = s.s_name
let labels s = s.s_labels
let length s = s.len
let stride s = s.stride
let points s = Array.init s.len (fun i -> (s.times.(i), s.values.(i)))
let all_series t = List.rev t.order
let ordering_violation t = !(t.violation)

(* Floats are printed with the shortest of %.12g/%.17g that parses back
   to the same bits, so offline analysis over an exported series sees
   exactly the values the simulation produced. *)
let float_rt v =
  if not (Float.is_finite v) then "null"
  else
    let s = Printf.sprintf "%.12g" v in
    if Float.equal (float_of_string s) v then s else Printf.sprintf "%.17g" v

let line_to buf ?(extra = []) s i =
  Buffer.add_char buf '{';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Json.str k);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Json.str v);
      Buffer.add_char buf ',')
    extra;
  Printf.bprintf buf "\"series\":%s,\"labels\":%s,\"t\":%s,\"v\":%s" (Json.str s.s_name)
    (Json.obj_of_strings s.s_labels)
    (float_rt s.times.(i))
    (float_rt s.values.(i));
  Buffer.add_string buf "}\n"

let to_ndjson ?extra t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      for i = 0 to s.len - 1 do
        line_to buf ?extra s i
      done)
    (all_series t);
  Buffer.contents buf

let to_csv ?(header = true) ?(extra = []) t =
  let cell = Ccsim_util.Csv.escape_field in
  let buf = Buffer.create 4096 in
  if header then begin
    List.iter (fun (k, _) -> Printf.bprintf buf "%s," (cell k)) extra;
    Buffer.add_string buf "series,labels,t,v\n"
  end;
  List.iter
    (fun s ->
      let label_cell =
        String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) s.s_labels)
      in
      for i = 0 to s.len - 1 do
        List.iter (fun (_, v) -> Printf.bprintf buf "%s," (cell v)) extra;
        Printf.bprintf buf "%s,%s,%s,%s\n" (cell s.s_name) (cell label_cell)
          (float_rt s.times.(i))
          (float_rt s.values.(i))
      done)
    (all_series t);
  Buffer.contents buf
