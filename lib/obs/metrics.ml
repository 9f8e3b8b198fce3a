type labels = (string * string) list

type counter = { mutable count : int }
type gauge = { mutable value : float }

(* Log-scale histogram: power-of-two buckets. A positive value [x] with
   [frexp x = (_, e)] (i.e. x in [2^(e-1), 2^e)) lands in bucket
   [clamp (e + exponent_offset)], so the covered range spans roughly
   2^-41 .. 2^23 — nanoseconds to megaseconds, or single bytes to
   terabytes. Non-positive values are counted separately. *)
type histogram = {
  buckets : int array;
  mutable zero : int;  (* observations <= 0 *)
  mutable observations : int;
  sum : float array;
      (* one unboxed slot: a mutable float field in this mixed record
         would box on every observation *)
}

let bucket_count = 64
let exponent_offset = 41

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type key = { name : string; labels : labels }

(* Concurrency/determinism audit (ccsim-lint): a registry is
   per-instance (one per job/scope, never shared across domains), and
   every rendering path walks [order] — not the table — so output never
   depends on hash order. *)
type t = {
  table : (key, instrument) Hashtbl.t;
  mutable order : key list;  (* registration order, newest first *)
}

let create () = { table = Hashtbl.create 64; order = [] }

let normalize_labels labels = List.sort (fun ((a : string), _) (b, _) -> String.compare a b) labels

let register t key instr =
  Hashtbl.add t.table key instr;
  t.order <- key :: t.order

let counter t ?(labels = []) name =
  let key = { name; labels = normalize_labels labels } in
  match Hashtbl.find_opt t.table key with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.counter: %S is registered as another kind" name)
  | None ->
      let c = { count = 0 } in
      register t key (Counter c);
      c

let gauge t ?(labels = []) name =
  let key = { name; labels = normalize_labels labels } in
  match Hashtbl.find_opt t.table key with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.gauge: %S is registered as another kind" name)
  | None ->
      let g = { value = 0.0 } in
      register t key (Gauge g);
      g

let histogram t ?(labels = []) name =
  let key = { name; labels = normalize_labels labels } in
  match Hashtbl.find_opt t.table key with
  | Some (Histogram h) -> h
  | Some _ ->
      invalid_arg (Printf.sprintf "Metrics.histogram: %S is registered as another kind" name)
  | None ->
      let h =
        { buckets = Array.make bucket_count 0; zero = 0; observations = 0; sum = Array.make 1 0.0 }
      in
      register t key (Histogram h);
      h

let inc c = c.count <- c.count + 1
let add c n = c.count <- c.count + n
let value c = c.count
let set g v = g.value <- v
let set_int g n = g.value <- float_of_int n
let gauge_value g = g.value

(* [frexp]'s exponent read straight from the IEEE 754 bits, with no
   tuple and no boxed mantissa. A normal float with biased exponent b
   lies in [2^(b-1023), 2^(b-1022)), so frexp gives e = b - 1022.
   Subnormals have b = 0 and frexp exponents from -1073 to -1022, all
   below bucket 0 after the offset. Zeros, infinities and NaN get e = 0
   from frexp. *)
let[@ccsim.hot] bucket_index x =
  let b = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 52) land 0x7ff in
  if b = 0x7ff || (b = 0 && Float.equal x 0.0) then exponent_offset
  else if b = 0 then 0
  else
    let i = b - 1022 + exponent_offset in
    if i < 0 then 0 else if i >= bucket_count then bucket_count - 1 else i

let[@ccsim.hot] observe h x =
  h.observations <- h.observations + 1;
  h.sum.(0) <- h.sum.(0) +. x;
  if x <= 0.0 then h.zero <- h.zero + 1
  else begin
    let i = bucket_index x in
    h.buckets.(i) <- h.buckets.(i) + 1
  end

let[@ccsim.hot] observe_int h n = observe h (float_of_int n)

let observations h = h.observations
let sum h = h.sum.(0)

(* Bucket [i] holds values in [2^(i - offset - 1), 2^(i - offset)): the
   inverse of [bucket_index], where frexp maps [2^(e-1), 2^e) to e. *)
let bucket_lower_bound i = Float.ldexp 1.0 (i - exponent_offset - 1)
let bucket_upper_bound i = Float.ldexp 1.0 (i - exponent_offset)

(* Quantile estimate by linear interpolation within the covering bucket
   (continuous rank k = q * n; the zero bucket contributes rank mass at
   value 0). Bucket bounds are powers of two, so the estimate is within
   a factor of two of the true order statistic. *)
let quantile h q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Metrics.quantile: q must be within [0,1]";
  if h.observations = 0 then 0.0
  else begin
    let k = q *. float_of_int h.observations in
    if h.zero > 0 && k <= float_of_int h.zero then 0.0
    else begin
      let cum = ref (float_of_int h.zero) in
      let answer = ref 0.0 in
      (try
         for i = 0 to bucket_count - 1 do
           let n = h.buckets.(i) in
           if n > 0 then begin
             let lo = bucket_lower_bound i and hi = bucket_upper_bound i in
             let fn = float_of_int n in
             if k <= !cum +. fn then begin
               answer := lo +. ((k -. !cum) /. fn *. (hi -. lo));
               raise Exit
             end;
             cum := !cum +. fn;
             answer := hi
           end
         done
       with Exit -> ());
      !answer
    end
  end

let size t = Hashtbl.length t.table

let find_counter t ?(labels = []) name =
  match Hashtbl.find_opt t.table { name; labels = normalize_labels labels } with
  | Some (Counter c) -> Some c
  | Some _ | None -> None

let find_histogram t name =
  match Hashtbl.find_opt t.table { name; labels = [] } with
  | Some (Histogram h) -> Some h
  | Some _ | None -> None

let float_lit v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.9g" v

let line_to buf ?(extra = []) key instr =
  Buffer.add_char buf '{';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Json.str k);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Json.str v);
      Buffer.add_char buf ',')
    extra;
  let kind =
    match instr with Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"
  in
  Printf.bprintf buf "\"type\":%s,\"name\":%s,\"labels\":%s" (Json.str kind) (Json.str key.name)
    (Json.obj_of_strings key.labels);
  (match instr with
  | Counter c -> Printf.bprintf buf ",\"value\":%d" c.count
  | Gauge g -> Printf.bprintf buf ",\"value\":%s" (float_lit g.value)
  | Histogram h ->
      Printf.bprintf buf ",\"count\":%d,\"sum\":%s,\"zero\":%d" h.observations
        (float_lit h.sum.(0)) h.zero;
      Printf.bprintf buf ",\"p50\":%s,\"p95\":%s,\"p99\":%s"
        (float_lit (quantile h 0.50))
        (float_lit (quantile h 0.95))
        (float_lit (quantile h 0.99));
      Buffer.add_string buf ",\"buckets\":[";
      let first = ref true in
      Array.iteri
        (fun i n ->
          if n > 0 then begin
            if not !first then Buffer.add_char buf ',';
            first := false;
            Printf.bprintf buf "{\"le\":%.9g,\"count\":%d}" (bucket_upper_bound i) n
          end)
        h.buckets;
      Buffer.add_char buf ']');
  Buffer.add_string buf "}\n"

let to_ndjson ?extra t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun key -> line_to buf ?extra key (Hashtbl.find t.table key))
    (List.rev t.order);
  Buffer.contents buf
