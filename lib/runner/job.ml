type t = { name : string; digest : string; run : unit -> string }

let make ~name ~digest run = { name; digest; run }

(* Bump when renderer output changes incompatibly: stale cache entries
   keyed under the old salt are then never consulted. *)
let salt = "ccsim-runner/1"

let digest_of_params ~name params =
  let params = List.sort (fun (a, _) (b, _) -> String.compare a b) params in
  let buf = Buffer.create 64 in
  Buffer.add_string buf salt;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf v)
    params;
  Digest.to_hex (Digest.string (Buffer.contents buf))

type result = {
  name : string;
  digest : string;
  output : string;
  ok : bool;
  error : string option;
  cache_hit : bool;
  queue_wait_s : float;
  wall_s : float;
  degraded : bool;
}

let error_row ~name msg = Printf.sprintf "%s: ERROR %s\n" name msg
