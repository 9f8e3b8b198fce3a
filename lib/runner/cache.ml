type t = {
  dir : string;
  code : string;
      (* the running executable's digest: a rebuilt binary keys its
         entries afresh and never reads rows an older one stored *)
}

let default_dir () =
  match Sys.getenv_opt "CCSIM_CACHE_DIR" with
  | Some d when not (String.equal d "") -> d
  | _ -> "_ccsim_cache"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?dir () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  mkdir_p dir;
  { dir; code = Digest.to_hex (Digest.file Sys.executable_name) }

let path t digest = Filename.concat t.dir (digest ^ "-" ^ t.code ^ ".out")

(* An entry is the hex digest of the output, a newline, then the
   output. *)
let digest_len = 32

let entry_body entry =
  let n = String.length entry in
  if n > digest_len && Char.equal entry.[digest_len] '\n' then begin
    let body = String.sub entry (digest_len + 1) (n - digest_len - 1) in
    if String.equal (String.sub entry 0 digest_len) (Digest.to_hex (Digest.string body)) then
      Some body
    else None
  end
  else None

(* An entry that does not match its digest (cut short by a full disk,
   changed by hand) is a miss, and is removed. *)
let find t digest =
  let file = path t digest in
  match open_in_bin file with
  | exception Sys_error _ -> None
  | ic -> (
      let entry =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match entry_body entry with
      | Some body -> Some body
      | None ->
          (try Sys.remove file with Sys_error _ -> ());
          None)

let tmp_path t ~digest =
  Filename.concat t.dir
    (Printf.sprintf ".tmp.%s.%d.%d" digest (Unix.getpid ()) (Domain.self () :> int))

(* The channel is closed, and so flushed, inside the protected body, so
   a failed write (a full disk, a file-size limit) raises before the
   rename and never leaves a partial entry in place. *)
let store t ~digest output =
  let tmp = tmp_path t ~digest in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Digest.to_hex (Digest.string output));
        output_char oc '\n';
        output_string oc output;
        close_out oc);
    Sys.rename tmp (path t digest)
  with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ())

let clear t =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat t.dir f) with Sys_error _ -> ())
    (Sys.readdir t.dir)
