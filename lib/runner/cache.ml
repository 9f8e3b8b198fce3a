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

let find t digest =
  let file = path t digest in
  match open_in_bin file with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

let store t ~digest output =
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".tmp.%s.%d.%d" digest (Unix.getpid ())
         (Domain.self () :> int))
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc output);
  Sys.rename tmp (path t digest)

let clear t =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat t.dir f) with Sys_error _ -> ())
    (Sys.readdir t.dir)
