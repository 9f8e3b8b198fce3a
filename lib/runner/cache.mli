(** Content-addressed on-disk result cache.

    Each entry is one job's rendered output stored under its digest and
    the digest of the executable that rendered it, so re-running a
    suite only recomputes jobs whose parameters (and hence digests)
    changed, and a rebuilt binary never reads rows an older binary
    stored. Job digests in reports stay parameter-only. The directory
    defaults to [_ccsim_cache/] in the working directory; set
    [CCSIM_CACHE_DIR] to relocate it. Stores are atomic (temp file +
    rename), so concurrent pool workers and even concurrent ccsim
    processes can share a cache safely. Each entry carries a digest of
    its content, and an entry that does not match it is never served. *)

type t

val default_dir : unit -> string
(** [$CCSIM_CACHE_DIR] if set, else ["_ccsim_cache"]. *)

val create :
  ?dir:(string [@ccsim.test_only "tests point the cache at a temporary directory with it"]) ->
  unit ->
  t
(** Open (creating if needed) the cache directory, and digest the
    running executable once ([Sys.executable_name]) as the code
    identity every entry of this handle is keyed by. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; a no-op when it exists.
    Every ccsim writer that may target a fresh directory (cache, run
    report, instrument exports) goes through it. *)

val find : t -> string -> string option
(** Cached output for a job digest stored by this executable, if
    present. An entry whose content does not match its stored digest
    (truncated, or changed on disk) is a miss and is deleted, so the
    job runs again. *)

val store : t -> digest:string -> string -> unit
(** Persist a job's output under its digest and this executable's.
    A store that fails to write (a full disk, a file-size limit)
    removes its temporary file, stores nothing and raises nothing: the
    job's output stands, uncached. *)

val tmp_path : t -> digest:string -> string
[@@ccsim.test_only "tests plant a file where a store writes"]
(** The temporary file {!store} writes before renaming it into place,
    from this process and domain. *)

val clear : t -> unit [@@ccsim.test_only "tests empty a temporary cache with it"]
(** Remove every entry (the directory itself stays). *)
