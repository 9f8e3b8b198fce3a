(** Content-addressed on-disk result cache.

    Each entry is one job's rendered output stored under its digest and
    the digest of the executable that rendered it, so re-running a
    suite only recomputes jobs whose parameters (and hence digests)
    changed, and a rebuilt binary never reads rows an older binary
    stored. Job digests in reports stay parameter-only. The directory
    defaults to [_ccsim_cache/] in the working directory; set
    [CCSIM_CACHE_DIR] to relocate it. Stores are atomic (temp file +
    rename), so concurrent pool workers and even concurrent ccsim
    processes can share a cache safely. *)

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
    present. *)

val store : t -> digest:string -> string -> unit
(** Persist a job's output under its digest and this executable's. *)

val clear : t -> unit [@@ccsim.test_only "tests empty a temporary cache with it"]
(** Remove every entry (the directory itself stays). *)
