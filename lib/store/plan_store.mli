(** On-disk persistence for coefficient-free compile plans.

    The in-memory [Plan_cache] amortizes the structural front end
    within one process; this store amortizes it {e across} processes.
    Entries are opaque byte payloads filed under a caller's key: the
    compiler's plan key (the solver flag and MD5 digests of the device
    and support renderings), the same key its LRU uses.  A key names a
    candidate only; the caller confirms a payload against its request
    before serving it, as the LRU confirms a resident plan.

    Trust model: the store is a cache, never a source of truth.  Every
    entry carries a magic line, the store-format {e version} string
    supplied by the opener, the full key, and an MD5 checksum of the
    payload.  [load] re-derives all of them; any mismatch — truncated
    file, garbage bytes, flipped checksum, stale version, digest
    collision on the file name — is a counted miss, never an error.
    The caller rebuilds and [save] repairs the entry atomically
    (write-to-temp + [rename]), so a crashed writer can leave at worst
    a stale temp file, never a torn entry. *)

type t

type stats = {
  hits : int;  (** validated loads *)
  misses : int;  (** entry absent *)
  corrupt : int;
      (** entry present but failed validation (torn, garbage, bad
          checksum, wrong key), or reclassified by the caller after a
          post-load decode/lint failure *)
  version_mismatch : int;
      (** entry written by a different store-format version *)
  writes : int;  (** successful saves *)
  write_errors : int;  (** saves that failed (permissions, disk) *)
}

val open_store : version:string -> dir:string -> t
(** Open (lazily create) a store rooted at [dir].  [version] is an
    arbitrary single-line tag baked into every entry and required on
    load — bump it (or include a binary digest in it) to invalidate
    all prior entries at once.  Never raises: an unusable directory
    only surfaces later as misses and [write_errors]. *)

val dir : t -> string
val version : t -> string

val entry_path : t -> key:string -> string
(** Path of the file that would hold [key]'s entry ([<md5 hex>.plan]
    under [dir]).  Exposed for tests and ops tooling. *)

val load : t -> key:string -> string option
(** Validated payload for [key], or [None] (counted as miss, corrupt,
    or version mismatch — see {!stats}).  Never raises. *)

val save : t -> key:string -> payload:string -> bool
(** Atomically persist [payload] under [key], replacing any prior
    entry.  Returns [false] (and counts a write error) instead of
    raising. *)

val reclassify_corrupt : t -> unit
(** Demote the most recent hit to a corrupt miss.  The store validates
    bytes, not semantics: when the caller's decode or checks reject a
    payload that passed checksum validation, this keeps the telemetry
    honest. *)

val stats : t -> stats
