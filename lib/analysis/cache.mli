(** Content-hash incremental cache for whole lint runs.

    The key digests the analyzer version, the {!Diagnostic.rules} table,
    and every input the diagnostics depend on (file paths and contents,
    goal constraint, configuration, budget, explain flag); a hit
    therefore returns bit-identical diagnostics and skips every pass.
    Lookups and stores are observable through the [lint.cache.hits],
    [lint.cache.misses] and [lint.cache.stores] counters of [lib/obs].

    The store is a directory of [<hex-digest>.json] files, written
    atomically (temp + fsync + rename through [Fault.Io], fault site
    [cache.store]) so a torn write can never leave a truncated entry
    under the final name; malformed or version-skewed entries read as
    misses.  A storage failure degrades the cache to off for the rest
    of the run — counted in [lint.cache.write_errors] — instead of
    failing the lint (a cache must never turn a working lint into a
    failing one). *)

val version : int
(** Bumped whenever the entry format or diagnostic semantics change;
    part of every key, so stale stores depopulate themselves. *)

val key : parts:string list -> string
(** Hex digest of the length-framed parts (prefixed with {!version} and
    a fingerprint of {!Diagnostic.rules}: every row's code, default
    severity and description). *)

val key_with_rules :
  rules:(string * Diagnostic.severity * string) list ->
  parts:string list ->
  string
(** {!key} against an explicit rule table; [key ~parts] is
    [key_with_rules ~rules:Diagnostic.rules ~parts].  For tests. *)

val lookup : dir:string -> key:string -> Diagnostic.t list option
(** [Some diags] on a well-formed entry, [None] otherwise; bumps the
    hit/miss counters. *)

val store : dir:string -> key:string -> Diagnostic.t list -> unit
(** Creates [dir] if needed; never raises (an injected [Fault.Crash]
    excepted — that is the fault layer simulating process death).  On
    write failure the cache turns itself off for the rest of the run
    and bumps [lint.cache.write_errors]. *)

val reset : unit -> unit
(** Clear the degraded (cache-off) state; for tests and long-lived
    processes that outlive the disk condition. *)
