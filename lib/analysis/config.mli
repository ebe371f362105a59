(** Analyzer configuration: a small, strict TOML subset.

    {v
    [severity]
    PC300 = "info"        # re-rank a code
    PC502 = "ignore"      # drop a code entirely
    PC7xx = "warning"     # re-rank a whole family

    [passes]
    redundancy = false    # skip a pass wholesale
    interact = true       # opt the interaction analyzer in (off by default)

    [lint]
    max-warnings = 50     # exit 1 above this many warnings
    explain = true        # emit PC602 type-flow annotations
    cache = ".pathctl-cache"
    v}

    Unknown sections, keys, codes, passes or values are parse errors
    ([PC003] in the lint stream): silently ignoring a typoed key would
    hide the misconfiguration.  Severities of the input-error codes
    [PC001]/[PC002]/[PC003] cannot be overridden. *)

type t = {
  severity : (string * Diagnostic.severity option) list;
      (** per-code overrides; [None] means the code is dropped *)
  passes : (string * bool) list;  (** pass selection; absent = enabled *)
  max_warnings : int option;
  explain : bool;
  cache_dir : string option;
}

val default : t
(** Everything enabled, no overrides, no cache. *)

val pass_names : string list
(** The pass identifiers accepted in [[passes]]: [classify], [typeflow],
    [vacuity], [redundancy], [inconsistency], [hygiene], [interact],
    [querycheck].  All default to enabled except [interact], which runs
    only when opted in (here or with [--interact]); [querycheck] is the
    PC8xx pass of [pathctl query lint]. *)

val pass_enabled : t -> string -> bool

val severity_override : t -> string -> Diagnostic.severity option option
(** [None]: no override; [Some None]: the code is ignored; [Some (Some
    sev)]: re-ranked to [sev].  An exact-code entry wins over a family
    ([PCnxx]) entry; among family entries the first in file order
    wins. *)

val parse : string -> (t, int * string) result
(** The error is the 1-based line it stops at and the message. *)
