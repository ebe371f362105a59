(** Diagnostics core for the static analyzer.

    Every finding of [pathctl lint] is a {!t}: a stable code from the
    {!rules} table, a severity, a message, and an optional source span.
    Three renderers are provided: human-readable text, JSON lines (one
    object per diagnostic), and SARIF 2.1.0 for CI annotation.  The two
    JSON forms are {!Obs.Json} values written into one buffer.

    Codes are stable across releases — tools may match on them:
    {ul
    {- [PC0xx] input errors (parse failures),}
    {- [PC1xx] fragment / decidability classification (Table 1),}
    {- [PC2xx] vacuity under the schema,}
    {- [PC3xx] redundancy,}
    {- [PC4xx] inconsistency,}
    {- [PC5xx] hygiene (including [PC510], unused suppressions),}
    {- [PC6xx] schema-aware type flow (dead paths, M+ undecidability
       triggers, inferred type annotations),}
    {- [PC7xx] constraint interaction (minimal unsatisfiable cores,
       implication-DAG edges, path-vs-type provenance; {!Interact},
       opt-in),}
    {- [PC8xx] typed regular path queries (empty queries, dead
       subexpressions, ill-typed regular constraints, inferred type
       chains; {!Querycheck}).}} *)

type severity = Error | Warning | Info | Hint

val severity_to_string : severity -> string
(** ["error"], ["warning"], ["info"], ["hint"]. *)

type t = {
  code : string;  (** stable rule id, e.g. ["PC101"] *)
  severity : severity;
  message : string;
  file : string;  (** display path of the analyzed file *)
  span : Pathlang.Span.t option;  (** location, when the finding has one *)
}

val make :
  code:string ->
  severity:severity ->
  file:string ->
  ?span:Pathlang.Span.t ->
  string ->
  t
(** @raise Invalid_argument when [code] is not in {!rules}. *)

val rules : (string * severity * string) list
(** The rule table: code, default severity, short description.  Drives
    the SARIF [rules] metadata and the DESIGN.md code table. *)

val has_errors : t list -> bool
(** True iff some diagnostic has severity {!Error} — the condition under
    which [pathctl lint] exits non-zero. *)

val compare : t -> t -> int
(** Orders by file, then position (spanless first), then code — the
    presentation order of every renderer. *)

val to_text : t -> string
(** One line: [file:line:col: severity[CODE] message]. *)

val render_text : t list -> string
(** Sorted diagnostics, one per line, plus a trailing summary line
    ([N error(s), M warning(s), ...]). *)

val to_json : t -> Obs.Json.t
(** One diagnostic as an object with fields [code], [severity], [file],
    when located [line], [startColumn], [endColumn] (1-based,
    end-exclusive), and [message].  The line of {!render_json} and the
    record of a lint cache entry. *)

val render_json : t list -> string
(** JSON lines: {!to_json} of each sorted diagnostic. *)

val render_sarif : t list -> string
(** A complete SARIF 2.1.0 document: one run of the [pathctl] driver
    with the full {!rules} table and one result per diagnostic.
    Severities map to SARIF levels [error]/[warning]/[note].  Everything
    before the results is rendered once per process; a report writes
    only its results into one buffer. *)
