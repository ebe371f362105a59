(** The PC8xx pass: schema-aware static analysis of regular path
    queries ([pathctl query lint]).

    Each query in a query file is typechecked against the schema by
    {!Rpq.Typecheck} — the product of its Thompson automaton with the
    schema automaton — and the reachable/co-reachable projection is
    rendered as diagnostics:

    {ul
    {- [PC800] — the query is empty over the schema: no word of its
       language lies in Paths(Delta).  The span pinpoints the first
       letter (in source order) whose entry sorts are non-empty but
       whose exit sorts are empty — the token where every candidate
       match dies;}
    {- [PC801] — a dead subexpression of a non-empty query: an [Alt]
       branch or [Star]/[Plus]/[Opt] body none of whose product states
       are both reachable and co-reachable, spanned at the subtree;}
    {- [PC802] — an ill-typed regular constraint [lhs -> rhs]: both
       sides are non-empty but their answer-sort sets are disjoint, so
       the containment can only hold vacuously;}
    {- [PC803] (with [explain]) — the inferred sort sets after every
       letter occurrence, the query-side sibling of the [PC602]
       type-flow chains.}}

    [pathctl query lint] runs through the same {!Driver} as
    {!Lint.lint_paths}: the same TOML
    configuration (the pass answers to [querycheck] in [[passes]];
    [PC8xx] family keys work in [[severity]]), the same suppression
    pragmas ([# pathctl-disable ...] lines in the query file, including
    [PC510] staleness), and the same content-hash cache. *)

val pass :
  query_file:string ->
  schema:Schema.Mschema.t ->
  ?explain:bool ->
  ?pool:Par.t ->
  Rpq.Parser.located list ->
  Diagnostic.t list
(** Check every parsed query item against the schema.  With a [pool] of
    more than one job, items are checked in parallel, one task per
    item; results keep file order, so the output is byte-identical to a
    sequential run.  Runs under the [lint.querycheck] span and bumps
    [lint.passes.run]. *)

val kind : ?pool:Par.t -> unit -> Rpq.Parser.document Driver.kind
(** Query files as a {!Driver} document kind: {!Rpq.Parser} documents,
    {!pass} when a schema is present and the [querycheck] pass is
    enabled, and the pass switch as the one extra cache-key part (the
    evaluation budget is deliberately not a part: querycheck
    diagnostics do not depend on it). *)

val lint_queries :
  ?pool:Par.t ->
  ?schema_file:string ->
  ?config_file:string ->
  ?cache_dir:string ->
  ?explain:bool ->
  query_file:string ->
  unit ->
  Diagnostic.t list
(** [pathctl query lint]: {!Driver.run} over {!kind}.  Without a schema
    the pass is skipped (queries still must parse). *)
