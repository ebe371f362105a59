(** The constraint-file analyzer: staged diagnostic passes over one
    constraint file (plus an optional schema and an optional goal
    constraint).

    Stages, in order: classification (Table 1 cell, [PC1xx]), type flow
    ([PC6xx], schema-aware), vacuity ([PC2xx]), inconsistency ([PC4xx]),
    redundancy ([PC3xx] — skipped when Sigma is already known
    inconsistent, since an inconsistent theory implies everything),
    hygiene ([PC5xx]), and — opt-in only — the constraint-interaction
    analyzer ([PC7xx], {!Interact}).  After the passes, {!Driver.finish}:
    suppression pragmas (unused ones become [PC510]), then the
    configuration's severity overrides.  Loading files goes through
    {!Driver.run}, where parse failures short-circuit into
    [PC001]/[PC002]/[PC003] diagnostics so CI consumers see them in the
    same stream. *)

type input = {
  sigma_file : string;  (** display path for diagnostics *)
  sigma : Pathlang.Parser.located list;
  pragmas : Pathlang.Parser.pragma list;
  schema : Schema.Mschema.t option;
  schema_file : string option;
  schema_spans : Schema.Schema_parser.spans option;
  phi : Pathlang.Constr.t option;  (** optional goal, sharpens [PC1xx] *)
  config : Config.t;
  explain : bool;  (** emit [PC602] type-flow annotations *)
  interact : bool;
      (** force the [PC7xx] interaction analyzer on; [false] still runs
          it when the config sets [[passes] interact = true] *)
}

val run :
  ?budget:Core.Engine.Budget.t -> ?pool:Par.t -> input -> Diagnostic.t list
(** All passes over an already-parsed input; diagnostics in
    {!Diagnostic.compare} order.  [budget] (default
    [Core.Engine.Budget.default]) governs the best-effort redundancy
    stage.  Each executed pass bumps the [lint.passes.run] counter
    (passes disabled by the configuration do not).

    With a [?pool] of more than one domain the passes run concurrently
    (the span-pure passes first, then redundancy — which needs the
    inconsistency verdict — alongside the interaction analyzer);
    results are concatenated in the fixed pass order and sorted as
    always, so the diagnostic stream is byte-identical to a sequential
    run's. *)

val exit_code : ?max_warnings:int -> Diagnostic.t list -> int
(** The severity-threshold exit policy: 1 when an error-severity
    diagnostic fired, 1 when more than [max_warnings] warnings fired
    (when a threshold was given), 0 otherwise. *)

val kind :
  ?budget:Core.Engine.Budget.t ->
  ?pool:Par.t ->
  ?phi:string ->
  interact:bool ->
  unit ->
  Pathlang.Parser.document Driver.kind
(** Constraint files as a {!Driver} document kind: the line DSL or the
    XML syntax, the passes of {!run}, and [phi], [interact] and the
    budget as the extra cache-key parts.  A goal that does not parse is
    a [PC001] input error on [<phi>], reported after the schema
    loaded. *)

val lint_paths :
  ?budget:Core.Engine.Budget.t ->
  ?pool:Par.t ->
  ?schema_file:string ->
  ?phi:string ->
  ?config_file:string ->
  ?cache_dir:string ->
  ?explain:bool ->
  ?interact:bool ->
  ?on_config:(Config.t -> unit) ->
  sigma_file:string ->
  unit ->
  Diagnostic.t list
(** {!Driver.run} over {!kind}: load the files and {!run}.  Constraint
    files may be the line DSL or the XML syntax (XML constraints get
    element-level spans and carry no pragmas).  I/O and parse failures become [PC001]/[PC002]/[PC003]
    error diagnostics rather than exceptions, so the caller can render
    them uniformly.

    [config_file] supplies severity overrides, pass selection and
    defaults for [explain], [cache_dir] and the warning threshold
    (explicit arguments win); [on_config] receives it as loaded, as in
    {!Driver.run}.  With a [cache_dir] (from either source),
    results are memoized by content hash: a hit skips every pass and is
    observable via the [lint.cache.hits] counter. *)
