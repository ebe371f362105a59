(** The non-classifier lint passes: vacuity, redundancy, inconsistency,
    hygiene.

    Each pass takes the parsed, span-carrying constraint list (and the
    schema when one was supplied) and returns diagnostics.  The
    redundancy pass asks {!Core.Decide} for its route: exact procedures
    on decidable cells (the PTIME word procedure, the cubic typed-M
    procedure) and a budgeted chase otherwise, all under one wall-clock
    deadline. *)

type spanned = (Pathlang.Constr.t * Pathlang.Span.t) list

val vacuity :
  sigma_file:string -> schema:Schema.Mschema.t -> spanned -> Diagnostic.t list
(** [PC200] when a constraint's prefix is not in [Paths(Delta)] (the
    constraint is vacuously satisfied over [U(Delta)]), [PC201] when the
    prefix is fine but the body walks a path outside [Paths(Delta)]. *)

type redundancy_report = {
  removable : spanned;
      (** constraints implied by the rest of Sigma, in input order *)
  cover : Pathlang.Constr.t list;
      (** greedy minimal cover: a subset of Sigma implying all of it *)
  route : Core.Decide.route;  (** the route that answered *)
  exact : bool;
      (** the verdicts come from a complete decision procedure for the
          instance's cell (word PTIME or cubic typed-M), not from the
          best-effort chase *)
  gave_up : int;
      (** constraints left unanalyzed when the deadline struck *)
}

val redundancy_report :
  ?schema:Schema.Mschema.t ->
  ?budget:Core.Engine.Budget.t ->
  spanned ->
  redundancy_report
(** The raw analysis behind {!redundancy}; exposed for the test suite's
    cross-checks.  [budget] (default [Core.Engine.Budget.default])
    bounds the whole pass: its timeout is the pass deadline, its
    step/node caps govern each best-effort chase call. *)

val redundancy :
  sigma_file:string ->
  ?schema:Schema.Mschema.t ->
  ?budget:Core.Engine.Budget.t ->
  spanned ->
  Diagnostic.t list
(** [PC300] per removable constraint, [PC301] with the suggested minimal
    cover when it is smaller than Sigma, [PC302] when the budget ran out
    before the analysis finished. *)

val inconsistency :
  sigma_file:string -> schema:Schema.Mschema.t -> spanned -> Diagnostic.t list
(** Over a kind-M schema: [PC400] when Sigma is unsatisfiable over
    [U(Delta)], plus one [PC401] per constraint unsatisfiable on its
    own.  Under M those are the same question: Sigma is unsatisfiable
    iff a member's two sides differ in sort ({!Core.Typed_m.clash}), so
    the pass is one sort check per constraint and builds no closure.
    Constraints walking outside [Paths(Delta)] are left to the vacuity
    pass.  Empty for M+ schemas (satisfiability is not decided there);
    pure path constraints are always satisfiable untyped. *)

val hygiene :
  sigma_file:string ->
  ?schema:Schema.Mschema.t ->
  ?schema_file:string ->
  ?schema_spans:Schema.Schema_parser.spans ->
  spanned ->
  Diagnostic.t list
(** [PC500] duplicate constraints, [PC505] prefix-subsumed constraints
    (a forward constraint obtained from a shorter one with the same
    prefix by appending a common suffix to both paths is entailed by
    right congruence), [PC503] equality-generating ([eps]-conclusion)
    constraints, [PC504] trivially-true constraints, [PC501] labels
    absent from the schema, [PC502] classes unreachable from the db
    type. *)
