(** The constraint-interaction analyzer: the PC7xx family.

    A whole-constraint-set static analysis of how the constraints of
    Sigma interact — with each other and with the schema's type
    constraints — driven through {!Core.Typed_m} and the decision router
    {!Core.Decide}:

    - [PC700] (error): the member of a {e minimal unsatisfiable core}
      of Sigma over a kind-M schema.  Under kind M every core is a
      singleton, one constraint whose two sides differ in sort
      ({!Core.Typed_m.clash}, DESIGN.md §13); the core reported is the
      last such member in input order, the one deletion-based
      minimization keeps.  Sigma may contain further independent cores,
      surfaced once this one is fixed.
    - [PC701] (warning): a constraint entailed by the rest of Sigma,
      with a {e minimal witnessing antecedent subset} — the incoming
      edges of the constraint in the implication DAG.
    - [PC702] (info): interaction provenance — the entailment holds
      over [U(Delta)] but provably fails on untyped data, so it exists
      only through the type constraints; names the class declarations
      along the minimal witness's walked paths.  The converse flip is
      impossible (untyped implication is contained in typed
      implication, and path-constraint sets are always satisfiable
      untyped), which is why the diagnostic is one-directional.
    - [PC703] (hint): the wall-clock budget struck before all checks
      finished.

    The pass is {e off by default}: it runs under [pathctl lint
    --interact], [pathctl interact], or [[passes] interact = true]. *)

val unsat_core :
  schema:Schema.Mschema.t -> Pathlang.Constr.t list -> int list option
(** [Some indices] when Sigma is unsatisfiable over the kind-M schema:
    the 0-based indices of a minimal unsatisfiable core, the last member
    that {!Core.Typed_m.clash}es, alone.  It is one sort check per
    constraint.  [None] when Sigma is satisfiable, the schema is not of
    kind M, or some constraint walks outside [Paths(Delta)].  Exposed
    for the bench's core-extraction cell and the minimality property
    tests. *)

val pass :
  sigma_file:string ->
  ?schema:Schema.Mschema.t ->
  ?budget:Core.Engine.Budget.t ->
  ?explain:bool ->
  Passes.spanned ->
  Diagnostic.t list
(** Run the analyzer; [explain] (default false) appends antecedent
    constraint texts, Lemma 4.7/4.8 equality readings, and the sort
    clash behind a core to the messages. *)
