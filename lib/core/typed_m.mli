(** Implication of P_c constraints in the object-oriented model M:
    Theorems 4.2 and 4.9.

    In M every structure of [U(Delta)] is label-deterministic and
    complete (Lemma 4.6: each path in [Paths(Delta)] reaches exactly one
    node), so a P_c constraint degenerates into an equality between the
    endpoints of two root-anchored paths (Lemmas 4.7 and 4.8):

    - forward [(alpha, beta, gamma)] holds iff the word constraint
      [alpha.beta -> alpha.gamma] does, iff the nodes reached by
      [alpha.beta] and [alpha.gamma] coincide;
    - backward [(alpha, beta, gamma)] holds iff
      [alpha -> alpha.beta.gamma] does.

    Implication is therefore a congruence-closure problem on the
    prefix-closed set of mentioned paths, typed by the schema graph:
    union-find with successor propagation (each constraint is applied
    exactly once, the property the paper credits for the cubic bound;
    with union-find the procedure is in fact near-linear).  Implication
    and finite implication coincide.

    A positive answer carries an I_r derivation ({!Axioms.t}) — the
    finite axiomatizability half of Theorem 4.9 — and a negative answer
    carries a finite countermodel in [U_f(Delta)]. *)

type outcome =
  | Implied of Axioms.t
      (** with an I_r derivation of [phi] from [Sigma] *)
  | Not_implied of Schema.Typecheck.t
      (** a finite abstract database satisfying
          [Phi(Delta) /\ Sigma /\ not phi]: a fresh graph and typing
          that the caller owns and may change.  Its node numbers are
          not part of the contract, and it may hold generic nodes that
          the root does not reach. *)
  | Vacuous of string
      (** [Sigma] forces two paths of different sorts to meet, so no
          structure in [U(Delta)] satisfies it and the implication holds
          vacuously.  The string explains the sort clash.  (The paper
          implicitly assumes satisfiable [Sigma]; I_r derives nothing
          from an inconsistency, so this case is reported separately —
          see DESIGN.md.) *)

val to_word_equality : Pathlang.Constr.t -> Pathlang.Path.t * Pathlang.Path.t
(** The Lemma 4.7/4.8 translation: the pair of root-anchored paths whose
    endpoint equality is equivalent to the constraint over [U(Delta)]. *)

val clash :
  Schema.Mschema.t ->
  Pathlang.Constr.t ->
  (Pathlang.Path.t * Pathlang.Path.t) option
(** [clash schema c] is [Some (p, q)], the pair {!to_word_equality}
    gives, when [p] and [q] have different sorts: [c] is unsatisfiable
    over [U(Delta)] on its own.  [None] when the sorts agree (or a side
    is outside [Paths(Delta)], which validation reports).  Under M every
    class of the congruence closure has one sort, so a [Sigma] is
    unsatisfiable iff one of its members clashes (DESIGN.md §13): this
    is the whole satisfiability check of this module. *)

val decide :
  Schema.Mschema.t ->
  sigma:Pathlang.Constr.t list ->
  phi:Pathlang.Constr.t ->
  (outcome, string) result
(** [Error] when the schema is not of kind M, or some constraint
    mentions a path outside [Paths(Delta)] (the offending path is
    named).  [decide] keeps the {!context} of the last (schema, [Sigma])
    it saw (one per domain, see {!Memo}), as do {!implies},
    {!equivalence_classes} and {!canonical_model}: a run of goals
    against one [Sigma] closes it once. *)

(** {2 Decision contexts} *)

type context
(** The closed congruence state of [Sigma] over a schema, or its sort
    clash, or the validation error.  A goal's paths extend it without
    merging any two of its classes: a new node [p.l] joins the
    [l]-successor of [p]'s class or starts a class of its own.  A goal
    whose paths are all there reads it and copies nothing.

    A closed context also keeps the canonical model of [Sigma] (its
    {e base}), built on the first goal that needs a model (span
    [typed_m.countermodel]); {!satisfiable} and subset questions never
    build it.  A refuted goal's countermodel is a copy of the base plus
    one node per class the goal's paths add, with their out-edges; a
    base class's edge that led to a generic node where a new class now
    stands is moved to that class.  The base itself is never handed
    out.

    A context may be used from several domains at once: the closed
    state is only read, and two domains that build the base together
    both keep the first one stored.  The memo behind {!decide} holds one
    context per domain. *)

val context : Schema.Mschema.t -> sigma:Pathlang.Constr.t list -> context
(** Builds a context, always; {!decide} reuses one.  A [Sigma] with a
    {!clash} keeps the first clashing member's pair (in input order) as
    its [Vacuous] message and closes nothing; any other valid [Sigma] is
    closed (span [typed_m.closure]). *)

val decide_in : context -> phi:Pathlang.Constr.t -> (outcome, string) result
(** [decide_in ctx ~phi] is [decide schema ~sigma ~phi] for the schema
    and [Sigma] of [ctx]. *)

(** {2 Subset contexts}

    Leave-one-out analyses ask "[S |= phi]" for many subsets [S] of one
    [Sigma].  A subset context validates [Sigma], records which inputs
    {!clash}, and materializes the prefix closure, sorts and successor
    maps of all its paths once (span [typed_m.closure]).  A question
    keeping a clashing input answers [Unsatisfiable] at once; any other
    copies the unmerged union-find, closes it under the kept inputs only
    and extends it with [phi]'s paths.  It builds no certificate and no
    countermodel. *)

type subsets

val subsets : Schema.Mschema.t -> sigma:Pathlang.Constr.t list -> subsets

type answer =
  | Entailed  (** [decide] would answer [Implied _] *)
  | Not_entailed  (** [decide] would answer [Not_implied _] *)
  | Unsatisfiable
      (** a kept input {!clash}es: [decide]'s [Vacuous _] *)

val implies_subset :
  subsets -> keep:int list -> phi:Pathlang.Constr.t -> (answer, string) result
(** [implies_subset ss ~keep ~phi] answers [decide schema ~sigma:s ~phi]
    for the [s] made of the members of [Sigma] at the 0-based positions
    [keep] (in any order; a repeated position changes nothing), with the
    same [Error]s.  Raises [Invalid_argument] on a position outside
    [Sigma]. *)

val implies :
  Schema.Mschema.t ->
  sigma:Pathlang.Constr.t list ->
  phi:Pathlang.Constr.t ->
  (bool, string) result
(** [Implied _] and [Vacuous _] count as [true]. *)

val satisfiable :
  Schema.Mschema.t -> sigma:Pathlang.Constr.t list -> (bool, string) result
(** Whether some structure of [U(Delta)] satisfies [Sigma]: false
    exactly when a member {!clash}es (the [Vacuous] case), with the
    same [Error]s as {!decide}.  It validates [Sigma] and looks up two
    sorts per member; it builds no closure and no context.  A positive
    answer is witnessed by a finite model, the {!canonical_model}
    (tested), so satisfiability and finite satisfiability coincide. *)

val equivalence_classes :
  Schema.Mschema.t ->
  sigma:Pathlang.Constr.t list ->
  max_len:int ->
  (Pathlang.Path.t list list, string) result
(** The consequence closure made visible: all paths of [Paths(Delta)]
    up to the length bound, grouped into classes that [Sigma] forces to
    reach the same node in every structure of [U(Delta)].  Two paths
    are in the same class iff the word constraint between them is
    implied (in both directions — implication over M is symmetric).
    [Error] on an unsatisfiable [Sigma] or non-M schema. *)

val canonical_model :
  Schema.Mschema.t ->
  sigma:Pathlang.Constr.t list ->
  (Schema.Typecheck.t, string) result
(** A finite structure in [U_f(Delta)] satisfying [Sigma] that is
    {e free}: it satisfies exactly the implied constraints among those
    whose paths it materializes (it is the countermodel construction
    with no goal).  It is a copy of the context's base model, which the
    caller owns.  [Error] when [Sigma] is unsatisfiable over the
    schema. *)

val random_constraints :
  rng:Random.State.t ->
  schema:Schema.Mschema.t ->
  count:int ->
  max_len:int ->
  Pathlang.Constr.t list
(** Random well-formed P_c constraints over [Paths(Delta)] (a mix of
    word, forward and backward constraints whose two sides end at the
    same sort, so they are individually satisfiable); used by benches
    and property tests. *)
