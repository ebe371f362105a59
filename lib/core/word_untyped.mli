(** Implication of word constraints on semistructured (untyped) data.

    [Abiteboul-Vianu 97] (the paper's reference [4]) proved that the
    implication and finite implication problems for P_w are decidable in
    PTIME, and that the three inference rules
    {ul
    {- reflexivity: [|- alpha -> alpha],}
    {- transitivity: from [alpha -> beta] and [beta -> gamma] infer
       [alpha -> gamma],}
    {- right-congruence: from [alpha -> beta] infer
       [alpha.gamma -> beta.gamma]}}
    are sound and complete for it (the paper restates this below its
    I_r system, Section 4.2).  Derivability under these rules is
    precisely prefix-rewriting reachability — [Sigma |- alpha -> beta]
    iff [beta] is obtained from [alpha] by repeatedly replacing a prefix
    [alpha_i] by [beta_i] for rules [alpha_i -> beta_i] in [Sigma] —
    which this module decides in polynomial time through the pushdown
    encoding of {!Automata.Prefix_rewrite}.

    Implication and finite implication coincide for P_w, so there is a
    single entry point.

    {b Scope of completeness.}  Derivability under the three rules is
    always {e sound} for implication.  It is complete for the fragment
    where no constraint has the {e empty path as its right-hand side}:
    an [alpha -> eps] constraint asserts that every [alpha]-endpoint
    {e equals the root} — an equality-generating dependency — and such
    constraints can interact in ways the rewriting rules cannot see.
    Concretely, [{a -> eps; a.c -> eps}] semantically implies
    [a.c.c -> c.a.c] (in any model containing an [a.c.c] path, the [a]
    edge loops at the root, so every [c]-successor of the root is
    forced back to the root), but no prefix-rewriting derivation exists
    — a gap this library's own chase/decision cross-validation test
    discovered.  The budgeted {!Chase} handles the general
    (EGD-including) semantics soundly; use it when [eps] right-hand
    sides are present.  All of the paper's word-constraint examples are
    [eps]-free.

    {!implies} answers derivability, so it says [false] there too.
    {!Decide.word}, which [pathctl implies] and [pathctl compare] run,
    reads the row of [Sigma ∪ {phi}] in Table 1 and turns such a
    [false] into "unknown", with {!no_derivation} as the reason. *)

type error = Not_word_constraint of Pathlang.Constr.t

val no_derivation : string
(** Why a "no" is not a refutation when [Sigma ∪ {phi}] has an [eps]
    conclusion, in one line. *)

val check_word : Pathlang.Constr.t list -> (unit, error) result

val implies :
  sigma:Pathlang.Constr.t list ->
  Pathlang.Constr.t ->
  (bool, error) result
(** [implies ~sigma phi] decides [Sigma |= phi] (equivalently
    [Sigma |=_f phi]) for word constraints.  It keeps the {!context} of
    the last [Sigma] it saw (one per domain, see {!Memo}): a run of
    goals against one [Sigma] builds the context once, and each goal
    costs one goal phase of pre* and one walk. *)

(** {2 Decision contexts} *)

type context
(** The part of the decision that depends on [Sigma] alone
    ({!Automata.Prefix_rewrite.context}). *)

val context : sigma:Pathlang.Constr.t list -> (context, error) result
(** Builds a context, always (span [word.instance], counter
    [word.systems_compiled]); {!implies} reuses one. *)

val implies_in : context -> Pathlang.Constr.t -> (bool, error) result
(** [implies_in ctx phi] is [implies ~sigma phi] for the [Sigma] of
    [ctx]. *)

(** {2 Subset contexts}

    Leave-one-out analyses ask "[S |= phi]" for many subsets [S] of one
    [Sigma], most of them [Sigma] itself or [Sigma] minus one position.
    A subset context answers all of those from masked saturations
    ({!Automata.Prefix_rewrite.context} with variants): with blocks of
    {!Automata.Prefix_rewrite.max_variants} = 62 positions, block [b]
    saturates [Sigma] once for the 62 keep-sets that leave out one of
    the positions [62b .. 62b + 61], plus the whole of [Sigma].  A block
    is built at its first question (span [word.instance], counter
    [word.systems_compiled]), so a file of up to 62 constraints costs
    one saturation for all its leave-one-out questions.  Each question
    still runs its own goal phase (span [saturation.pre_star]). *)

type subsets

val subsets : sigma:Pathlang.Constr.t list -> subsets
(** Builds no block yet: each is built at its first question. *)

val implies_subset :
  subsets -> keep:int list -> Pathlang.Constr.t -> (bool, error) result
(** [implies_subset ss ~keep phi] is [implies ~sigma:s phi] for the [s]
    made of the members of [Sigma] at the 0-based positions [keep] (in
    any order; a repeated position changes nothing), with the same
    [Error]s.  Keeping all of [Sigma] reads the whole-list bit of a
    block and keeping all but one position reads that position's bit;
    any other keep-set runs {!implies} on the kept members (its own
    context).
    @raise Invalid_argument on a position outside [Sigma]. *)

val implies_exn : sigma:Pathlang.Constr.t list -> Pathlang.Constr.t -> bool

val derivation :
  ?max_frontier:int ->
  sigma:Pathlang.Constr.t list ->
  Pathlang.Constr.t ->
  ((Axioms.t, string) result, error) result
(** When [implies ~sigma phi] holds, extract an explicit derivation in
    the three complete rules (reflexivity / transitivity /
    right-congruence, each step an {!Axioms.t} node), making the
    completeness theorem of [4] executable: the certificate re-checks
    with {!Axioms.check}.  The search walks a shortest rewriting
    sequence, pruning words that stop being on a derivation path
    (pre* of [{beta}] is saturated once and each prune test is one walk
    of it, so extraction is polynomial per step); [max_frontier] caps
    the breadth (default 4096).  Outer [Error]: some input is not a word constraint.  Inner [Error]: [phi]
    is not implied, or the frontier cap was hit. *)

val implies_via_post :
  sigma:Pathlang.Constr.t list -> Pathlang.Constr.t -> (bool, error) result
(** Same question decided with the dual post* saturation over a freshly
    compiled system — an independent implementation used for
    cross-validation and the ablation bench. *)

val consequences_sample :
  sigma:Pathlang.Constr.t list ->
  from:Pathlang.Path.t ->
  max_steps:int ->
  Pathlang.Path.t list
(** A breadth-first sample of paths derivably implied from [from]
    (a finite slice of the rewriting closure): useful for examples and query
    rewriting demos. *)
