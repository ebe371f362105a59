(** The decision router: the one place that maps a constraint set to
    its cell of the paper's Table 1, picks an implication procedure for
    it, slices the shared deadline into per-call budgets, and records
    each decision's provenance.  Only the chase route is fronted by the
    constraint store's syntactic pre-filter.

    {b Table 1.}  {!cell} classifies a constraint set (and a goal) into
    one row: its fragment and model, whether implication is decidable
    there and by which theorem, the procedure that decides it, and the
    route {!plan} runs.  Lint's PC100 renders the row; {!plan} routes on
    it.

    {b Provenance.}  Every decision a runner makes — a pre-filter hit
    included — counts once in [decision.route{route=...}], observes
    [decision.latency_ns{route=...}], and, with the audit journal on,
    emits one ["decision"] record carrying [route], [prefilter]
    ([hit], [miss] or [skipped]), [verdict], [phi] and [elapsed_ns];
    the budget-governed routes (chase, typed search) add [steps] and
    [peak_nodes].  A runner whose procedure does not apply to the
    instance ([Error]) made no decision and records nothing. *)

(** {2 Table 1} *)

(** The routes.  Bounded refutation under M+ (Theorem 5.2) is not one:
    it decides no Table 1 cell, and only {!typed_search} runs it. *)
type route =
  | Word  (** PTIME prefix rewriting on untyped P_w *)
  | Typed_m  (** the cubic congruence closure under M (Theorem 4.2) *)
  | Chase  (** budgeted chase + bounded enumeration (Theorem 4.1) *)

type fragment =
  | P_w  (** every constraint in P_w (Definition 2.2), no eps conclusion *)
  | P_w_eps
      (** P_w with an eps conclusion (an equality-generating constraint) *)
  | Prefix_bounded of Pathlang.Path.t * Pathlang.Label.t
      (** prefix bounded by [(alpha, K)] (Definition 2.3) *)
  | P_w_rho of Pathlang.Path.t
      (** [P_w(rho)]: word constraints plus [rho]-prefixed word
          constraints, not satisfying the Definition 2.3 side
          conditions; [P_w(K)] when [rho] is a single label *)
  | P_c  (** none of the above: all of P_c *)

type model =
  | Untyped
  | M  (** kind M, every path in [Paths(Delta)] *)
  | M_off_paths  (** kind M, some path outside [Paths(Delta)] *)
  | M_plus

type procedure =
  | Ptime_word  (** Abiteboul–Vianu, [pathctl implies] *)
  | Ptime_local  (** Theorem 5.1, [pathctl implies-local] *)
  | Cubic_m  (** Theorem 4.2, [pathctl implies-typed] *)
  | Semidecision  (** budgeted chase, [pathctl chase] *)
  | Bounded_refutation  (** bounded countermodel search under M+ *)

type cell = {
  fragment : fragment;
  model : model;
  decidable : bool;
  provenance : string;  (** the theorem establishing [decidable] *)
  procedure : procedure;
      (** the procedure that decides the row, as PC100 names it: the
          route's own, except on the prefix-bounded untyped row (the
          local-extent procedure, which no route runs) and under M+
          (bounded refutation) *)
  route : route;  (** what {!plan} runs on the row *)
  exact : bool;
      (** [procedure] is complete for the row: its "no" is a refutation.
          The decidable rows that are not exact: an eps conclusion (in
          untyped P_w or a prefix-bounded set), and M off
          [Paths(Delta)], where [procedure] is the untyped route's. *)
}

type question =
  | Entailment
      (** "is it implied?": only positive verdicts are acted on *)
  | Refutation
      (** "is it provably not implied?": negatives must be definitive;
          sends the eps row to the chase *)

val cell :
  ?schema:Schema.Mschema.t ->
  ?phi:Pathlang.Constr.t ->
  Pathlang.Constr.t list ->
  cell
(** The row of [Sigma] (and [phi] when given) for [Entailment].  Outside
    P_w it searches for a Definition 2.3 bound
    ({!Pathlang.Bounded.find_bound}) before the [P_w(rho)] shapes, so a
    prefix-bounded set lands in the decidable row.  {!plan} routes
    without that search: outside P_w every untyped row's route is the
    chase. *)

val how : route -> string
(** The route's human-readable name, as diagnostics print it. *)

(** {2 Budget slicing} *)

type clock
(** One deadline and cancellation token, started from a budget and
    shared by every decision of a pass. *)

val clock : Engine.Budget.t -> clock
val expired : clock -> bool

(** {2 Planned decisions} *)

type t

val plan :
  ?schema:Schema.Mschema.t ->
  ?question:question ->
  clock ->
  Pathlang.Constr.t list ->
  t
(** Route a constraint set [Sigma] through the table ([question]
    defaults to [Entailment]) and compile it once for questions about
    its subsets.  The plan reads the route and [exact] of [Sigma]'s row
    without {!cell}'s prefix-bound search (outside P_w the untyped
    route is the chase whatever the bound), so its [exact] is the
    route's.  Each chase call gets the clock's step/node caps and what
    is left of its deadline, clamped to [\[0.01, 1\]] seconds. *)

val route : t -> route
val exact : t -> bool

val decide : t -> keep:int list -> Pathlang.Constr.t -> bool option
(** [decide t ~keep phi] asks [S |= phi] for the [S] made of the members
    of the plan's [Sigma] at the 0-based positions [keep] (in any
    order): [Some true] implied, [Some false] not implied (on a plan
    that is not {!exact}, only "the route found no derivation"), [None]
    when the procedure could not tell (budget, or it does not apply to
    [phi]).  [phi] should lie in the plan's cell, as a member of [Sigma]
    does.  Raises [Invalid_argument] on a position outside [Sigma].

    The typed-M route answers from one {!Typed_m.subsets} context built
    at the first question, the word route from one
    {!Word_untyped.subsets} context: [Sigma] itself and [Sigma] minus
    one position read one bit of a masked saturation, other keep-sets
    run {!Word_untyped.implies} on the kept sublist.  Neither consults the store pre-filter, which
    could not change their verdicts: each store inference is a rule of
    the route's own calculus.  Their records say [prefilter:"skipped"].
    The chase route runs {!chase} on the kept sublist, pre-filter
    included. *)

(** {2 Route runners}

    Each runs one procedure and records the decision.  Only {!chase}
    consults the pre-filter; the others record [prefilter:"skipped"]. *)

val word :
  sigma:Pathlang.Constr.t list ->
  Pathlang.Constr.t ->
  (bool option, Word_untyped.error) result
(** The word route on [Sigma |= phi]: [Some b] answers it; [None] is "no
    derivation" on a row where the word rules are incomplete (an eps
    conclusion in [Sigma ∪ {phi}], so the row is not [exact]), and the
    record's verdict is ["unknown"]. *)

val typed_m :
  Schema.Mschema.t ->
  sigma:Pathlang.Constr.t list ->
  Pathlang.Constr.t ->
  (Typed_m.outcome, string) result

val typed_search :
  ?ctl:Engine.t ->
  ?pool:Par.t ->
  ?bounds:Typed_search.bounds ->
  Schema.Mschema.t ->
  sigma:Pathlang.Constr.t list ->
  Pathlang.Constr.t ->
  (Schema.Typecheck.t option, string) result

val chase :
  ?ctl:Engine.t ->
  ?pool:Par.t ->
  ?enum_nodes:int ->
  ?park:(Chase.Snapshot.t -> unit) ->
  ?resume:Chase.Snapshot.t ->
  sigma:Pathlang.Constr.t list ->
  Pathlang.Constr.t ->
  Verdict.t
(** The chase route, {!Semidecide.implies}: the store pre-filter
    (skipped when [park] or [resume] is given), then the chase, then
    bounded enumeration; the record's route is ["store-prefilter"],
    ["chase"] or ["enum"] after whichever settled it. *)

val chase_escalating :
  ?base_steps:int ->
  ?base_nodes:int ->
  ?factor:int ->
  ?max_rounds:int ->
  ?timeout:float ->
  ?cancel:Engine.Cancel.t ->
  ?pool:Par.t ->
  ?enum_nodes:int ->
  sigma:Pathlang.Constr.t list ->
  Pathlang.Constr.t ->
  Verdict.t
(** {!chase} under {!Engine.escalate}; {!Semidecide.implies_escalating}. *)
