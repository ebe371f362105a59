(** The decision router: the one place that picks an implication
    procedure for an instance, slices the shared deadline into per-call
    budgets, and records each decision's provenance.  Only the chase
    route is fronted by the constraint store's syntactic pre-filter.

    {b Route table.}  The paper's Table 1 assigns each (type system,
    fragment) cell a procedure; {!cell} classifies a constraint set and
    {!route_of} maps the cell to a route and to whether that route is
    complete for it ([exact]).

    {b Provenance.}  Every decision a runner makes — a pre-filter hit
    included — counts once in [decision.route{route=...}], observes
    [decision.latency_ns{route=...}], and, with the audit journal on,
    emits one ["decision"] record carrying [route], [prefilter]
    ([hit], [miss] or [skipped]), [verdict], [phi] and [elapsed_ns];
    the budget-governed routes (chase, typed search) add [steps] and
    [peak_nodes].  A runner whose procedure does not apply to the
    instance ([Error]) made no decision and records nothing. *)

(** {2 Route table} *)

(** The table's routes.  Bounded refutation under M+ (Theorem 5.2) is
    not one: it decides no Table 1 cell, and only {!typed_search} runs
    it. *)
type route =
  | Word  (** PTIME prefix rewriting on untyped P_w *)
  | Typed_m  (** the cubic congruence closure under M (Theorem 4.2) *)
  | Chase  (** budgeted chase + bounded enumeration (Theorem 4.1) *)

type cell =
  | Untyped_word  (** untyped; every constraint in P_w, no eps conclusion *)
  | Untyped_word_eps
      (** untyped P_w with an eps conclusion (equality-generating) *)
  | Untyped_general  (** untyped; some constraint outside P_w *)
  | M_typed  (** kind M, every path in [Paths(Delta)] *)
  | M_off_paths of cell
      (** kind M, some path outside [Paths(Delta)]; carries the
          untyped cell of the same set *)
  | M_plus of cell  (** kind M+; carries the untyped cell of the same set *)

type question =
  | Entailment
      (** "is it implied?": only positive verdicts are acted on *)
  | Refutation
      (** "is it provably not implied?": negatives must be definitive *)

val cell : ?schema:Schema.Mschema.t -> Pathlang.Constr.t list -> cell

val route_of : question -> cell -> route * bool
(** The route table: the route for the cell and whether it is [exact]
    (complete for the cell). *)

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
    its subsets.  Each chase call gets the clock's step/node caps and
    what is left of its deadline, clamped to [\[0.01, 1\]] seconds. *)

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
  (bool, Word_untyped.error) result

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
