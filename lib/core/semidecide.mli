(** Sound, budgeted semi-decision of P_c implication on semistructured
    data, governed by {!Engine}.

    The implication and finite implication problems for P_c (already for
    the fragment P_w(K)) are undecidable on untyped data (Theorems 4.1
    and 4.3), so the best possible general procedure combines
    semi-procedures for both answers:
    - the chase ({!Chase.implies}) derives positive answers and, on
      reaching a fixpoint, finite countermodels;
    - bounded exhaustive model search ({!Sgraph.Enumerate}) recovers
      small countermodels the chase misses when it diverges.

    Positive answers are sound for implication and finite implication
    alike; [Refuted] answers are finite models, i.e. sound for both as
    well.

    Both phases run under one controller: the chase consumes the
    step/node budget, and the enumeration fallback — which has its own
    size discipline — still honors the controller's deadline and
    cancellation token.  When the label alphabet forces the enumeration
    cap down (the search cost is [2^(L*n^2)]), the clamp is recorded in
    the exhaustion diagnostics and logged, never applied invisibly.

    Both entry points are the chase route of the decision router
    ({!Decide.chase}, {!Decide.chase_escalating}), so every call records
    its decision there. *)

val implies :
  ?ctl:Engine.t ->
  ?pool:Par.t ->
  ?enum_nodes:int ->
  ?park:(Chase.Snapshot.t -> unit) ->
  ?resume:Chase.Snapshot.t ->
  sigma:Pathlang.Constr.t list ->
  Pathlang.Constr.t ->
  Verdict.t
(** [ctl] defaults to a fresh [Engine.default ()].  [enum_nodes] caps
    the exhaustive search (default 3; clamped to 2 when more than 2
    labels are in play — reported via diagnostics).  Set it to 0 to
    disable enumeration.

    [?pool] fans the enumeration fallback out across a [Par] pool
    (chunked mask space, least-mask witness): verdicts are byte-
    identical to the sequential search's.  The chase itself is
    inherently sequential (each repair feeds the next) and ignores the
    pool.

    [park]/[resume] are forwarded to {!Chase.implies}.  A chase that
    ends in [Unknown {reason = Crashed}] (an injected crash that parked
    a snapshot) skips the enumeration fallback: the right follow-up is
    resuming the parked chase, not a fresh bounded search.

    Before the chase runs, the hash-consed constraint store's syntactic
    pre-filter ({!Pathlang.Store.implies_syntactic}) is consulted; a hit
    returns [Implied] without consuming any budget (counted as
    [semidecide.prefilter_hits], timed by the span [decide.prefilter]).  The pre-filter is skipped whenever
    [park] or [resume] is supplied, so crash-injection and resumption
    always exercise the real chase. *)

val implies_escalating :
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
(** {!implies} under {!Engine.escalate}: retry with geometrically
    growing step/node budgets (all rounds sharing one deadline and
    cancellation token) instead of one fixed shot — turning many fixed
    budget [Unknown]s into verdicts without risking divergence. *)
