(** Prefix rewriting on paths.

    A system is a finite set of rules [u => v] over paths; one rewriting
    step replaces a prefix: [u . sigma  =>  v . sigma].  Derivability
    [beta in post*(alpha)] is exactly provability of the word constraint
    [alpha => beta] from the rules under the three inference rules of
    [Abiteboul-Vianu 97] (reflexivity, transitivity, right-congruence),
    which [4] proved complete for word constraint implication on
    semistructured data — see [Core.Word_untyped].

    Decidability in PTIME comes from encoding the system as a
    single-control-state pushdown system (with a bottom-of-stack marker
    and per-rule chain states for long left-hand sides) and running
    pre* saturation: {!derives} runs the whole of {!Saturation.pre_star}
    per query (the reference), {!derives_in} splits it into a
    per-system {!context} and a per-goal {!target}. *)

type rule = { lhs : Pathlang.Path.t; rhs : Pathlang.Path.t }

type system

val compile : alphabet:Pathlang.Label.t list -> rule list -> system
(** [compile ~alphabet rules] prepares the system.  [alphabet] must
    cover every label of every rule (and of every later query); the
    function extends it automatically with the labels appearing in the
    rules, so only query-only labels truly need to be passed.
    Empty left-hand sides are allowed. *)

val alphabet : system -> Pathlang.Label.t list
(** The full alphabet the system was compiled for (without the internal
    bottom marker). *)

val rules : system -> rule list

val derives : system -> Pathlang.Path.t -> Pathlang.Path.t -> bool
(** [derives s alpha beta] decides [beta in post*(alpha)] via pre*
    saturation.
    @raise Invalid_argument if a query path uses a label outside the
    compiled alphabet. *)

val derives_via_post : system -> Pathlang.Path.t -> Pathlang.Path.t -> bool
(** Same answer computed with the dual post* saturation; kept as an
    independent implementation for cross-validation and ablation. *)

val derives_bfs :
  ?max_configs:int ->
  ?max_len:int ->
  system ->
  Pathlang.Path.t ->
  Pathlang.Path.t ->
  bool option
(** Brute-force oracle: BFS over the rewriting graph.  [Some b] is a
    definitive answer, [None] means the budget ran out. *)

val one_step : rule list -> Pathlang.Path.t -> Pathlang.Path.t list
(** All paths reachable in exactly one rewriting step. *)

(** {2 Decision contexts}

    [derives] saturates pre* over the whole P-automaton for every query.
    Most of that work depends on the rules alone: the automaton for a
    goal [beta] is the control states plus a chain reading
    [beta . bottom], and the chain has no edges back into the control
    states, so the control-to-control transitions never read it.  A
    context saturates them once; a {!target} adds only the
    control-to-chain transitions of one [beta], by a worklist over an
    index of where each rule's push word can cross into the chain.
    Contexts need no alphabet: goals may use any labels. *)

type context

val context : rule list -> context
(** The goal-independent half of pre*: the control-to-control
    saturation and the crossing index.  Empty left-hand sides are
    allowed; each is one rule on any top symbol. *)

val context_rules : context -> rule list

type target
(** pre*({beta}) for one [beta], relative to a context. *)

val target : context -> Pathlang.Path.t -> target
(** The goal phase (span [saturation.pre_star]). *)

val accepts : target -> Pathlang.Path.t -> bool
(** [accepts (target ctx beta) alpha] decides [beta in post*(alpha)]:
    one walk over [alpha]. *)

val derives_in : context -> Pathlang.Path.t -> Pathlang.Path.t -> bool
(** [derives_in ctx alpha beta = accepts (target ctx beta) alpha]; the
    same answer as {!derives} on a system compiled from the same
    rules. *)
