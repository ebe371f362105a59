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
    pre* saturation, split into a per-system {!context} and a per-goal
    {!target} ({!derives_in}).  The compiled {!system} serves the dual
    post* ({!derives_via_post}) and the reference engines of the test
    oracle. *)

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

val pds : system -> Pds.t
(** The pushdown system: control state 0 is the single rewriting
    state, the others are chain states of long left-hand sides. *)

val configuration :
  system -> Pathlang.Path.t -> Pds.state * Pathlang.Label.t list
(** [configuration s rho] is [<0, rho . bottom>], the configuration that
    stands for the path [rho].
    @raise Invalid_argument if [rho] uses a label outside the compiled
    alphabet. *)

val derives_via_post : system -> Pathlang.Path.t -> Pathlang.Path.t -> bool
(** [derives_via_post s alpha beta] decides [beta in post*(alpha)] with
    the post* saturation of the compiled system: an implementation
    independent of the contexts below, kept for cross-validation and
    ablation.
    @raise Invalid_argument if a query path uses a label outside the
    compiled alphabet. *)

val one_step : rule list -> Pathlang.Path.t -> Pathlang.Path.t list
(** All paths reachable in exactly one rewriting step. *)

(** {2 Decision contexts}

    Most of pre* depends on the rules alone: the automaton for a goal
    [beta] is the control states plus a chain reading [beta . bottom],
    and the chain has no edges back into the control states, so the
    control-to-control transitions never read it.  A context saturates
    them once; a {!target} adds only the control-to-chain transitions
    of one [beta], by a worklist over an index of where each rule's
    push word can cross into the chain.  Contexts need no alphabet:
    goals may use any labels.

    {b Variants.}  One context can saturate several rule sets at once.
    Variant [v] is the set of rules whose 0-based positions its
    predicate accepts; bit [v] of an int mask stands for it, and the bit
    after the last variant for the whole list.  Every summary
    transition and every crossing read carries such a mask: a rule's
    reads start with the bits of the sets that keep it, a step ANDs the
    mask of the transition it reads, and an entry derived again ORs the
    new bits into its mask.  Masks only grow, so the fixpoint stops
    after at most one growth per bit of each entry, and each bit is
    exactly the saturation of its own rule set.  One native int holds
    {!max_variants} variants plus the whole list.  Without variants the
    context is the plain one (a single bit). *)

type context

val max_variants : int
(** [Sys.int_size - 1], 62 on 64-bit hosts: one bit per variant and
    one for the whole list, in a native int. *)

val context : ?variants:(int -> bool) list -> rule list -> context
(** The goal-independent half of pre*: the control-to-control
    saturation and the crossing index, for the whole list and for each
    variant ([variants] defaults to none).  Empty left-hand sides are
    allowed; each is one rule on any top symbol.
    @raise Invalid_argument on more than {!max_variants} variants. *)

val context_rules : context -> rule list

type target
(** pre*({beta}) for one [beta] and one rule set, relative to a
    context. *)

val target : ?variant:int -> context -> Pathlang.Path.t -> target
(** The goal phase (span [saturation.pre_star]) for variant [variant]
    (0-based, in the order given to {!context}), or for the whole list
    when [variant] is absent.  It follows only the reads whose mask
    holds the variant's bit.
    @raise Invalid_argument on a variant the context does not have. *)

val accepts : target -> Pathlang.Path.t -> bool
(** [accepts (target ctx beta) alpha] decides [beta in post*(alpha)]
    under the target's rule set: one walk over [alpha] that steps only
    over summary transitions holding its bit. *)

val derives_in :
  ?variant:int -> context -> Pathlang.Path.t -> Pathlang.Path.t -> bool
(** [derives_in ?variant ctx alpha beta = accepts (target ?variant ctx
    beta) alpha]: the answer of a context built from the variant's rules
    alone, or from the whole list. *)
