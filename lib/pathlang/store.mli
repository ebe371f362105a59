(** A hash-consed, subsumption-ordered constraint store.

    The store holds one constraint set Sigma as path e-classes over a
    trie of hash-consed paths with union-find merging, plus the
    containment arcs the constraints induce.  All queries are
    {e syntactic, cheap and sound-only}: a [true]/[Some _] answer is a
    theorem, a [false]/[None] answer means "not derivable by the cheap
    rules" — the caller falls through to the budgeted chase.  The
    chase route of [Core.Decide] asks {!implies_syntactic} first; the
    exact routes need no pre-filter, since their procedures derive
    everything the store does.

    The store reasons over {e all} semistructured structures with
    membership, reflexivity, per-prefix transitivity, right congruence
    (appending a common suffix to both paths of a forward constraint)
    and mutual-containment collapse.  The typed reading of a
    constraint as a root-anchored endpoint equality (Lemmas 4.7/4.8)
    is [Core.Typed_m]'s closure, not a mode of this store. *)

type t

val of_constraints : Constr.t list -> t
(** Build the store for a constraint set. *)

val mem : t -> Constr.t -> bool
(** Exact (syntactic) membership of a constraint in the set. *)

val subsuming_member :
  Constr.t list -> Constr.t -> (int * Constr.t * Path.t) option
(** [subsuming_member sigma c] is [Some (i, c', delta)] when the forward
    constraint [c'] of [sigma] (0-based input index [i], first such in
    input order) has the same prefix as [c] and appending the non-empty
    suffix [delta] to both of its paths yields [c] — so [c] is entailed
    by right congruence.  [c] itself never subsumes.  This is the
    hygiene (PC505) witness; after ecta's [hasSubsumingMember].  It
    builds no store: [subsuming_member sigma] groups [sigma]'s forward
    constraints by exact prefix once, for every query. *)

val completed_subsumption_ordering : Constr.t list -> (int * Constr.t) list
(** A linear extension of the subsumption order on a constraint list,
    each paired with its 0-based position: every subsumer comes before
    everything it subsumes (sorted by total body length, stable on
    input position, so it is deterministic).  It needs no store.  The
    redundancy pass peels candidates in this order so subsumed
    constraints are considered for removal first.  After ecta's
    [completedSubsumptionOrdering]. *)

val implies_syntactic : t -> Constr.t -> bool
(** Sound pre-filter for entailment: [true] means Sigma entails the
    constraint over all structures; [false] means unknown.  After
    ecta's [constraintsImply]. *)

type stats = {
  paths : int;
  classes : int;
  merges : int;
  arcs : int;
  buckets : int;
  max_bucket : int;
}

val stats : t -> stats
(** [paths] interned nodes, [classes] live e-classes, [merges] unions
    performed while closing, [arcs] containment arcs on live class
    roots, [buckets] per-prefix forward-constraint buckets and
    [max_bucket] the node count of the largest one.  Every build also
    publishes these as [store.*] Obs gauges ([store.paths],
    [store.eclasses], [store.merges], [store.containment_arcs],
    [store.buckets], [store.max_bucket]) describing the most recently
    built store. *)
