(** The signature [sigma(Delta) = (r, E(Delta), T(Delta))] determined by
    a schema (Section 3.2.2), viewed as a graph on types.

    Each sort in [T(Delta)] prescribes the outgoing edges of its nodes:
    atomic types have none, set types have [*]-edges (the distinguished
    set-membership relation) to the member sort, and record types have
    one edge per field label.  A class type behaves as its body
    [nu(C)].  Labels are functional on record sorts ([Mschema.make]
    rejects a record that repeats a field label, at any depth) and sets
    only carry [*], so the graph is deterministic and walking a path
    from [DBtype] visits a unique sequence of sorts: this module
    computes that walk, and with it [Paths(Delta)] and
    [E(Delta)]/[T(Delta)]. *)

val star : Pathlang.Label.t
(** The distinguished set-membership edge label, written [*] (the paper
    writes it as a dedicated binary relation epsilon/star). *)

val expand : Mschema.t -> Mtype.t -> Mtype.t
(** Resolve a class type to its body [nu(C)]; other types unchanged. *)

val out_edges : Mschema.t -> Mtype.t -> (Pathlang.Label.t * Mtype.t) list
(** The labeled edges out of a node of the given sort, per the type
    constraint Phi(Delta).  Empty for atomic sorts. *)

val successor : Mschema.t -> Mtype.t -> Pathlang.Label.t -> Mtype.t option
(** The sort reached from the given sort by one edge label, if the label
    is admissible there. *)

val type_of_path : Mschema.t -> Pathlang.Path.t -> Mtype.t option
(** The sort reached from [DBtype] by walking the path; [None] iff the
    path is not in [Paths(Delta)]. *)

val walk : Mschema.t -> Pathlang.Path.t -> Mtype.t list
(** [walk schema rho]: the sorts of [rho]'s live prefixes, [DBtype]
    (the sort of epsilon) first, one {!successor} step per label until
    a label is not admissible.  So [rho] is in [Paths(Delta)] iff the
    list has [length rho + 1] entries, and then its last entry is
    [type_of_path schema rho]. *)

val in_paths : Mschema.t -> Pathlang.Path.t -> bool
(** Membership in [Paths(Delta)]: some structure in [U(Delta)] realizes
    the path from the root.  (For M this is exactly reachability in the
    schema graph; for M+ too, since sets may always be made non-empty.) *)

val check_constraint_paths :
  Mschema.t -> Pathlang.Constr.t -> (unit, Pathlang.Path.t) result
(** Checks that [prefix], [prefix.lhs] and [prefix.rhs] are all in
    [Paths(Delta)] (the paper's standing assumption on constraints over
    a schema); returns the first offending path. *)

val sorts : Mschema.t -> Mtype.t list
(** [T(Delta)]: all sorts reachable from [DBtype] (including it). *)

val labels : ?sorts:Mtype.t list -> Mschema.t -> Pathlang.Label.Set.t
(** [E(Delta)]: all edge labels of reachable sorts.  [sorts] is
    {!sorts}[ schema] when the caller already holds it. *)

val automaton : Mschema.t -> Automata.Nfa.t * Mtype.t array * Automata.Nfa.state
(** The schema graph as a finite automaton over sorts: states are the
    members of [T(Delta)] (the returned array maps state to sort), the
    transitions are the edges of [sigma(Delta)], all states are final,
    and the returned start state is [DBtype].  The words accepted from
    the start state are exactly [Paths(Delta)]. *)

val paths_up_to : Mschema.t -> int -> Pathlang.Path.t list
(** All members of [Paths(Delta)] of length at most the bound (for
    tests and generators). *)
