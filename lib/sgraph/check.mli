(** Model checking P_c constraints over finite graphs: the satisfaction
    relation [G |= phi] of Section 2.2.  All three checks run one scan
    of the violating pairs in ascending order. *)

val holds : Graph.t -> Pathlang.Constr.t -> bool
(** [holds g phi] decides [G |= phi] directly from Definition 2.1: for
    every [x] with [alpha(r, x)] and every [y] with [beta(x, y)], check
    [gamma(x, y)] (forward) or [gamma(y, x)] (backward). *)

val holds_all : Graph.t -> Pathlang.Constr.t list -> bool

val violations :
  Graph.t -> Pathlang.Constr.t -> (Graph.node * Graph.node) list
(** The witness pairs [(x, y)] at which the constraint fails, in
    descending order; empty iff the constraint holds. *)

val first_violation :
  Graph.t -> Pathlang.Constr.t -> (Graph.node * Graph.node) option
(** The ascending-order-first witness pair, short-circuiting as soon as
    one is found.  This is the chase's repair-selection rule: the
    reference chase calls it, and {!Violations.first} answers the same
    pair from its index, so the two engines' repair sequences
    coincide. *)
