(** A delta-maintained violation index for the chase: semi-naive
    evaluation of the constraints' bodies over a {!Merge_graph}.

    [first t i] is [Check.first_violation] of constraint [i] on the
    physical graph — the same pair, always — without re-evaluating the
    constraint from the root.  The first query of a constraint seeds
    its min-heap of candidate pairs with one full [Check.violations]
    scan.  After that the index learns of the graph's growth only
    through {!record}: the edges the chase adds and the edges a merge
    moves.  A recorded edge is queued on every constraint whose body
    [alpha.beta] uses its label and is matched, at each body position
    it can fill, when that constraint is next asked: a backward walk
    to the root (or to x) and a forward walk to y find the new body
    matches, and those whose head fails become candidates.  A candidate
    is dropped when it is popped with an absorbed endpoint or a head
    that has come to hold.

    The index is derived state: it is never serialized, and a cold one
    built on a resumed graph answers exactly as a warm one. *)

type t

val create : Merge_graph.t -> Pathlang.Constr.t array -> t
(** An index over the graph for the constraints, compiled once; no
    constraint is scanned until it is first asked. *)

val record : t -> Graph.node -> Pathlang.Label.t -> Graph.node -> unit
(** Report an edge the graph gained: pass it as [Merge_graph.add_path]'s
    and [Merge_graph.union]'s [on_edge].  Every edge the graph gains
    after {!create} must be reported, or later answers may miss a
    violation. *)

val first : t -> int -> (Graph.node * Graph.node) option
(** The least violating pair [(x, y)] of constraint [i], in ascending
    [(x, y)] order: exactly [Check.first_violation (Merge_graph.graph
    g) c].  The pair stays indexed until a later query finds it
    repaired. *)
