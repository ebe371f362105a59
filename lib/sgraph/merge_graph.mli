(** A {!Graph} with union-find node identity, for in-place chasing.

    The chase's EGD repairs identify nodes.  Rebuilding and renumbering
    the graph per merge (the historical implementation) costs O(V+E)
    per repair; this wrapper instead keeps a union-find forest over the
    physical node ids and, on {!union}, splices the victim's adjacency
    into the target in time proportional to the victim's degree.  Dead
    (absorbed) nodes remain as isolated physical ids, so evaluation
    from the root over the underlying {!graph} is unaffected; {!compact}
    produces a dense renumbered snapshot when a clean graph must leave
    the chase.

    The class containing the root is always represented by the physical
    root (unions absorb into the smaller id, and the root is node 0). *)

type t

val of_graph : Graph.t -> t
(** Takes ownership of the graph: the caller must not mutate it behind
    the wrapper's back (copy first if it is shared). *)

val graph : t -> Graph.t
(** The live physical graph.  Every edge connects representatives;
    absorbed nodes are isolated.  [Graph.node_count] counts dead nodes
    too — use {!live_count} for the model size. *)

val find : t -> Graph.node -> Graph.node
(** Canonical (representative) id of a node's class, with path
    compression.  Total over every id ever returned by {!add_node}. *)

val add_node : t -> Graph.node

val add_edge : t -> Graph.node -> Pathlang.Label.t -> Graph.node -> unit
(** Endpoints are canonicalized through {!find}. *)

val add_path :
  ?on_edge:(Graph.node -> Pathlang.Label.t -> Graph.node -> unit) ->
  t -> Graph.node -> Pathlang.Path.t -> Graph.node -> unit
(** Like [Graph.add_path]: fresh intermediate nodes, canonicalized
    endpoints.  [on_edge] sees every edge of the path as it is added.
    @raise Invalid_argument on an empty path between distinct classes. *)

val union :
  ?on_edge:(Graph.node -> Pathlang.Label.t -> Graph.node -> unit) ->
  t -> Graph.node -> Graph.node -> (Graph.node * Graph.node) option
(** [union t a b] identifies the classes of [a] and [b].  [None] when
    they already coincide; otherwise [Some (target, victim)] — the
    surviving representative and the absorbed one — after splicing
    every edge incident to [victim] onto [target] (cost: the victim's
    degree, not the graph size).  [on_edge] sees each moved edge under
    its new endpoints; every path through [victim] used one of them. *)

val live_count : t -> int
(** Number of equivalence classes = nodes of the quotient model. *)

val incident_labels : t -> Graph.node -> Pathlang.Label.Set.t
(** Labels on edges touching the node's class (in and out).  Used by
    the chase to seed its dirty-constraint worklist before a merge. *)

val serialize : t -> string
(** The full physical state — node count (dead nodes included), live
    class count, union-find parent array, and every edge — as a
    line-oriented text section.  Physical ids are preserved exactly:
    the chase allocates fresh ids by node count, so a resumed run only
    replays the uninterrupted run's repair sequence if ids round-trip
    verbatim. *)

val deserialize : string -> (t, string) result
(** Inverse of {!serialize}, with validation: parent pointers must
    satisfy the min-id invariant [parent.(i) <= i], the live count must
    equal the number of forest roots, edge endpoints must be in-range
    class representatives, and the edge section must be complete.  Any
    violation (including truncation) is an [Error] describing the first
    offending line — never an exception. *)

val compact : t -> Graph.t * (Graph.node -> Graph.node)
(** A dense, dead-node-free snapshot plus the renaming from any
    physical id to its node in the snapshot.  Representatives keep
    their relative order; the root maps to the root. *)
