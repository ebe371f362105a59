(** Semistructured databases: rooted, edge-labeled, directed graphs.

    This is the abstraction of Section 3.1: a (finite) structure
    [G = (|G|, r^G, E^G)] over a signature [sigma = (r, E)], depicted as a
    rooted edge-labeled directed graph.  Nodes are dense integers; node 0
    is always the root.  Graphs are mutable (they are built by generators
    and by the chase, which extends them in place); {!copy} gives an
    independent copy, and {!freeze} a read-only snapshot for walkers. *)

type node = int

type t

module Node_set : Set.S with type elt = node

val create : unit -> t
(** A graph with a single node, the root. *)

val root : t -> node

val add_node : t -> node
(** Adds a fresh node and returns it. *)

val add_edge : t -> node -> Pathlang.Label.t -> node -> unit
(** Adds an edge; duplicate edges are ignored.  Both endpoints must be
    existing nodes. *)

val add_path : t -> node -> Pathlang.Path.t -> node -> unit
(** [add_path g x rho y] adds a chain of fresh intermediate nodes so that
    [y] becomes reachable from [x] via [rho].  [rho] must be non-empty
    unless [x = y].
    @raise Invalid_argument if [rho] is empty and [x <> y]. *)

val ensure_path : t -> node -> Pathlang.Path.t -> node
(** [ensure_path g x rho] returns a node reachable from [x] via [rho],
    reusing existing edges greedily and adding fresh nodes for the
    missing suffix. *)

val remove_edge : t -> node -> Pathlang.Label.t -> node -> unit
(** Removes an edge if present (the node itself stays).  The label
    indexes and {!edge_count} are kept exact; {!labels} may keep
    reporting a label whose last edge was removed (it is documented as
    an over-approximation). *)

val has_edge : t -> node -> Pathlang.Label.t -> node -> bool
(** O(1): edge membership is backed by a hash table, not an adjacency
    scan. *)

val succ : t -> node -> Pathlang.Label.t -> node list
val succ_all : t -> node -> (Pathlang.Label.t * node) list
val pred : t -> node -> Pathlang.Label.t -> node list
val out_labels : t -> node -> Pathlang.Label.Set.t

val in_labels : t -> node -> Pathlang.Label.Set.t
(** Labels appearing on incoming edges of the node. *)

val node_count : t -> int
val edge_count : t -> int
val nodes : t -> node list

val iter_edges : t -> (node -> Pathlang.Label.t -> node -> unit) -> unit
(** Iterates every edge without materializing a list; edges are visited
    grouped by source node in increasing node order. *)

val fold_edges : t -> ('a -> node -> Pathlang.Label.t -> node -> 'a) -> 'a -> 'a

val edges : t -> (node * Pathlang.Label.t * node) list
(** Materializes {!iter_edges}; prefer the iterator on hot paths. *)

val labels : t -> Pathlang.Label.Set.t
(** Every label ever added to the graph (an over-approximation after
    {!remove_edge}). *)

val mem_node : t -> node -> bool

val copy : t -> t
(** An independent graph with the same nodes and edges.  It shares the
    original's {!freeze} snapshot, if one was taken: the snapshot is
    immutable, and mutating either graph drops only that graph's. *)

(** {1 Frozen snapshot}

    A read-only forward adjacency in compressed sparse rows, for
    walkers that visit every edge many times ({!Eval}'s product BFS).
    Node [v]'s out-edges are the {e runs}
    [first_run.(v) .. first_run.(v + 1) - 1], one per out-label; run
    [r] carries the label [run_label.(r)] (a {!Pathlang.Label.id}) and
    the targets [targets.(run_start.(r)) .. targets.(run_start.(r + 1) - 1)]
    in the order their edges were added.

    The snapshot is built on first use in [O(|G|)], in two passes
    straight into the arrays, and cached in the graph until the next
    {!add_node}, {!add_edge} or {!remove_edge} that changes it drops it;
    walkers of graphs that mutate between walks (the chase, {!Enumerate})
    should not freeze.  Graphs may be frozen from several domains at
    once: a racing first use may build the snapshot twice, and each
    domain sees a complete one.  The arrays must not be written. *)

type csr = private {
  nodes : int;  (** {!node_count} when the snapshot was taken *)
  first_run : int array;
  run_label : int array;
  run_start : int array;
  targets : node array;
}

val freeze : t -> csr
(** The graph's current snapshot, built if it has none. *)

val find_run : csr -> node -> int -> int
(** [find_run c v id]: [v]'s run labelled [id], or [-1]; a scan of
    [v]'s runs. *)

val of_edges : (int * string * int) list -> t
(** Builds a graph from raw edges; node ids may be sparse, they are used
    as given (all ids up to the maximum mentioned are created).  Node 0
    is the root and always exists. *)

val union_disjoint : t -> t -> (node -> node)
(** [union_disjoint g h] copies every node and edge of [h] into [g]
    (including [h]'s root, which becomes an ordinary node of [g]) and
    returns the renaming from [h]-nodes to [g]-nodes. *)

val equal : t -> t -> bool
(** Equality of node sets and edge sets (not isomorphism). *)

val pp : Format.formatter -> t -> unit
