(** Semistructured databases: rooted, edge-labeled, directed graphs.

    This is the abstraction of Section 3.1: a (finite) structure
    [G = (|G|, r^G, E^G)] over a signature [sigma = (r, E)], depicted as a
    rooted edge-labeled directed graph.  Nodes are dense integers; node 0
    is always the root.  Graphs are mutable (they are built by generators
    and by the chase, which extends them in place); {!copy} gives an
    independent copy.

    Each edge is stored once in each direction: every node holds its
    out-edges and its in-edges as {e runs}, one per label, in label
    order ({!Pathlang.Label.compare}); a run lists its far endpoints in
    the order their edges were added.  One hash table on
    [(source, Label.id label, target)] answers edge membership, so
    adding a duplicate edge costs O(1) whatever the run's length.

    {b Iteration orders} are part of the contract (serializations,
    the chase's repair sequence and witness tie-breaks depend on them):
    {!succ} and {!pred} list newest edge first; {!succ_all} lists labels
    descending, each label's targets oldest first; {!iter_edges} visits
    nodes ascending, then labels ascending, then targets newest first;
    {!ensure_path} follows the newest edge.  Removing an edge keeps the
    order of the others. *)

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
(** Removes an edge if present (the node itself stays).  The runs and
    {!edge_count} are kept exact; {!labels} may keep
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
(** Iterates every edge without materializing a list, in the order
    stated above: by ascending source, then label, newest edge first. *)

val fold_edges : t -> ('a -> node -> Pathlang.Label.t -> node -> 'a) -> 'a -> 'a

val edges : t -> (node * Pathlang.Label.t * node) list
(** Materializes {!iter_edges}; prefer the iterator on hot paths. *)

val labels : t -> Pathlang.Label.Set.t
(** Every label ever added to the graph (an over-approximation after
    {!remove_edge}). *)

val mem_node : t -> node -> bool

val copy : t -> t
(** An independent graph with the same nodes and edges, in the same
    orders. *)

(** {1 Runs}

    Read access for walkers ({!Eval}'s product BFS and chain case):
    node [v]'s out-edges labelled [k] are the run
    [targets.(0) .. targets.(len - 1)], oldest first, with
    [id = Label.id k].  A run is live: it changes as edges are added
    and removed, so a walker must not mutate the graph while it reads
    one.  The arrays must not be written. *)

type run = private {
  label : Pathlang.Label.t;
  id : int;  (** [Pathlang.Label.id label] *)
  mutable targets : node array;  (** room beyond [len] is unused *)
  mutable len : int;
}

val out_run : t -> node -> int -> run
(** [out_run g v id]: [v]'s out-run labelled [id], or an empty run
    ([len = 0]); a scan of [v]'s runs. *)

val in_run : t -> node -> int -> run
(** [in_run g v id]: the sources of [v]'s in-edges labelled [id], as
    {!out_run}. *)

val out_runs : t -> node -> run array
(** [v]'s out-runs in label order. *)

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
