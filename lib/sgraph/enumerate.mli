(** Exhaustive enumeration of small rooted graphs.

    Used for brute-force refutation of finite implication on tiny
    signatures: the number of graphs is [2^(L * n^2)] for [n] nodes and
    [L] labels, so callers must keep [n] and [L] very small (the tests
    use [n <= 3], [L <= 2]).

    A candidate is an int mask over the potential edges: for labels
    [l_0 .. l_(L-1)], bit [(x * L + k) * n + y] is the edge
    [(x, l_k, y)].  Masks are scanned in ascending order by one
    scanner, sequential or chunked over a pool.  {!find_countermodel}
    checks Sigma and phi on the mask itself ({!holds}) and builds a
    {!Graph.t} only for the witness; {!iter} builds one per candidate
    for its callback.

    Both entry points take a cooperative [?interrupt] hook, polled once
    per candidate graph; when it returns [true] the search stops early
    and reports [None].  [Core.Engine] wires its deadline/cancellation
    checks into this hook, so enumeration under a governed solver can
    never outlive its wall-clock budget.

    Both entry points also take an optional [?pool]: with a [Par] pool
    of more than one domain, the mask space is split into contiguous
    ascending chunks and searched concurrently, with the least-index
    (hence least-mask) hit winning — the witness, and therefore the
    verdict, is byte-identical to the sequential scan's.  The
    [?interrupt] hook is then polled from every worker, so it must be
    domain-safe ([Engine.interrupted] is). *)

val iter :
  ?interrupt:(unit -> bool) ->
  ?pool:Par.t ->
  nodes:int ->
  labels:Pathlang.Label.t list ->
  (Graph.t -> bool) ->
  Graph.t option
(** [iter ~nodes ~labels f] enumerates every graph with exactly [nodes]
    nodes (node 0 the root) over the label set, calling [f] on each;
    stops and returns the minimal-mask graph on which [f] returns
    [true] (under a pool, [f] must be thread-safe: pure up to obs
    metrics).
    @raise Invalid_argument when the instance has 62 or more potential
    edges (the space does not fit an int bitmask). *)

val graph : nodes:int -> labels:Pathlang.Label.t list -> int -> Graph.t
(** [graph ~nodes ~labels mask] is the candidate [mask] stands for:
    [nodes] nodes (at least the root) and the edges of its set bits,
    added in ascending bit order. *)

val holds :
  nodes:int -> labels:Pathlang.Label.t list -> Pathlang.Constr.t -> int -> bool
(** [holds ~nodes ~labels c] compiles [c] once; applied to a mask of an
    instance {!count} accepts, it is
    [Check.holds (graph ~nodes ~labels mask) c], computed on the mask
    without allocating.  A label of [c] outside [labels] reads no
    edge. *)

val find_countermodel :
  ?interrupt:(unit -> bool) ->
  ?pool:Par.t ->
  max_nodes:int ->
  labels:Pathlang.Label.t list ->
  sigma:Pathlang.Constr.t list ->
  phi:Pathlang.Constr.t ->
  unit ->
  Graph.t option
(** Searches all graphs of size 1..[max_nodes] for a finite model of
    [Sigma /\ not phi]; [Some g] refutes [Sigma |=_f phi]: the
    least-mask model of the least size, [graph] of that mask.  (The
    trailing [unit] erases the optionals when omitted.)  Node counts
    whose space overflows {!count} end the search with [None] rather
    than looping on an astronomically sized space. *)

val count : nodes:int -> labels:Pathlang.Label.t list -> int option
(** Number of graphs that {!iter} would enumerate: [Some (2^(L*n^2))],
    or [None] when that exceeds 62 bits (the bound {!iter} rejects).
    The exponent itself is computed overflow-safely, so absurd [nodes]
    values return [None] instead of a wrapped nonsense count. *)
