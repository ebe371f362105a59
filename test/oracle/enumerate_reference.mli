(** The graph-per-candidate countermodel search, kept as the
    differential-testing oracle for {!Sgraph.Enumerate}: for each size
    [1 .. max_nodes] and each mask in ascending order, it builds the
    candidate {!Sgraph.Graph.t} edge by edge (potential edges
    [(x, k, y)] listed node, then label, then target) and model-checks
    it with {!Sgraph.Check.holds}.  Sequential, uninterruptible, and
    sharing no state between calls. *)

val find_countermodel :
  max_nodes:int ->
  labels:Pathlang.Label.t list ->
  sigma:Pathlang.Constr.t list ->
  phi:Pathlang.Constr.t ->
  Sgraph.Graph.t option
(** The first graph of [Sigma /\ not phi] in that order, or [None].
    Sizes whose space {!Sgraph.Enumerate.count} rejects end the search
    with [None]. *)
