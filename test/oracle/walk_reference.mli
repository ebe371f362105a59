(** The set-at-a-time chain walk over label lists, kept as the
    differential-testing oracle for {!Sgraph.Eval}'s chain walker: each
    letter maps a {!Sgraph.Graph.Node_set} frontier to the set of its
    successors (or predecessors) through {!Sgraph.Graph.succ} and
    {!Sgraph.Graph.pred}, one label at a time. *)

val image :
  Sgraph.Graph.t ->
  Sgraph.Graph.Node_set.t ->
  Pathlang.Label.t list ->
  Sgraph.Graph.Node_set.t
(** [image g xs ks]: the nodes the word [ks] leads to from some node of
    [xs]. *)

val preimage :
  Sgraph.Graph.t ->
  Sgraph.Graph.Node_set.t ->
  Pathlang.Label.t list ->
  Sgraph.Graph.Node_set.t
(** [preimage g ys ks]: the nodes from which the word [ks] leads to some
    node of [ys]. *)
