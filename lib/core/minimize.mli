(** Greedy minimization of countermodels.

    Refutation witnesses from the chase or from exhaustive search can
    carry irrelevant nodes and edges; smaller witnesses are easier to
    read (the paper's figures are all minimal).  [countermodel] deletes
    nodes and then edges greedily while the structure keeps satisfying
    [Sigma /\ not phi], and repeats both passes until a round deletes
    nothing (dropping an edge can make a node deletable); the result is
    a local minimum (1-minimal: no single node or edge deletion
    preserves the property), re-verified before being returned. *)

val countermodel :
  Sgraph.Graph.t ->
  sigma:Pathlang.Constr.t list ->
  phi:Pathlang.Constr.t ->
  Sgraph.Graph.t
(** @raise Invalid_argument if the input is not a countermodel in the
    first place. *)

val drop_node : Sgraph.Graph.t -> Sgraph.Graph.node -> Sgraph.Graph.t
(** The graph without that node (and its incident edges); the root
    cannot be dropped.  Exposed for tests. *)
