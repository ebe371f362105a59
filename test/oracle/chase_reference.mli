(** The copy-per-step chase, kept as the differential-testing oracle
    for {!Core.Chase}: every EGD rebuilds and renumbers the graph, every
    step rescans all of Sigma with [Sgraph.Check.first_violation].  It
    performs the same repair sequence as [Core.Chase.run]/[implies], so
    their results agree up to the order-preserving renaming. *)

val merge :
  Sgraph.Graph.t ->
  Sgraph.Graph.node ->
  Sgraph.Graph.node ->
  Sgraph.Graph.t * (Sgraph.Graph.node -> Sgraph.Graph.node)
(** [merge g a b] identifies the two nodes (the root stays the root) and
    returns the contracted graph with the renaming. *)

val run_reference :
  ?ctl:Core.Engine.t ->
  ?tracked:Sgraph.Graph.node list ->
  Sgraph.Graph.t ->
  Pathlang.Constr.t list ->
  Core.Chase.outcome * Sgraph.Graph.node list
(** [Core.Chase.run] on the copy-per-step engine. *)

val implies_reference :
  ?ctl:Core.Engine.t ->
  sigma:Pathlang.Constr.t list ->
  Pathlang.Constr.t ->
  Core.Verdict.t
(** [Core.Chase.implies] on the copy-per-step engine. *)
