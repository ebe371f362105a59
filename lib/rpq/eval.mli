(** Regular path queries over semistructured graphs, and the regular
    word constraints of [4] as {e checkable} (not implied-over)
    properties.  A query runs as its {!Glushkov} automaton, which is
    ε-free: one state per letter occurrence plus a start state.  The
    walk is {!Sgraph.Eval.run}'s product BFS, in [O(|G| * |r|)] product
    pairs, which polls every [interrupt] hook once per pair it dequeues
    and raises {!Interrupted} when one fires. *)

val eval_from :
  ?interrupt:(unit -> bool) ->
  Sgraph.Graph.t ->
  Sgraph.Graph.node ->
  Regex.t ->
  Sgraph.Graph.Node_set.t

val eval :
  ?interrupt:(unit -> bool) -> Sgraph.Graph.t -> Regex.t -> Sgraph.Graph.Node_set.t

val witnesses :
  Sgraph.Graph.t ->
  Sgraph.Graph.node ->
  Regex.t ->
  (Sgraph.Graph.node * Pathlang.Path.t) list
(** Every answer, ascending, with a label sequence in [L(r)] reaching
    it, all from one search: the least in [Label.compare] order among
    the shortest. *)

val witness :
  Sgraph.Graph.t ->
  Sgraph.Graph.node ->
  Regex.t ->
  Sgraph.Graph.node ->
  Pathlang.Path.t option
(** One answer's entry of {!witnesses}. *)

exception Interrupted
(** {!Sgraph.Eval.Interrupted}: an [interrupt] hook fired. *)

val eval_from_typed :
  ?interrupt:(unit -> bool) ->
  ?class_of:Typecheck.typing ->
  Typecheck.t ->
  Sgraph.Graph.t ->
  Sgraph.Graph.node ->
  Sgraph.Graph.Node_set.t
(** Type-pruned evaluation: {!eval_from} on the checker's automaton,
    exploring a pair [(v, q)] only if {!Typecheck.admit} admits it
    under the node typing [class_of] (e.g. {!Typecheck.type_graph}; by
    default every node is untyped).  On a graph that validates against the
    schema the answers equal {!eval_from}'s; on others they are the
    matches witnessed inside [Paths(Delta)].  A step budget in
    [interrupt] counts admitted pairs.
    @raise Invalid_argument if [class_of] types the graph against
    another schema than the checker's. *)

val eval_typed :
  ?interrupt:(unit -> bool) ->
  ?class_of:Typecheck.typing ->
  Typecheck.t ->
  Sgraph.Graph.t ->
  Sgraph.Graph.Node_set.t
(** {!eval_from_typed} from the root. *)

(** Regular word constraints (the constraint language of [4]):
    [forall x (r1(root, x) -> r2(root, x))] with [r1], [r2] regular.
    Model checking is decidable and implemented; the {e implication}
    problem for these constraints is out of scope here, exactly as in
    the paper (Section 1). *)
type constr = { lhs : Regex.t; rhs : Regex.t }

val holds : ?interrupt:(unit -> bool) -> Sgraph.Graph.t -> constr -> bool

val violations : Sgraph.Graph.t -> constr -> Sgraph.Graph.node list

(** Union-of-RPQs optimization by {e syntactic} language inclusion:
    sound without any constraint theory (smaller language, smaller
    answer), complementing the constraint-aware pruning of
    [Core.Query]. *)
val prune_union : Regex.t list -> Regex.t list
