(** Path evaluation over semistructured graphs: the one place that
    walks paths on a graph.  [rho(x, y)] holds in [G] exactly when [y]
    is in [eval_from g x rho]. *)

type state = int

type move = private {
  label : Pathlang.Label.t;
  id : int;  (** [Pathlang.Label.id label] *)
  next : state array;
}
(** Reading [label], go to any of the states [next]. *)

val move : Pathlang.Label.t -> state list -> move

type nfa = {
  start : state list;
  delta : move array array;
  final : bool array;
}
(** An ε-free automaton on the states [0 .. Array.length delta - 1];
    [delta.(q)] holds [q]'s moves, one per label. *)

(** A word is the degenerate automaton, a chain of labels. *)
type automaton = Chain of Pathlang.Label.t list | Nfa of nfa

val chain : Pathlang.Path.t -> automaton

exception Interrupted

val run :
  ?admit:(Graph.node -> state -> bool) ->
  ?interrupt:(unit -> bool) ->
  Graph.t ->
  Graph.node ->
  automaton ->
  Graph.Node_set.t
(** Every node some word of [L(a)] leads to from [x], by BFS over the
    product of [g] and [a].  An [Nfa]'s pair [(v, q)] is explored only
    if [admit v q], and [interrupt] is polled once per pair dequeued.
    A chain takes [|a|] frontier steps, neither pruned nor polled.

    Both cases read [g]'s runs ({!Graph.out_run}) by label id, so a
    walk needs no set-up beyond its visited sets.  An [Nfa]'s visited
    pairs are one bitset over the nodes per automaton state, allocated
    when the walk first reaches the state, so a walk that touches few
    states stays cheap.  A pair is marked visited before it is offered
    to [admit], so [admit] is called at most once per pair; only
    admitted pairs are queued, and only they answer.
    @raise Interrupted when [interrupt] fires.
    @raise Invalid_argument if [x] is not a node of [g] (an [Nfa] only). *)

val image : Graph.t -> Graph.Node_set.t -> Pathlang.Label.t list -> Graph.Node_set.t
(** [image g xs ks]: the nodes the word [ks] leads to from some node of
    [xs] (the chain case of {!run}, from a set). *)

val preimage :
  Graph.t -> Graph.Node_set.t -> Pathlang.Label.t list -> Graph.Node_set.t
(** [preimage g ys ks]: the nodes from which the word [List.rev ks]
    leads to some node of [ys]; the walk follows edges backwards, so
    [ks] lists the word's labels from its far end. *)

val witnesses :
  Graph.t -> Graph.node -> nfa -> (Graph.node * Pathlang.Path.t) list
(** Every answer of {!run}, ascending, with the least word of [L(a)]
    in [Label.compare] order among the shortest reaching it, read off
    one search's parent links.  Only this search records them: each
    queued pair keeps the pair and the move it was first pushed by.
    The search expands the pairs one word reached together, label by
    label in ascending order, so the witness does not depend on the
    order of moves, states or edges. *)

val eval_from : Graph.t -> Graph.node -> Pathlang.Path.t -> Graph.Node_set.t
(** The chain case of {!run}, in [O(|rho| * |G|)]. *)

val eval : Graph.t -> Pathlang.Path.t -> Graph.Node_set.t
(** [eval g rho = eval_from g (root g) rho]. *)

val holds_between :
  Graph.t -> Graph.node -> Pathlang.Path.t -> Graph.node -> bool
(** [holds_between g x rho y] decides [G |= rho(x, y)]. *)

val reachable : Graph.t -> Graph.node -> Graph.Node_set.t
(** All nodes reachable from the given node by any path. *)
