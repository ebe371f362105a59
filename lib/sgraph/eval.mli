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
    A chain is walked by the chain walker below, neither pruned nor
    polled, and converted to a set at the end.

    Both cases read [g]'s runs ({!Graph.out_run}) by label id, so a
    walk needs no set-up beyond its visited sets.  An [Nfa]'s visited
    pairs are one bitset over the nodes per automaton state, allocated
    when the walk first reaches the state, so a walk that touches few
    states stays cheap.  A pair is marked visited before it is offered
    to [admit], so [admit] is called at most once per pair; only
    admitted pairs are queued, and only they answer.
    @raise Interrupted when [interrupt] fires.
    @raise Invalid_argument ["Eval.run: unknown node"] if [x] is not a
    node of [g]. *)

(** {1 The chain walker}

    Words as arrays of label ids ({!word}), walked a letter at a time
    over a flat frontier: an array of nodes deduplicated by generation
    stamps, so a step allocates nothing.  Each domain has one frontier,
    grown with the largest graph it walked and reused by every walk:
    {!start} resets it, so a frontier read after the next {!start} in
    the same domain reads that walk.  Copy out what must outlive it.
    The graph must not change during a walk. *)

type frontier

val word : Pathlang.Path.t -> int array
(** The path's label ids, first letter first. *)

val start : Graph.t -> Graph.node -> frontier
(** This domain's frontier, reset to [{x}] and sized for [g].
    @raise Invalid_argument ["Eval.run: unknown node"] if [x] is not a
    node of [g]. *)

val image : Graph.t -> frontier -> int array -> int -> int -> unit
(** [image g f w lo hi] replaces [f] by the nodes the word
    [w.(lo) .. w.(hi - 1)] leads to from some node of [f]. *)

val preimage : Graph.t -> frontier -> int array -> int -> int -> unit
(** [preimage g f w lo hi] replaces [f] by the nodes from which the word
    [w.(lo) .. w.(hi - 1)] leads to some node of [f]: it reads
    [w.(hi - 1)] first and follows edges backwards. *)

val size : frontier -> int

val get : frontier -> int -> Graph.node
(** [get f i], [0 <= i < size f]: the frontier's nodes, in no set
    order. *)

val mem : frontier -> Graph.node -> bool
(** Membership, O(1); the node must be a node of the walked graph. *)

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
