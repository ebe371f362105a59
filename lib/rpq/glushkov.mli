(** The Glushkov (position) automaton of a regular path query: the one
    query automaton that evaluation ({!Eval}), typing ({!Typecheck})
    and the language tests of {!Regex} all read.

    It is built straight from the span-annotated {!Ast.t}.  State [0]
    is the start state; states [1 .. size - 1] are the letter
    occurrences of the query ({e positions}), numbered in source order.
    Every move into position [p] reads [p]'s letter, so the automaton
    is ε-free by construction, and its transitions come from the
    classical [first], [last], [follow] and [nullable] sets.  Since a
    position is a regex letter, the PC8xx attribution reads per-node
    position sets ({!sets}) instead of per-node states. *)

type t

val make : Ast.t -> t

val size : t -> int
(** The number of states: the query's letter occurrences plus one. *)

val letter : t -> int -> Ast.t
(** The letter node of position [p], for [1 <= p < size]. *)

val automaton : t -> Sgraph.Eval.nfa
(** The automaton for {!Sgraph.Eval}: start state [0]; each state's
    moves grouped by label, ascending in [Label.compare] order, each
    move's target positions ascending. *)

val to_nfa : t -> Automata.Nfa.t * Automata.Nfa.state
(** The same automaton as an ε-free [Automata.Nfa], and its start
    state, for the subset construction of [Automata.Dfa]. *)

(** {1 Per-node position sets} *)

type sets = {
  nullable : bool;  (** the node matches the empty word *)
  first : int list;  (** the positions that can start a match of the node *)
  last : int list;  (** the positions that can end a match of the node *)
  pre : int list;
      (** the states that can immediately precede the node: the last
          state read before a match of the node begins ([0] when the
          match can start the query) *)
  fol : int list;
      (** the positions that can immediately follow a match of the
          node *)
  at_end : bool;  (** a match of the node can end the query *)
}

val sets : t -> Ast.t -> sets
(** The position sets of a node of the query, found by physical
    identity.  The lists may repeat a position.
    @raise Invalid_argument if the node is not part of the query. *)
