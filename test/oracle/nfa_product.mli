(** The reachable synchronous product of two [Automata.Nfa]s, with
    their ε moves: the reference the typing tests compare the library's
    array-based products against. *)

val product :
  Automata.Nfa.t ->
  Automata.Nfa.t ->
  start:Automata.Nfa.state * Automata.Nfa.state ->
  Automata.Nfa.t * (Automata.Nfa.state * Automata.Nfa.state) array
(** [product a b ~start] is the synchronous product of [a] and [b],
    restricted to the pairs reachable from [start]: a labeled
    transition fires when both factors take it, an ε transition in
    either factor pairs with the other staying put.  Product state [i]
    denotes the returned [pairs.(i)] (state 0 is [start]); a product
    state is final iff both components are. *)
