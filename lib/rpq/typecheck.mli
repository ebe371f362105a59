(** Typing a regular path query against the schema graph (the PC8xx
    engine, following the typed-RPQ discipline of Colazzo–Sartiani over
    the schema formalism of Section 3.2).

    The product of the query's {!Glushkov} automaton with
    [Schema_graph.automaton] is computed once, as positions × sorts in
    arrays and bitsets.  Its {e reachable} pairs type every letter
    occurrence (which sorts of [T(Delta)] can a match inhabit after
    this token?), and a backward pass marks the {e co-reachable} pairs
    (can this position still finish the query inside [Paths(Delta)]?).
    A position is a regex letter, so every subexpression is typed from
    its position sets ({!Glushkov.sets}): its entry from the states
    that can precede it, its exit from its last positions (and its
    entry, when it is nullable).

    The number of explored product pairs is exported through the
    [querycheck.product.states] counter. *)

type t

val run : Schema.Mschema.t -> Parser.ast -> t
(** Build the product and both reachability passes.  Cost is
    [O(|moves| * |T(Delta)| * |E(Delta)|)], where the query automaton
    has at most [|query|^2] moves and one state per letter occurrence.
    The schema automaton of the last schema a domain typed against is
    kept, so a run of queries against one schema builds it once. *)

val empty_query : t -> bool
(** [L(query) ∩ Paths(Delta) = ∅]: no accepting product pair is
    reachable.  Equivalent to emptiness of the product automaton
    (cross-checked in the test suite against [Nfa] emptiness). *)

val first_dead :
  t -> (Pathlang.Label.t * Pathlang.Span.t * Schema.Mtype.t list) option
(** For an empty query: the first letter in source order whose entry
    still types non-empty but whose exit types empty — the token where
    every walk matching the query leaves [Paths(Delta)] — together
    with the sorts live at its entry.  [None] when the query is
    non-empty (or empty for reasons no single letter witnesses). *)

val dead_subexprs : t -> Parser.ast list
(** Maximal [Alt] branches and [Star]/[Plus]/[Opt] bodies contributing
    no schema-live word (PC801): no accepting match over
    [Paths(Delta)] passes through the subtree's end.  Empty on empty queries (PC800
    owns that case) — the list is in source order. *)

val sorts_after : t -> Parser.ast -> Schema.Mtype.t list
(** The sorts a match can inhabit {e after} the given subexpression (a
    node of the checked query).  Empty iff the position is unreachable
    over [Paths(Delta)].
    @raise Invalid_argument if the node is not part of the checked query. *)

val answer_sorts : t -> Schema.Mtype.t list
(** The sorts of the query's answers: {!sorts_after} the root. *)

val letter_chain :
  t -> (Pathlang.Label.t * Pathlang.Span.t * Schema.Mtype.t list) list
(** Every letter occurrence in source order with the sorts live after
    consuming it — the regex-position analogue of a PC602 chain, used
    by the PC803 [--explain] rendering. *)

val glushkov : t -> Glushkov.t
(** The query automaton the checker built; {!admit} is indexed by its
    states. *)

(** {1 Typing a data graph} *)

type typing
(** A sort, or none, for every node of a graph: a dense array of sort
    indexes (the states of [Schema_graph.automaton]). *)

val type_graph : Schema.Mschema.t -> Sgraph.Graph.t -> typing
(** Types the nodes of a data graph by their sorts: the sort states of
    the reachable pairs of the product of the graph from its root with
    [Schema_graph.automaton] from [DBtype], found by one BFS over those
    pairs.  A node gets a sort only when it has exactly one, so the
    typing does not depend on the order the edges were added in.  Every
    reachable node of a graph that conforms to the schema has one.
    Nodes that are unreachable, reached under two sorts, or reached only
    along edges the schema does not admit are untyped — the pruned
    evaluation treats them conservatively, so a partial typing degrades
    performance, never answers.  Nodes added after the typing are
    untyped. *)

val typing_of :
  Schema.Mschema.t ->
  Sgraph.Graph.t ->
  (Sgraph.Graph.node -> Schema.Mtype.t option) ->
  typing
(** An explicit typing of the graph's current nodes, e.g. an instance's
    ground-truth sorts; a sort outside [T(Delta)] counts as untyped. *)

val sort_of : typing -> Sgraph.Graph.node -> Schema.Mtype.t option

val admit : t -> typing option -> Sgraph.Graph.node -> Automata.Nfa.state -> bool
(** [admit tc typing]: the pruning predicate of
    {!Eval.eval_from_typed}, for {!Sgraph.Eval.run}'s [?admit].  It
    admits a pair [(v, q)] when a schema-conforming evaluation may
    inhabit query state [q] at [v] and still finish the query: when the
    product pair of [q] and [v]'s sort is reachable and co-reachable,
    or, for an untyped [v] (or no typing), when such a pair exists for
    some sort.  The liveness of every (position, sort) pair is one
    bitmap, so the predicate is two array reads.
    @raise Invalid_argument if the typing is over another schema. *)
