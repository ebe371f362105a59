(** Pushdown reachability by P-automaton saturation.

    A P-automaton for a PDS with [n] control states is an {!Nfa.t} whose
    states [0 .. n-1] stand for the control states; it accepts the
    configuration [<p, w>] iff reading [w] from state [p] can reach a
    final state.

    [pre_star pds a] saturates a copy of [a] so that it accepts exactly
    the configurations from which some configuration accepted by [a] is
    reachable.  [post_star pds a] accepts exactly the configurations
    reachable from configurations accepted by [a]; it requires a
    normalized PDS (pushes of length at most 2, see {!Pds.normalize}).

    Both run in polynomial time in the size of the PDS and automaton
    (the implementation is a simple fixpoint loop rather than the
    worklist-optimal algorithm; the asymptotics remain polynomial). *)

val pre_star : Pds.t -> Nfa.t -> Nfa.t
(** @raise Invalid_argument if the automaton has fewer states than the
    PDS has control states. *)

val post_star : Pds.t -> Nfa.t -> Nfa.t
(** @raise Invalid_argument if the PDS has a rule pushing more than two
    symbols, or if the automaton has fewer states than the PDS has
    control states. *)

val accepts_config : Nfa.t -> Pds.state -> Pathlang.Label.t list -> bool
(** [accepts_config a p w] tests acceptance of the configuration
    [<p, w>]. *)

val bfs_reachable :
  ?max_configs:int ->
  ?max_len:int ->
  Pds.t ->
  start:Pds.state * Pathlang.Label.t list ->
  goal:Pds.state * Pathlang.Label.t list ->
  bool option
(** Brute-force BFS over configurations: [Some true] if the goal is
    reached, [Some false] if the (finite) reachable set is exhausted
    without finding it, [None] if the budget runs out or configurations
    longer than [max_len] (default: |start| + |goal| + 24) had to be
    pruned.  Test oracle. *)
