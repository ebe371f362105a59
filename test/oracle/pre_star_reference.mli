(** The naive pre* and a brute-force search, kept as differential
    oracles for {!Automata.Prefix_rewrite}'s decision contexts: the
    fixpoint re-scans every rule over the whole P-automaton until
    nothing changes, per query. *)

val pre_star : Automata.Pds.t -> Automata.Nfa.t -> Automata.Nfa.t
(** [pre_star pds a] saturates a copy of [a] so that it accepts exactly
    the configurations from which some configuration accepted by [a] is
    reachable.
    @raise Invalid_argument if the automaton has fewer states than the
    PDS has control states. *)

val bfs_reachable :
  ?max_configs:int ->
  ?max_len:int ->
  Automata.Pds.t ->
  start:Automata.Pds.state * Pathlang.Label.t list ->
  goal:Automata.Pds.state * Pathlang.Label.t list ->
  bool option
(** Brute-force BFS over configurations: [Some true] if the goal is
    reached, [Some false] if the (finite) reachable set is exhausted
    without finding it, [None] if the budget runs out or configurations
    longer than [max_len] (default: |start| + |goal| + 24) had to be
    pruned. *)

val derives :
  Automata.Prefix_rewrite.system -> Pathlang.Path.t -> Pathlang.Path.t -> bool
(** [derives s alpha beta] decides [beta in post*(alpha)] by {!pre_star}
    over the automaton accepting [beta]'s configuration.
    @raise Invalid_argument if a query path uses a label outside the
    compiled alphabet. *)

val derives_bfs :
  ?max_configs:int ->
  ?max_len:int ->
  Automata.Prefix_rewrite.system ->
  Pathlang.Path.t ->
  Pathlang.Path.t ->
  bool option
(** {!bfs_reachable} between the two paths' configurations. *)

val derivation_bfs :
  ?max_configs:int ->
  sigma:Pathlang.Constr.t list ->
  Pathlang.Constr.t ->
  (bool option, Core.Word_untyped.error) result
(** {!derives_bfs} on the system compiled from word constraints:
    [Some true] exhibits a rewriting derivation, [Some false] proves
    there is none, [None] means the budget ran out. *)
