(** Pushdown reachability by P-automaton saturation.

    A P-automaton for a PDS with [n] control states is an {!Nfa.t} whose
    states [0 .. n-1] stand for the control states; it accepts the
    configuration [<p, w>] iff reading [w] from state [p] can reach a
    final state.

    [post_star pds a] saturates a copy of [a] so that it accepts exactly
    the configurations reachable from configurations accepted by [a]; it
    requires a normalized PDS (pushes of length at most 2, see
    {!Pds.normalize}).  It runs in polynomial time in the size of the
    PDS and automaton (a simple fixpoint loop rather than the
    worklist-optimal algorithm).  The dual pre* lives in
    {!Prefix_rewrite}'s decision contexts, specialised to prefix
    rewriting. *)

val post_star : Pds.t -> Nfa.t -> Nfa.t
(** @raise Invalid_argument if the PDS has a rule pushing more than two
    symbols, or if the automaton has fewer states than the PDS has
    control states. *)

val accepts_config : Nfa.t -> Pds.state -> Pathlang.Label.t list -> bool
(** [accepts_config a p w] tests acceptance of the configuration
    [<p, w>]. *)
