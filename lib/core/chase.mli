(** A budgeted chase for P_c constraints, governed by {!Engine}.

    Every P_c constraint is a tuple/equality-generating dependency over
    the binary signature: a forward constraint
    [forall x (alpha(r,x) -> forall y (beta(x,y) -> gamma(x,y)))]
    with [gamma <> eps] asks for a [gamma]-path from [x] to [y] (a TGD:
    repair by adding a fresh path), and with [gamma = eps] asks for
    [x = y] (an EGD: repair by merging nodes); backward constraints are
    symmetric.  Chasing the canonical database of [phi]'s premise with
    [Sigma] therefore semi-decides [Sigma |= phi]:
    - if the conclusion becomes true at any finite stage, [phi] is
      implied (each chase step is a logical consequence of [Sigma]);
    - if the chase reaches a fixpoint with the conclusion still false,
      the result is a finite model of [Sigma /\ not phi];
    - otherwise the governing engine trips ([Unknown] with structured
      exhaustion diagnostics) — unavoidable, since the problem is
      undecidable (Theorem 4.1).

    Every entry point takes a fresh [?ctl] controller (default:
    [Engine.default ()], i.e. 2000 steps / 2000 nodes / 10 s); one chase
    step consumes one engine step and reports the current node count.

    The engine is {e incremental}: the chased graph lives in a
    {!Sgraph.Merge_graph} (union-find node identity, so EGD repairs are
    adjacency splices instead of whole-graph rebuilds); a
    dirty-constraint worklist indexed by label footprint decides which
    constraints a repair can affect; and a {!Sgraph.Violations} index
    answers each one's least violation from the edges the repairs added
    or moved, instead of re-evaluating the constraint from the root.
    The index answers exactly [Check.first_violation], so the repair
    sequence is the copy-per-step engine's, kept as the
    differential-testing oracle [Oracle.Chase_reference] under
    [test/oracle]; the results agree up to the order-preserving
    renaming (see DESIGN.md section 10). *)

type outcome =
  | Fixpoint of Sgraph.Graph.t  (** all constraints hold *)
  | Exhausted of Sgraph.Graph.t * Verdict.exhaustion
      (** the engine tripped; the partial chase result is returned
          together with the diagnostics *)

(** Parked chase state: everything a later process needs to continue a
    chase exactly where this one stopped — the {!Sgraph.Merge_graph}
    (union-find parents, adjacency, dead nodes included so fresh-node
    allocation replays identically), the dirty-constraint worklist and
    its cursor, the tracked nodes, and the engine budget spent so far.
    The violation index is not part of it: a resumed chase rebuilds it
    cold and repairs exactly as an uninterrupted one.
    A fingerprint of the originating problem (ordered sigma plus the
    conjecture or initial graph) guards against resuming under the
    wrong constraints.

    The on-disk form is versioned and checksummed; {!of_string} and
    {!load} report truncation, corruption, or a version mismatch as
    [Error] — callers degrade to a cold start, they never crash. *)
module Snapshot : sig
  type t

  val engine_steps : t -> int
  (** Engine budget already spent; pass to [Engine.start ~spent_steps]
      so the resumed run trips at the same absolute budget. *)

  val engine_peak_nodes : t -> int
  val repairs : t -> int
  val live_nodes : t -> int

  val matches_implies : t -> sigma:Pathlang.Constr.t list -> Pathlang.Constr.t -> bool
  (** Does this snapshot belong to [implies ~sigma phi]? *)

  val matches_run : t -> sigma:Pathlang.Constr.t list -> Sgraph.Graph.t -> bool

  val to_string : t -> string
  val of_string : string -> (t, string) result

  val save : path:string -> t -> (unit, string) result
  (** Atomic (temp + fsync + rename) with bounded retry on transient
      I/O failure; the fault site is [snapshot.write]. *)

  val load : string -> (t, string) result
  (** Fault site [snapshot.read]. *)
end

val run :
  ?ctl:Engine.t ->
  ?tracked:Sgraph.Graph.node list ->
  ?park:(Snapshot.t -> unit) ->
  ?resume:Snapshot.t ->
  Sgraph.Graph.t ->
  Pathlang.Constr.t list ->
  outcome * Sgraph.Graph.node list
(** Chases a copy of the graph.  [tracked] nodes are followed through
    merges and returned re-addressed.

    [park] is called with a resumable snapshot whenever the run stops
    without reaching a fixpoint — budget exhaustion, cancellation, or
    an injected [Fault.Crash] (which is absorbed into
    [Exhausted {reason = Crashed}] rather than escaping); the park is
    recorded in the exhaustion notes.  [resume] continues from a parked
    snapshot instead of a cold start: [tracked] is then taken from the
    snapshot, and the resumed repair sequence is identical to the one
    an uninterrupted run would have performed.
    @raise Invalid_argument if the snapshot's fingerprint does not
    match [g]/[sigma] — check [Snapshot.matches_run] first. *)

val implies :
  ?ctl:Engine.t ->
  ?park:(Snapshot.t -> unit) ->
  ?resume:Snapshot.t ->
  sigma:Pathlang.Constr.t list ->
  Pathlang.Constr.t ->
  Verdict.t
(** [park]/[resume] as in {!run}; the two tracked premise nodes travel
    inside the snapshot.
    @raise Invalid_argument on a fingerprint mismatch — check
    [Snapshot.matches_implies] first. *)
