(** Outcomes of budgeted (semi-)decision procedures.

    The implication problems for P_c and for P_w(K) on semistructured
    data are undecidable (Theorems 4.1/4.3), so procedures for them
    cannot always answer; both positive and negative answers carry
    checkable evidence, and a non-answer carries a structured
    explanation of which resource ran out. *)

type reason =
  | Steps  (** the step budget of the governing {!Engine} ran out *)
  | Nodes  (** the constructed model outgrew the node budget *)
  | Deadline  (** the wall-clock deadline passed *)
  | Cancelled  (** cooperative cancellation (e.g. SIGINT/SIGTERM) was requested *)
  | Crashed
      (** the run was cut short by a (possibly injected) crash after
          parking a resumable snapshot; see [Chase.Snapshot] *)

type exhaustion = {
  reason : reason;  (** why the search gave up *)
  steps : int;  (** total steps consumed (across escalation rounds) *)
  nodes : int;  (** peak model size reached *)
  elapsed_ns : int64;  (** wall-clock time spent, monotonic nanoseconds *)
  rounds : int;  (** escalation rounds attempted; 1 for a single shot *)
  notes : string list;
      (** extra diagnostics, e.g. silently clamped sub-budgets *)
  counters : (string * int) list;
      (** snapshot of the non-zero {!Obs.Counter}s at exhaustion time
          (chase steps, EGD/TGD firings, enumeration nodes, …), so an
          exhausted run says what the budget was spent doing.  Empty
          when the observability layer is disabled. *)
}

type t =
  | Implied
      (** Established by sound derivation steps (chase): every (finite
          or infinite) model of Sigma satisfies phi. *)
  | Refuted of Sgraph.Graph.t
      (** A finite model of Sigma /\ not phi: Sigma does not (finitely)
          imply phi.  The witness can be re-checked with
          [Sgraph.Check]. *)
  | Unknown of exhaustion  (** Budget exhausted; see {!exhaustion}. *)

val is_implied : t -> bool
val is_refuted : t -> bool
val is_unknown : t -> bool

val elapsed_s : exhaustion -> float
(** Elapsed wall-clock time in seconds. *)

val reason_keyword : reason -> string
(** Stable one-word form (["steps"], ["nodes"], ["deadline"],
    ["cancelled"], ["crashed"]) for machine-readable surfaces — the
    audit journal and diagnostics JSON. *)

val pp_exhaustion : Format.formatter -> exhaustion -> unit
val pp : Format.formatter -> t -> unit
