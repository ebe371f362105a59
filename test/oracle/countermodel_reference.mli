(** The from-scratch typed-M model construction, kept as the
    differential-testing oracle for {!Core.Typed_m}'s countermodels:
    each call closes the prefix closure of [Sigma]'s and the goal's
    endpoint paths under the congruence by a naive fixpoint (merge the
    [l]-children of any two equal paths until nothing changes), then
    builds one node per class and one generic node per sort that a
    missing successor needs.  It shares no state between calls. *)

type outcome =
  | Implied
  | Not_implied of Schema.Typecheck.t
  | Vacuous  (** [Sigma] forces two paths of different sorts together *)

val decide :
  Schema.Mschema.t ->
  sigma:Pathlang.Constr.t list ->
  phi:Pathlang.Constr.t ->
  outcome
(** The schema must be of kind M and every constraint's paths must be in
    [Paths(Delta)]. *)

val canonical_model :
  Schema.Mschema.t -> sigma:Pathlang.Constr.t list -> Schema.Typecheck.t option
(** The model of [Sigma] alone; [None] when [Sigma] is unsatisfiable. *)

val reachable_isomorphic : Schema.Typecheck.t -> Schema.Typecheck.t -> bool
(** Whether the parts of two typed M structures reachable from their
    roots are isomorphic, sorts included.  Both must be
    label-deterministic (every M structure is), so one simultaneous walk
    from the roots decides it. *)
