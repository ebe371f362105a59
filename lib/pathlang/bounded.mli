(** Local extent constraints: Definition 2.3 of the paper.

    A constraint [phi] in P_c is {e bounded by} a path [rho] and a label
    [K] when it has the forward form
    [forall x (rho.K(r,x) -> forall y (beta(x,y) -> gamma(x,y)))]
    with [beta <> eps] and [K] not a prefix of [beta].

    A finite subset [Sigma] of P_c has {e prefix bounded by [rho] and [K]}
    when every member either (i) is bounded by [rho] and [K], or (ii) has
    prefix [rho . rho'] where [K] is not a prefix of [rho'], and moreover
    if [rho' = eps] then the member is of the special form
    [forall x (rho(r,x) -> forall y (beta(x,y) -> K(x,y)))].

    Such a set partitions into [Sigma_K] (the local extent constraints on
    the local database reached by [rho . K]) and [Sigma_r] (constraints on
    the other local databases). *)

val is_bounded : alpha:Path.t -> k:Label.t -> Constr.t -> bool
(** [is_bounded ~alpha ~k phi] decides whether [phi] is bounded by
    [alpha] and [k] in the sense of Definition 2.3. *)

type partition = {
  alpha : Path.t;  (** the common prefix [rho] *)
  k : Label.t;  (** the bounding label [K] *)
  sigma_k : Constr.t list;  (** members bounded by [alpha] and [k] *)
  sigma_r : Constr.t list;  (** members on other local databases *)
}

val partition :
  alpha:Path.t -> k:Label.t -> Constr.t list -> (partition, string) result
(** [partition ~alpha ~k sigma] checks that [sigma] is a subset of P_c
    with prefix bounded by [alpha] and [k], and splits it into
    [Sigma_K] / [Sigma_r].  Returns [Error msg] naming the first
    offending constraint otherwise. *)

val infer_bound : Constr.t -> (Path.t * Label.t) list
(** [infer_bound phi] lists the candidate [(alpha, k)] pairs for which
    [phi] is bounded: every split of [pf phi] as [alpha . k] that
    satisfies the side conditions.  (The paper determines [alpha] and [K]
    from the test constraint [phi]; the last split of its prefix is the
    canonical choice, but all valid splits are returned.) *)

val find_bound : ?phi:Constr.t -> Constr.t list -> (Path.t * Label.t) option
(** The first candidate bound under which [sigma] partitions: the
    candidates are [infer_bound phi], or when no [phi] is given every
    member's, in order.  [None] when [sigma] is not prefix bounded by
    any of them. *)
