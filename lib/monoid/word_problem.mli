(** Solvers for instances of the word problem for (finite) monoids:
    given a presentation Theta and a test equation (alpha, beta), does
    every monoid (resp. finite monoid) and homomorphism satisfying Theta
    satisfy the test?

    Undecidable in general (Theorem 4.4), so everything here is
    budgeted; the three attack angles are
    - Knuth-Bendix completion (a convergent system decides Theta |= .
      for {e all} monoids, hence also establishes the positive side for
      finite monoids),
    - bounded bidirectional equational search (semi-decides the positive
      side),
    - separating-homomorphism search into small transformation monoids
      (semi-decides the negative side for finite monoids — and
      negativity for finite monoids implies negativity for monoids'
      finite implication question [Theta |=_f], which is the side the
      paper's reductions consume). *)

type verdict =
  | Equal  (** Theta |= alpha = beta (provable equationally). *)
  | Separated of Hom.t
      (** A homomorphism into a finite monoid respecting Theta with
          [h alpha <> h beta]: Theta |=/=_f alpha = beta (hence also
          Theta |=/= alpha = beta). *)
  | Distinct
      (** Theta |=/= alpha = beta, established by distinct normal forms
          of a convergent completion (the presented monoid separates the
          pair, but no {e finite} witness was found, so the
          finite-implication side stays open). *)
  | Unknown

val equational_search :
  ?max_words:int ->
  Presentation.t ->
  Pathlang.Path.t * Pathlang.Path.t ->
  bool option
(** Bidirectional BFS over the congruence classes: [Some true] when a
    proof of equality is found, [Some false] when the (finite) class is
    exhausted, [None] on budget. *)

val search_separating_hom :
  ?max_points:int ->
  ?max_candidates:int ->
  Presentation.t ->
  Pathlang.Path.t * Pathlang.Path.t ->
  Hom.t option
(** Enumerates generator images among transformations of up to
    [max_points] points (default 3) and returns the first homomorphism
    that respects the presentation and separates the test pair. *)

val decide :
  ?kb_max_rules:int ->
  ?search_budget:int ->
  ?max_points:int ->
  Presentation.t ->
  Pathlang.Path.t * Pathlang.Path.t ->
  verdict
(** Combines the three angles. *)
