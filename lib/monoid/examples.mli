(** A small catalog of monoid presentations and finite monoids used by
    the undecidability-reduction demonstrations and the test suite. *)

val free : int -> Presentation.t
(** Free monoid on [n] generators (no relations): the word problem is
    syntactic equality. *)

val cyclic : int -> Presentation.t
(** One generator [a] with [a^n = eps]. *)

val free_commutative2 : Presentation.t
(** Generators [a, b] with [a.b = b.a]. *)

val bicyclic : Presentation.t
(** Generators [a, b] with [a.b = eps] (the bicyclic monoid); infinite,
    but with a convergent one-rule system. *)

val idempotent2 : Presentation.t
(** Generators [a, b] with [a.a = a] and [b.b = b]. *)

val klein_four : Presentation.t
(** The Klein four-group: [a.a = eps], [b.b = eps], [a.b = b.a]. *)

val symmetric3 : Presentation.t
(** The symmetric group S3 as a monoid:
    [a.a = eps], [b.b.b = eps], [a.b.a = b.b]. *)

val catalog : (string * Presentation.t) list
(** Named presentations, used to drive benches. *)

val sample_tests : Presentation.t -> (Pathlang.Path.t * Pathlang.Path.t) list
(** A few interesting test equations for a presentation (short words
    over its generators, mixing provable and refutable instances). *)
