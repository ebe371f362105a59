(** String rewriting systems over label alphabets.

    Words are represented as {!Pathlang.Path.t} (the same carrier as
    paths, which is what makes the monoid-to-path-constraint encodings
    of Sections 4.1 and 5.2 direct).  A rule [l -> r] rewrites any
    factor: [x . l . y  ->  x . r . y]. *)

type word = Pathlang.Path.t

type rule = { lhs : word; rhs : word }

val orient : word * word -> rule option
(** Orient an equation by shortlex ({!Pathlang.Path.compare}): the
    larger side becomes the left-hand side.  [None] if the sides are
    equal.  Oriented rules always strictly decrease shortlex, so
    rewriting terminates. *)

val rewrite_once : rule list -> word -> word option
(** Leftmost-outermost single step, trying rules in order; [None] if the
    word is in normal form. *)

val normalize : rule list -> word -> word
(** Normal form under exhaustive rewriting.  Terminates for
    shortlex-oriented rules.
    @raise Invalid_argument if a rule increases shortlex (which could
    loop). *)

val joinable : rule list -> word -> word -> bool
(** Whether the two words have the same normal form. *)

val critical_pairs : rule list -> (word * word) list
(** All critical pairs: overlaps (a suffix of one lhs is a prefix of
    another) and containments (one lhs is a factor of another). *)

val is_locally_confluent : rule list -> bool
(** All critical pairs joinable; with termination this is confluence
    (Newman's lemma). *)

val factor_at : word -> word -> int option
(** [factor_at l w] is the position of the leftmost occurrence of [l] as
    a factor of [w], if any ([Some 0] when [l] is empty). *)

