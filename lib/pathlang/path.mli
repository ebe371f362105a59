(** Paths: finite sequences of edge labels.

    Following Section 2.1 of the paper, a path is a first-order formula
    [rho(x, y)] asserting that vertex [y] is reachable from vertex [x] by
    following the sequence of edge labels [rho].  Syntactically a path is
    just a word over the label alphabet; the empty word is the formula
    [x = y] (the {e empty path} epsilon). *)

type t

val empty : t
(** The empty path epsilon, i.e. the formula [x = y]. *)

val is_empty : t -> bool

val of_labels : Label.t list -> t
val to_labels : t -> Label.t list

val of_strings : string list -> t
(** [of_strings ss] builds a path from raw label names.
    @raise Invalid_argument on an invalid label. *)

val singleton : Label.t -> t

val cons : Label.t -> t -> t
(** [cons k rho] is the path [k . rho]. *)

val snoc : t -> Label.t -> t
(** [snoc rho k] is the path [rho . k]. *)

val concat : t -> t -> t
(** [concat rho tau] is the concatenation [rho . tau] of Section 2.1. *)

val length : t -> int

val head : t -> Label.t option
(** First label of the path, or [None] for epsilon. *)

val last : t -> Label.t option

val split_last : t -> (t * Label.t) option
(** [split_last rho] is [Some (rho', k)] with [rho = rho' . k], computed
    in one pass; [None] for epsilon. *)

val is_prefix : t -> t -> bool
(** [is_prefix rho tau] is true iff [rho <=_p tau], i.e. there is a path
    [rho'] with [tau = rho . rho'] (Section 2.1). *)

val strip_prefix : prefix:t -> t -> t option
(** [strip_prefix ~prefix:rho tau] is [Some rho'] when [tau = rho . rho'],
    and [None] when [rho] is not a prefix of [tau]. *)

val prefixes : t -> t list
(** All prefixes of the path, from epsilon up to the path itself,
    in increasing length order. *)

val rev : t -> t

val labels_used : t -> Label.Set.t

val equal : t -> t -> bool
(** O(1): paths are hash-consed (two live paths with the same labels
    are the same object), so equality is a pointer test.  Agrees with
    structural equality of the label sequences (property-tested). *)

val compare : t -> t -> int
(** Shortlex-compatible total order: shorter paths first, then
    lexicographic on labels.  This is the reduction order used by the
    Knuth-Bendix substrate, and a convenient canonical order everywhere
    else. *)

val hash : t -> int
(** O(1): precomputed at interning time over the label ids. *)

val id : t -> int
(** The path's interning id: unique among live paths, stable for the
    value's lifetime.  {!Store} keys its hash tables on it.  Like
    {!Label.id} it is process-local — never persist it. *)

val pp : Format.formatter -> t -> unit
(** Prints [a.b.c]; the empty path prints as [eps]. *)

val to_string : t -> string

val of_string : string -> t
(** Parses the output of {!to_string}: dot-separated labels, or ["eps"]
    (or [""]) for the empty path.
    @raise Invalid_argument on malformed input. *)

(** Sets and maps over paths (ordered by {!compare}). *)
module Set : Set.S with type elt = t

module Map : Map.S with type key = t
