(** Edge labels.

    A label is the name of a binary relation symbol in the signature
    [sigma = (r, E)] of Section 2.1 of the paper: an edge label of a
    rooted edge-labeled directed graph.  Labels are non-empty strings that
    contain no whitespace or other control character, no path separator
    ['.'] and none of the reserved delimiters used by the constraint
    DSL. *)

type t = private string

val make : string -> t
(** [make s] validates [s] and returns it as a label.
    @raise Invalid_argument if [s] is empty or contains a forbidden
    character (space, a control character — tab, newline, CR, form
    feed, NUL and the rest of ['\000'..'\031'], and DEL — ['.'],
    ['('], [')'], ['['], [']'], [':'], ['>'], ['<'], ['-'], ['='],
    [','])). *)

val of_string : string -> t
(** Alias of {!make}. *)

val to_string : t -> string

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val id : t -> int
(** The label's interned id: a dense non-negative integer, unique per
    distinct label and stable for the lifetime of the process (first
    use assigns the next id).  {!Path} hash-consing and the constraint
    {!Store} index on it.  Not stable across runs: never persist it. *)

val pp : Format.formatter -> t -> unit

(** Sets and maps over labels. *)
module Set : Set.S with type elt = t

module Map : Map.S with type key = t
