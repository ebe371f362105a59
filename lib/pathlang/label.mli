(** Edge labels.

    A label is the name of a binary relation symbol in the signature
    [sigma = (r, E)] of Section 2.1 of the paper: an edge label of a
    rooted edge-labeled directed graph.  Labels are non-empty strings that
    contain no whitespace or other control character, no path separator
    ['.'] and none of the reserved delimiters used by the constraint
    DSL. *)

type t
(** An interned label: {!make} returns the one value per distinct name,
    which carries the name and a dense integer id.  Physical equality
    is label equality. *)

val make : string -> t
(** [make s] validates [s] and returns its interned label: one table
    lookup, under {!Intern_lock} only once it is armed.  The first
    [make] of a name assigns it the next id.
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
(** Byte order of the names, whatever order the labels were made in;
    {!Set}, {!Map} and polymorphic [compare] agree with it. *)

val hash : t -> int
(** {!id}: consistent with {!equal}, but, like the id, not stable
    across runs. *)

val id : t -> int
(** The label's interned id: a dense non-negative integer, unique per
    distinct label and stable for the lifetime of the process (the
    first {!make} of a name assigns the next id).  A field read: no
    table lookup and no lock.  Graph runs, {!Path} hash-consing and the
    constraint {!Store} index on it.  Not stable across runs: never
    persist it. *)

val interned : unit -> int
(** The number of distinct labels made so far in this process. *)

val pp : Format.formatter -> t -> unit

(** Sets and maps over labels. *)
module Set : Set.S with type elt = t

module Map : Map.S with type key = t
