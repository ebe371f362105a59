(** Types of the object-oriented models M+ and M (Section 3.2.1).

    Over a finite set of classes [C] and atomic types [B], the types of
    M+ are
    [tau ::= b | C | {tau} | [l1 : tau1; ...; ln : taun]];
    M restricts them to [t ::= b | C] and [tau ::= t | record of t]
    (no sets, no nested records).  The restriction is enforced by
    {!Mschema}, not here.

    These same values double as the {e sorts} [T(Delta)] of the
    signature [sigma(Delta)]: every node of an abstract database carries
    exactly one of them. *)

type atomic = private string

val atomic : string -> atomic
val atomic_name : atomic -> string

val int_ : atomic
val string_ : atomic

type cname = private string

val cname : string -> cname
val cname_name : cname -> string

type t =
  | Atomic of atomic
  | Class of cname
  | Set of t
  | Record of (Pathlang.Label.t * t) list

val record : (string * t) list -> t
(** Convenience constructor taking raw label names.
    @raise Invalid_argument on duplicate or invalid labels. *)

val equal : t -> t -> bool
(** Structural equality up to record field order. *)

val compare : t -> t -> int
(** Total order compatible with {!equal}. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Map : Map.S with type key = t
module Set_of : Set.S with type elt = t
