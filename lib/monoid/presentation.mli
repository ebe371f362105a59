(** Monoid presentations [(Gamma, Theta)]: a finite alphabet of
    generators and a finite set of equations between words over it
    (Section 4.1.1 of the paper).

    Words are {!Pathlang.Path.t}, so generators are edge labels; this is
    deliberate: the reductions of Sections 4.1.2 and 5.2 reinterpret the
    generators directly as the binary relation symbols of the constraint
    signature. *)

type t = private {
  gens : Pathlang.Label.t list;
  relations : (Pathlang.Path.t * Pathlang.Path.t) list;
}

val make :
  gens:Pathlang.Label.t list ->
  relations:(Pathlang.Path.t * Pathlang.Path.t) list ->
  (t, string) result
(** Checks that generators are distinct and every relation only uses
    them. *)

val make_exn :
  gens:Pathlang.Label.t list ->
  relations:(Pathlang.Path.t * Pathlang.Path.t) list ->
  t

val of_strings :
  gens:string list -> relations:(string * string) list -> t
(** Convenience: generators by name, relation sides as dotted paths
    (["a.b.a"]) or ["eps"].
    @raise Invalid_argument on malformed input. *)

val gens : t -> Pathlang.Label.t list
val relations : t -> (Pathlang.Path.t * Pathlang.Path.t) list

val parse : string -> (t, string) result
(** Concrete syntax, one directive per line:
    {v
      # cyclic group of order 3
      gens a
      a.a.a = eps
    v} *)

val print : t -> string
(** Renders in the {!parse} syntax. *)

val pp : Format.formatter -> t -> unit
