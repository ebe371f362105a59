(** Schemas of the object-oriented models (Section 3.2.1 / 3.3).

    A schema [Delta = (C, nu, DBtype)] has a finite set of classes, a
    mapping [nu] from classes to types that are neither atomic nor class
    types (i.e. record or set types), and an entry-point type [DBtype]
    of the same shape.

    [kind] selects the model:
    - [M_plus]: full types (classes, records, sets, recursion);
    - [M]: no sets anywhere, and records may only hold atomic or class
      types (no nesting), per Section 3.3. *)

type kind = M | M_plus

type t = private {
  kind : kind;
  classes : (Mtype.cname * Mtype.t) list;  (** the mapping [nu] *)
  dbtype : Mtype.t;
}

val make :
  kind:kind ->
  classes:(Mtype.cname * Mtype.t) list ->
  dbtype:Mtype.t ->
  (t, string) result
(** Validates: distinct class names; every [nu(C)] and [DBtype] is a
    record or set type; every class mentioned anywhere is declared; no
    class shares its name with an atomic type mentioned anywhere (the
    two sorts would print alike, so a printed schema would re-parse
    with the atomic turned into the class); no
    record type, at any depth, repeats a field label (labels are
    functional on records, so the schema graph is deterministic); the
    [M] restrictions when [kind = M]. *)

val make_exn :
  kind:kind -> classes:(Mtype.cname * Mtype.t) list -> dbtype:Mtype.t -> t

val kind : t -> kind
val dbtype : t -> Mtype.t
val classes : t -> (Mtype.cname * Mtype.t) list

val class_body : t -> Mtype.cname -> Mtype.t
(** [nu(C)].  @raise Not_found on an undeclared class. *)

val example_3_1 : t
(** The bibliography schema of Example 3.1: classes [Book] and
    [Person], with optional sub-elements modeled as sets, in M+. *)

val bib_m : t
(** An M variant of the bibliography schema (sets removed: one author,
    one reference, mandatory year), used by the typed-implication
    examples and tests. *)

val random_m :
  rng:Random.State.t -> classes:int -> fields:int -> atoms:int -> t
(** Random M schema for benches: [classes] classes, each a record of
    [fields] fields whose targets are uniformly chosen among the
    classes and [atoms] atomic types; [DBtype] is a record with one
    field per class. *)

val pp : Format.formatter -> t -> unit
