(** Database instances [I = (pi, nu, d)] of a schema (Section 3.2.1) and
    the Lemma 3.1 translation between instances and abstract databases
    ([U_f(Delta)]-structures).

    An instance assigns to every class a finite set of oids, to every
    oid a value of the class's body type, and fixes an entry-point value
    [d] of type [DBtype].  Values are finite trees whose leaves are
    atoms and oids, so recursion always passes through a class. *)

type value =
  | Vatom of Mtype.atomic * string
      (** an element of the atomic type's domain, named by a string *)
  | Void of Mtype.cname * int  (** a reference to an oid *)
  | Vset of value list
  | Vrecord of (Pathlang.Label.t * value) list

type t = private {
  schema : Mschema.t;
  oids : ((Mtype.cname * int) * value) list;
      (** each oid with its state [nu(oid)] *)
  entry : value;
}

val make :
  schema:Mschema.t ->
  oids:((Mtype.cname * int) * value) list ->
  entry:value ->
  (t, string) result
(** Validates oid uniqueness and full type-correctness of every value
    (states against class bodies, entry against [DBtype], references
    against declared oids). *)

val make_exn :
  schema:Mschema.t ->
  oids:((Mtype.cname * int) * value) list ->
  entry:value ->
  t

val to_structure : t -> Typecheck.t
(** Lemma 3.1, instance to abstract database: oids become class-sorted
    nodes; atom / set / record values become value nodes {e interned by
    contents} (so the extensionality half of Phi(Delta) holds by
    construction); a class node carries its state's edges directly.
    The result is guaranteed to satisfy Phi(Delta). *)

val of_structure : Mschema.t -> Typecheck.t -> (t, string list) result
(** Lemma 3.1, abstract database to instance: requires the structure to
    validate against the schema first. *)

val sat : t -> Pathlang.Constr.t -> bool
(** [I |= phi], defined through {!to_structure} (the paper defines the
    instance-level notion in the full version and proves it transfers
    exactly; here the transfer is the definition and the test suite
    checks it is stable under {!of_structure}/{!to_structure}
    round-trips). *)

val pp : Format.formatter -> t -> unit
