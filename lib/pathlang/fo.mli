(** A small fragment of first-order logic over the signature
    [sigma = (r, E)]: one constant [r] (the root) and binary relation
    symbols (the edge labels).

    The module exists for two reasons: to make the logical reading of
    Section 2.1 executable (paths are existential chains of atoms, P_c
    constraints are the sentences of Definition 2.1), and to drive a
    naive, obviously-correct evaluator ([Sgraph.Fo_eval]) against which
    the optimized path-based model checker is property-tested. *)

type term = Root | Var of string

type formula =
  | True
  | False
  | Atom of Label.t * term * term  (** [Atom (k, s, t)] is [k(s, t)] *)
  | Eq of term * term
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Forall of string * formula
  | Exists of string * formula

val of_path : Path.t -> src:term -> dst:term -> formula
(** [of_path rho ~src ~dst] is the formula [rho(src, dst)] of
    Section 2.1, fully expanded: [Eq (src, dst)] for the empty path, and
    [exists z (k(src, z) /\ rho'(z, dst))] for [k . rho'].  Bound
    variables are fresh with respect to [src] and [dst] (they are named
    ["_p<i>"]). *)

val of_constraint : Constr.t -> formula
(** The sentence of Definition 2.1 for a P_c constraint. *)

val free_vars : formula -> string list

val pp : Format.formatter -> formula -> unit
val to_string : formula -> string
