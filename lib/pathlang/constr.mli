(** The path constraint language P_c (Definition 2.1) and the word
    constraint class P_w (Definition 2.2).

    A {e forward} constraint is the sentence
    [forall x (alpha(r,x) -> forall y (beta(x,y) -> gamma(x,y)))]
    and a {e backward} constraint is
    [forall x (alpha(r,x) -> forall y (beta(x,y) -> gamma(y,x)))].

    The path [alpha] is the {e prefix} of the constraint, written
    [pf(phi)] in the paper.  A {e word constraint} (P_w) is a forward
    constraint whose prefix is the empty path. *)

type kind = Forward | Backward

type t = private { kind : kind; prefix : Path.t; lhs : Path.t; rhs : Path.t }
(** [prefix] is [alpha], [lhs] is [beta] and [rhs] is [gamma] in the
    notation above. *)

val forward : prefix:Path.t -> lhs:Path.t -> rhs:Path.t -> t
val backward : prefix:Path.t -> lhs:Path.t -> rhs:Path.t -> t

val word : lhs:Path.t -> rhs:Path.t -> t
(** [word ~lhs ~rhs] is the word constraint
    [forall x (lhs(r,x) -> rhs(r,x))]: a forward constraint with empty
    prefix (Definition 2.2). *)

val make : kind -> prefix:Path.t -> lhs:Path.t -> rhs:Path.t -> t

val kind : t -> kind
val prefix : t -> Path.t

val pf : t -> Path.t
(** Synonym of {!prefix}: the paper's [pf(phi)]. *)

val lhs : t -> Path.t
val rhs : t -> Path.t

val is_word : t -> bool
(** True iff the constraint is in P_w: forward with empty prefix. *)

val as_word : t -> (Path.t * Path.t) option
(** [as_word phi] is [Some (lhs, rhs)] when [phi] is a word constraint. *)

val shift : Path.t -> t -> t
(** [shift rho phi] is the paper's function [f(rho, phi)] of Section 5.1:
    the constraint [phi] with [rho] prepended to its prefix.  It satisfies
    [pf (shift rho phi) = Path.concat rho (pf phi)]. *)

val unshift : Path.t -> t -> t option
(** [unshift rho phi] undoes {!shift}: [Some psi] with
    [shift rho psi = phi] when [rho] is a prefix of [pf phi], else
    [None].  These are the paper's prefix-stripping functions [g1]/[g2]
    (Section 5.1), expressed generically. *)

val labels_used : t -> Label.Set.t

val paths_used : t -> Path.t list
(** The root-anchored paths the constraint walks: for a forward
    constraint [prefix], [prefix.lhs] and [prefix.rhs]; for a backward
    constraint [prefix], [prefix.lhs] and [prefix.lhs.rhs] (the return
    path starts at the [lhs] endpoint). *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Concrete syntax (also accepted by {!Parser}):
    - word / forward: [alpha : beta -> gamma] (the [alpha :] part is
      omitted when [alpha] is empty),
    - backward: [alpha : beta <- gamma]. *)

val to_string : t -> string

val to_fo_string : t -> string
