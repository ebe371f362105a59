(** Regular expressions over edge labels.

    The companion query formalism of [Abiteboul-Vianu 97] (the paper's
    reference [4]): where P_c constraints use plain paths, [4] also
    studied constraints whose paths are regular expressions.  The paper
    explicitly leaves regex {e constraints} out of scope ("We do not
    consider here constraints defined in terms of regular expressions",
    Section 1), and so do we on the implication side — but the query
    side, regular path queries, is standard semistructured-data
    machinery and is provided here: terms (parsed by {!Parser}),
    language tests on their {!Glushkov} automata, and graph evaluation
    (in {!Eval}). *)

type t =
  | Eps
  | Letter of Pathlang.Label.t
  | Concat of t * t
  | Alt of t * t
  | Star of t

val eps : t
val letter : Pathlang.Label.t -> t
val concat : t -> t -> t
val alt : t -> t -> t
val star : t -> t
val plus : t -> t
(** [plus r = concat r (star r)]. *)

val opt : t -> t
(** [opt r = alt eps r]. *)

val of_path : Pathlang.Path.t -> t

val to_string : t -> string
(** The concrete syntax {!Parser.parse} reads back to the same term:
    labels; [.] concatenation; [|] alternation; postfix [*]; parentheses;
    [eps].  Example: ["book.(ref)*.author"]. *)

val pp : Format.formatter -> t -> unit

val labels_used : t -> Pathlang.Label.Set.t

val to_ast : t -> Ast.t
(** The term as a syntax tree with empty spans, for {!Glushkov.make}. *)

val matches : t -> Pathlang.Path.t -> bool

val included : ?alphabet:Pathlang.Label.t list -> t -> t -> bool
(** Language inclusion [L(r1) subseteq L(r2)] (over the union of both
    expressions' alphabets plus [alphabet]). *)

val equivalent : ?alphabet:Pathlang.Label.t list -> t -> t -> bool

val example_word : t -> Pathlang.Path.t option
(** A shortest member of the language, if non-empty. *)
