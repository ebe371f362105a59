(** The span-annotated syntax tree of a regular path query.

    {!Parser} produces it from source text, with the 1-based,
    end-exclusive span of every subexpression; {!Regex.to_ast} lifts a
    plain term into it with empty spans.  {!Glushkov} builds the one
    query automaton from it. *)

type t = { node : node; span : Pathlang.Span.t }

and node =
  | Eps
  | Letter of Pathlang.Label.t
  | Concat of t * t
  | Alt of t * t
  | Star of t
  | Plus of t  (** surface sugar for [r.r*] *)
  | Opt of t  (** surface sugar for [eps|r] *)
