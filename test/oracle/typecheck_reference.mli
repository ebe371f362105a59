(** The fresh-state Thompson typing of a regular path query, kept as
    the reference for [Rpq.Typecheck]'s position-based attribution.
    Each function means what its [Rpq.Typecheck] namesake means. *)

type t

val run : Schema.Mschema.t -> Rpq.Parser.ast -> t
val empty_query : t -> bool

val first_dead :
  t -> (Pathlang.Label.t * Pathlang.Span.t * Schema.Mtype.t list) option

val dead_subexprs : t -> Rpq.Parser.ast list
val sorts_after : t -> Rpq.Parser.ast -> Schema.Mtype.t list
val answer_sorts : t -> Schema.Mtype.t list

val letter_chain :
  t -> (Pathlang.Label.t * Pathlang.Span.t * Schema.Mtype.t list) list
