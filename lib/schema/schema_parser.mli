(** Concrete syntax for schemas.

    {v
      # bibliography schema (comments allowed)
      kind M
      class Person = [ name: string; SSN: string; wrote: Book ]
      class Book   = [ title: string; year: int; ref: Book; author: Person ]
      db = [ person: Person; book: Book ]
    v}

    Type expressions: an identifier is a class if declared by some
    [class] line and an atomic type otherwise; [{T}] is a set type;
    [[l1: T1; ...; ln: Tn]] is a record.  The [kind] line ([M] or [M+])
    is optional; when omitted the kind is inferred ([M] when the schema
    satisfies the M restrictions, [M+] otherwise). *)

type error = Pathlang.Parser.error
(** The one positioned parse error.  Schema-level validation failures
    (from [Mschema.make]) carry no source position and are anchored at
    1:1. *)

type spans = {
  class_spans : (string * Pathlang.Span.t) list;
      (** each declared class name and the span of its name token, in
          declaration order *)
  db_span : Pathlang.Span.t option;  (** span of the [db] keyword *)
}
(** Source locations of the declarations, for diagnostics. *)

val of_string_spanned : string -> (Mschema.t * spans, error) result

val of_string : string -> (Mschema.t, string) result
(** {!of_string_spanned} with the error rendered by
    {!Pathlang.Parser.error_to_string}. *)

val load : string -> (Mschema.t, string) result
(** {!of_string} of a file's contents. *)

val to_string : Mschema.t -> string
(** Renders in the same syntax; [of_string (to_string s)] reproduces
    the schema. *)
