(** Source spans for diagnostics.

    A span locates a region of a source file: a 1-based line number and
    a 1-based, end-exclusive column range on that line.  Spans are
    produced by the span-carrying parser entry points
    ({!Parser.document_of_string}, [Rpq.Parser.document_of_string],
    [Schema.Schema_parser.of_string_spanned]) and consumed by the static
    analyzer's diagnostics. *)

type t = {
  line : int;  (** 1-based line number *)
  start_col : int;  (** 1-based column of the first character *)
  end_col : int;  (** 1-based column one past the last character *)
}

val v : line:int -> start_col:int -> end_col:int -> t
(** Clamps degenerate inputs so that [line >= 1] and
    [end_col >= start_col >= 1]. *)

val point : line:int -> col:int -> t
(** A single-character span. *)

val of_offset : string -> int -> int * int
(** [of_offset src pos] is the [(line, col)] (both 1-based) of the byte
    offset [pos] in [src]; offsets past the end locate one past the
    last character. *)

val pp : Format.formatter -> t -> unit
(** Prints [line:start-end] (or [line:col] when one character wide). *)

val to_string : t -> string
