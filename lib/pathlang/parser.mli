(** Concrete syntax for P_c constraints, and the positioned error and
    line-document reader every input parser shares.

    One constraint per line:
    {v
      # extent constraint (word constraint: empty prefix)
      book.author -> person
      # forward constraint with prefix MIT
      MIT : book.author -> person
      # backward (inverse) constraint: wrote(y, x) for author(x, y)
      book : author <- wrote
      # the empty path is written eps
      MIT.book : eps -> ref
    v}
    Blank lines and lines starting with [#] are ignored.  Whitespace is
    space, tab and ['\r'] (so CRLF files read like LF files), for every
    line syntax that goes through {!read_document}.

    Entry points: {!document_of_string} (constraints with token spans
    and pragmas), and {!constraint_of_string} / {!constraints_of_string}
    with the error rendered by {!error_to_string}. *)

type error = {
  line : int;  (** 1-based line of the offending token *)
  col : int;  (** 1-based column of the offending token *)
  token : string;  (** the offending token ([""] when not token-shaped) *)
  reason : string;  (** what is wrong, without position information *)
}
(** A structured parse error, precise enough for editor/CI diagnostics:
    the one error record of every input parser ([Rpq.Parser],
    [Schema.Schema_parser], [Schema.Odl], [Analysis.Config]).  [line =
    0] marks an error with no source position (an ODL declaration
    problem found after parsing). *)

val error_to_string : error -> string
(** ["line L, column C: at \"tok\": reason"]; without the [at] part when
    [token] is empty, and the reason alone when [line = 0]. *)

val is_ws : char -> bool
(** The one whitespace rule of the line syntaxes: space, tab, ['\r']. *)

val find_pair : char -> char -> string -> int -> int -> int
(** [find_pair c1 c2 s i j] is the offset of the first two-character
    token [c1 c2] (such as ["->"]) in [s] from offset [i] up to, not
    including, [j], compared in place; [j] when there is none. *)

type token_spans = {
  prefix_spans : Span.t list;  (** one span per prefix label, in order *)
  lhs_spans : Span.t list;
  rhs_spans : Span.t list;
}
(** The span of every label token of a constraint, used by analyses that
    localize findings to a single path step.  All lists are empty when
    the constraint came from a syntax without token positions (XML). *)

val no_token_spans : token_spans

type located = {
  constr : Constr.t;
  span : Span.t;  (** the whole constraint's text *)
  tokens : token_spans;
}

type pragma = {
  codes : string list;
      (** exact codes ([PC300]) or families ([PC3xx]); may be empty *)
  file_wide : bool;  (** [pathctl-disable-file] vs [pathctl-disable] *)
  applies_to : int option;
      (** for next-line pragmas, the 1-based line of the governed
          item (constraint or query); [None] when none follows *)
  pragma_span : Span.t;
}
(** A suppression comment: [# pathctl-disable CODE ...] silences the
    listed diagnostics on the next item, [# pathctl-disable-file
    CODE ...] on the whole file.  Codes may be separated by spaces or
    commas.  Ordinary comments are not pragmas. *)

type document = {
  constraints : located list;
  pragmas : pragma list;
}

val read_document :
  (line_no:int -> string -> int -> int -> ('a, error) result) ->
  string ->
  ('a list * pragma list, error) result
(** [read_document item src] reads a line document: [src] split on
    ['\n'], blank and [#] lines skipped except suppression pragmas, and
    every other line parsed by [item ~line_no line s0 e0], where [s0]
    and [e0] (end-exclusive) bound the line with its whitespace
    trimmed.  Returns the items and the pragmas in document order,
    each next-line pragma's [applies_to] resolved to the line of the
    item after it; the first item error ends the read.  Constraint files and query files both
    go through it. *)

val document_of_string : string -> (document, error) result
(** Parses a whole document: constraints with per-token spans, plus any
    suppression pragmas found in comments (with their governed line
    already resolved). *)

val constraint_of_string : string -> (Constr.t, string) result
(** Parses a single constraint (the input is treated as line 1); the
    error is rendered by {!error_to_string}. *)

val constraints_of_string : string -> (Constr.t list, string) result
(** Parses a whole document (one constraint per line); the error message
    carries the 1-based line number, column, and the offending token. *)
