(** Span-carrying concrete syntax for regular path queries.

    The one regex parser: labels, [.] concatenation, [|] alternation,
    postfix [*]/[+]/[?], parentheses, the [eps] keyword — parsed with
    the {!Pathlang.Parser} span discipline: every subexpression keeps
    the 1-based, end-exclusive span of its source text.  The spans are what let the PC8xx analyses
    ({!Typecheck}, [Analysis.Querycheck]) pinpoint the exact token
    where a query leaves [Paths(Delta)].

    Query {e documents} are line-oriented, like constraint files: one
    query (or one regular word constraint [lhs -> rhs]) per line, [#]
    comments, and the same suppression pragmas ([# pathctl-disable
    CODE ...]) — pragma values are [Pathlang.Parser.pragma], so the
    whole [Analysis.Suppress] machinery applies to query files
    unchanged. *)

type error = {
  line : int;  (** 1-based line of the offending token *)
  col : int;  (** 1-based column of the offending token *)
  token : string;  (** the offending token ([""] when not token-shaped) *)
  reason : string;  (** what is wrong, without position information *)
}

val error_to_string : error -> string
(** ["line L, column C: at \"tok\": reason"]. *)

type ast = Ast.t = { node : node; span : Pathlang.Span.t }

and node = Ast.node =
  | Eps
  | Letter of Pathlang.Label.t
  | Concat of ast * ast
  | Alt of ast * ast
  | Star of ast
  | Plus of ast  (** surface sugar; {!regex_of} desugars via {!Regex.plus} *)
  | Opt of ast  (** surface sugar; {!regex_of} desugars via {!Regex.opt} *)

val regex_of : ast -> Regex.t
(** Desugar into the plain regex algebra through the {!Regex} smart
    constructors, so [regex_of] of the parse of [Regex.to_string r] is
    [r] (QCheck-checked). *)

val letters : ast -> (Pathlang.Label.t * Pathlang.Span.t) list
(** Every letter occurrence in source order, with its token span. *)

val parse : ?line:int -> string -> (ast, error) result
(** Parse a single query expression; [line] (default 1) is the source
    line recorded in the spans. *)

type item =
  | Query of ast
  | Constr of { lhs : ast; rhs : ast }
      (** a regular word constraint [lhs -> rhs] ({!Eval.constr}) *)

type located = { item : item; span : Pathlang.Span.t }

type document = { items : located list; pragmas : Pathlang.Parser.pragma list }

val document_of_string : string -> (document, error) result
(** Parses a whole query file: items with per-token spans, plus any
    suppression pragmas (with their governed line already resolved). *)
