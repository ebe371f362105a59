(* Span-carrying concrete syntax for regular path queries.

   Same token discipline as Pathlang.Parser: 1-based lines and columns,
   end-exclusive spans, structured errors precise enough for editor/CI
   diagnostics.  The grammar: labels, [.] concatenation, [|]
   alternation, postfix [*]/[+]/[?], parentheses and the [eps] keyword.
   Every subexpression keeps the span of its source text, which is what
   lets the PC8xx analyses pinpoint the exact token where a query
   leaves Paths(Delta).  This is the only regex parser: plain terms are
   [regex_of] of its tree. *)

module Label = Pathlang.Label
module Span = Pathlang.Span
module Pparser = Pathlang.Parser

type error = Pparser.error

let error_to_string = Pparser.error_to_string

type ast = Ast.t = { node : node; span : Span.t }

and node = Ast.node =
  | Eps
  | Letter of Label.t
  | Concat of ast * ast
  | Alt of ast * ast
  | Star of ast
  | Plus of ast
  | Opt of ast

(* Desugar into the plain regex algebra through the Regex smart
   constructors, so [regex_of] of a parse of [Regex.to_string r] is
   [r] again. *)
let rec regex_of a =
  match a.node with
  | Eps -> Regex.eps
  | Letter k -> Regex.letter k
  | Concat (x, y) -> Regex.concat (regex_of x) (regex_of y)
  | Alt (x, y) -> Regex.alt (regex_of x) (regex_of y)
  | Star x -> Regex.star (regex_of x)
  | Plus x -> Regex.plus (regex_of x)
  | Opt x -> Regex.opt (regex_of x)

let rec letters a =
  match a.node with
  | Eps -> []
  | Letter k -> [ (k, a.span) ]
  | Concat (x, y) | Alt (x, y) -> letters x @ letters y
  | Star x | Plus x | Opt x -> letters x

(* --- the single-expression parser ----------------------------------------- *)

exception Err of error

let is_meta = function
  | '(' | ')' | '|' | '*' | '+' | '?' | '.' -> true
  | _ -> false

(* Parses [line.[i..j)] as one regex at source line [line_no], columns
   taken from the absolute offsets so the spans survive embedding in a
   longer line (constraints use this for their rhs). *)
let ast_at ~line_no line i j =
  let pos = ref i in
  let err ?(token = "") ~col reason =
    raise (Err { Pparser.line = line_no; col; token; reason })
  in
  let peek () = if !pos < j then Some line.[!pos] else None in
  let skip_ws () =
    while !pos < j && Pparser.is_ws line.[!pos] do
      incr pos
    done
  in
  let span ~start ~stop = Span.v ~line:line_no ~start_col:(start + 1) ~end_col:(stop + 1) in
  let label () =
    let start = !pos in
    while
      !pos < j && (not (is_meta line.[!pos])) && not (Pparser.is_ws line.[!pos])
    do
      incr pos
    done;
    if !pos = start then
      err ~col:(start + 1)
        (match peek () with
        | None -> "expected a label or '(' before end of input"
        | Some c -> Printf.sprintf "expected a label or '(', found %C" c)
    else (String.sub line start (!pos - start), start, !pos)
  in
  let rec alt_level () =
    let left = cat_level () in
    skip_ws ();
    match peek () with
    | Some '|' ->
        incr pos;
        let right = alt_level () in
        {
          node = Alt (left, right);
          span =
            Span.v ~line:line_no ~start_col:left.span.Span.start_col
              ~end_col:right.span.Span.end_col;
        }
    | _ -> left
  and cat_level () =
    let left = rep_level () in
    skip_ws ();
    match peek () with
    | Some '.' ->
        incr pos;
        let right = cat_level () in
        {
          node = Concat (left, right);
          span =
            Span.v ~line:line_no ~start_col:left.span.Span.start_col
              ~end_col:right.span.Span.end_col;
        }
    | _ -> left
  and rep_level () =
    let base = atom () in
    let rec post r =
      skip_ws ();
      let wrap mk =
        incr pos;
        post
          {
            node = mk r;
            span =
              Span.v ~line:line_no ~start_col:r.span.Span.start_col
                ~end_col:(!pos + 1);
          }
      in
      match peek () with
      | Some '*' -> wrap (fun r -> Star r)
      | Some '+' -> wrap (fun r -> Plus r)
      | Some '?' -> wrap (fun r -> Opt r)
      | _ -> r
    in
    post base
  and atom () =
    skip_ws ();
    match peek () with
    | Some '(' ->
        let start = !pos in
        incr pos;
        let r = alt_level () in
        skip_ws ();
        (match peek () with
        | Some ')' ->
            incr pos;
            (* composite groups take the parenthesized extent; a lone
               token keeps its own span — PC800/PC801 anchor on the
               token, not its parentheses *)
            (match r.node with
            | Letter _ | Eps -> r
            | _ -> { r with span = span ~start ~stop:!pos })
        | _ -> err ~col:(start + 1) ~token:"(" "unbalanced parenthesis")
    | _ -> (
        let name, start, stop = label () in
        let sp = span ~start ~stop in
        match name with
        | "eps" -> { node = Eps; span = sp }
        | name -> (
            match Label.make name with
            | k -> { node = Letter k; span = sp }
            | exception Invalid_argument m ->
                err ~col:(start + 1) ~token:name m))
  in
  skip_ws ();
  let r = alt_level () in
  skip_ws ();
  if !pos <> j then
    err
      ~col:(!pos + 1)
      ~token:(String.make 1 line.[!pos])
      "trailing input after the query";
  r

let parse ?(line = 1) src =
  match ast_at ~line_no:line src 0 (String.length src) with
  | r -> Ok r
  | exception Err e -> Error e

(* --- query documents ------------------------------------------------------- *)

type item = Query of ast | Constr of { lhs : ast; rhs : ast }

type located = { item : item; span : Span.t }

type document = { items : located list; pragmas : Pparser.pragma list }

(* One item per line: a bare query, or a regular word constraint
   [lhs -> rhs] (both sides full regexes). *)
let item_at ~line_no line s0 e0 =
  let span = Span.v ~line:line_no ~start_col:(s0 + 1) ~end_col:(e0 + 1) in
  let arrow = Pparser.find_pair '-' '>' line s0 e0 in
  match
    if arrow = e0 then Query (ast_at ~line_no line s0 e0)
    else
      let lhs = ast_at ~line_no line s0 arrow in
      let rhs = ast_at ~line_no line (arrow + 2) e0 in
      Constr { lhs; rhs }
  with
  | item -> Ok { item; span }
  | exception Err e -> Error e

let document_of_string doc =
  match Pparser.read_document item_at doc with
  | Ok (items, pragmas) -> Ok { items; pragmas }
  | Error e -> Error e
