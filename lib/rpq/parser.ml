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

type error = { line : int; col : int; token : string; reason : string }

let error_to_string e =
  if e.token = "" then
    Printf.sprintf "line %d, column %d: %s" e.line e.col e.reason
  else
    Printf.sprintf "line %d, column %d: at %S: %s" e.line e.col e.token
      e.reason

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

let meta = [ '('; ')'; '|'; '*'; '+'; '?'; '.' ]
let is_ws c = c = ' ' || c = '\t'

(* Parses [line.[i..j)] as one regex at source line [line_no], columns
   taken from the absolute offsets so the spans survive embedding in a
   longer line (constraints use this for their rhs). *)
let ast_at ~line_no line i j =
  let pos = ref i in
  let err ?(token = "") ~col reason = raise (Err { line = line_no; col; token; reason }) in
  let peek () = if !pos < j then Some line.[!pos] else None in
  let skip_ws () =
    while !pos < j && is_ws line.[!pos] do
      incr pos
    done
  in
  let span ~start ~stop = Span.v ~line:line_no ~start_col:(start + 1) ~end_col:(stop + 1) in
  let label () =
    let start = !pos in
    while
      !pos < j && (not (List.mem line.[!pos] meta)) && not (is_ws line.[!pos])
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

let trim_bounds line i j =
  let i = ref i and j = ref j in
  while !i < !j && is_ws line.[!i] do
    incr i
  done;
  while !j > !i && is_ws line.[!j - 1] do
    decr j
  done;
  (!i, !j)

let is_blank line =
  let t = String.trim line in
  t = "" || t.[0] = '#'

(* Same pragma comments as constraint files: [# pathctl-disable CODE
   ...] governs the next query line, [# pathctl-disable-file CODE ...]
   the whole file.  Values are Pathlang.Parser pragmas so the whole
   Suppress machinery (family patterns, PC510 staleness) applies to
   query files unchanged. *)
let pragma_of_line ~line_no line =
  let s0, e0 = trim_bounds line 0 (String.length line) in
  if s0 >= e0 || line.[s0] <> '#' then None
  else begin
    let i = ref (s0 + 1) in
    while !i < e0 && is_ws line.[!i] do
      incr i
    done;
    let starts kw =
      let n = String.length kw in
      !i + n <= e0
      && String.sub line !i n = kw
      && (!i + n = e0 || is_ws line.[!i + n])
    in
    let keyword =
      if starts "pathctl-disable-file" then Some true
      else if starts "pathctl-disable" then Some false
      else None
    in
    match keyword with
    | None -> None
    | Some file_wide ->
        let kwlen =
          String.length
            (if file_wide then "pathctl-disable-file" else "pathctl-disable")
        in
        let rest = String.sub line (!i + kwlen) (e0 - !i - kwlen) in
        let codes =
          String.map (fun c -> if c = ',' || c = '\t' then ' ' else c) rest
          |> String.split_on_char ' '
          |> List.filter (fun s -> s <> "")
        in
        Some
          {
            Pparser.codes;
            file_wide;
            applies_to = None;
            pragma_span =
              Span.v ~line:line_no ~start_col:(s0 + 1) ~end_col:(e0 + 1);
          }
  end

(* One item per line: a bare query, or a regular word constraint
   [lhs -> rhs] (both sides full regexes). *)
let item_of_line ~line_no line =
  let s0, e0 = trim_bounds line 0 (String.length line) in
  let span = Span.v ~line:line_no ~start_col:(s0 + 1) ~end_col:(e0 + 1) in
  let arrow =
    let rec find i =
      if i + 2 > e0 then None
      else if line.[i] = '-' && i + 1 < e0 && line.[i + 1] = '>' then Some i
      else find (i + 1)
    in
    find s0
  in
  match arrow with
  | None -> { item = Query (ast_at ~line_no line s0 e0); span }
  | Some k ->
      let lhs = ast_at ~line_no line s0 k in
      let rhs = ast_at ~line_no line (k + 2) e0 in
      { item = Constr { lhs; rhs }; span }

let document_of_string doc =
  let lines = String.split_on_char '\n' doc in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if is_blank line then
          match pragma_of_line ~line_no:n line with
          | Some p -> go (n + 1) (`P p :: acc) rest
          | None -> go (n + 1) acc rest
        else (
          match item_of_line ~line_no:n line with
          | it -> go (n + 1) (`I it :: acc) rest
          | exception Err e -> Error e)
  in
  match go 1 [] lines with
  | Error e -> Error e
  | Ok entries ->
      let rec resolve = function
        | [] -> []
        | `P p :: rest when not p.Pparser.file_wide ->
            let applies_to =
              List.find_map
                (function
                  | `I it -> Some it.span.Span.line
                  | `P _ -> None)
                rest
            in
            { p with Pparser.applies_to } :: resolve rest
        | `P p :: rest -> p :: resolve rest
        | `I _ :: rest -> resolve rest
      in
      Ok
        {
          items = List.filter_map (function `I i -> Some i | `P _ -> None) entries;
          pragmas = resolve entries;
        }
