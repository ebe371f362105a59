type error = {
  line : int;
  col : int;
  token : string;
  reason : string;
}

let error_to_string e =
  if e.line = 0 then e.reason
  else if e.token = "" then
    Printf.sprintf "line %d, column %d: %s" e.line e.col e.reason
  else
    Printf.sprintf "line %d, column %d: at %S: %s" e.line e.col e.token e.reason

type token_spans = {
  prefix_spans : Span.t list;
  lhs_spans : Span.t list;
  rhs_spans : Span.t list;
}

let no_token_spans = { prefix_spans = []; lhs_spans = []; rhs_spans = [] }

type located = {
  constr : Constr.t;
  span : Span.t;
  tokens : token_spans;
}

type pragma = {
  codes : string list;
  file_wide : bool;
  applies_to : int option;
  pragma_span : Span.t;
}

type document = {
  constraints : located list;
  pragmas : pragma list;
}

(* --- scanning --------------------------------------------------------- *)

let is_ws = function ' ' | '\t' | '\r' -> true | _ -> false

(* Trim the bounds [i, j) of [s] to the enclosed non-whitespace region. *)
let trim_bounds s i j =
  let i = ref i and j = ref j in
  while !i < !j && is_ws s.[!i] do incr i done;
  while !j > !i && is_ws s.[!j - 1] do decr j done;
  (!i, !j)

(* The offset of the first [c] in [s] within [i, j), or [j] when there
   is none. *)
let rec find_char c s i j =
  if i >= j || s.[i] = c then i else find_char c s (i + 1) j

(* The offset of the first two-character token [c1 c2] in [s] within
   [i, j), or [j] when there is none.  Tokens never occur inside labels
   (Label.make forbids their characters). *)
let rec find_pair c1 c2 s i j =
  if i + 2 > j then j
  else if s.[i] = c1 && s.[i + 1] = c2 then i
  else find_pair c1 c2 s (i + 1) j

(* --- constraints ------------------------------------------------------ *)

(* Parse the substring [i, j) of [line] as a path, reporting the exact
   column and text of the offending label on failure.  Also returns the
   span of each label, in path order (empty for the empty path). *)
let path_at ~line_no line i j =
  let i, j = trim_bounds line i j in
  let eps =
    j - i = 3 && line.[i] = 'e' && line.[i + 1] = 'p' && line.[i + 2] = 's'
  in
  if i = j || eps then Ok (Path.empty, [])
  else begin
    let rec go start acc spans =
      let stop = find_char '.' line start j in
      let tok = String.sub line start (stop - start) in
      match Label.make tok with
      | l ->
          let acc = l :: acc in
          let spans =
            Span.v ~line:line_no ~start_col:(start + 1) ~end_col:(stop + 1)
            :: spans
          in
          if stop < j then go (stop + 1) acc spans
          else Ok (Path.of_labels (List.rev acc), List.rev spans)
      | exception Invalid_argument m ->
          Error { line = line_no; col = start + 1; token = tok; reason = m }
    in
    go i [] []
  end

(* Parse the constraint in [line]'s trimmed region [s0, e0); [line_no]
   is its 1-based position in the enclosing document. *)
let constraint_at ~line_no line s0 e0 =
  if s0 = e0 then
    Error { line = line_no; col = 1; token = ""; reason = "empty constraint" }
  else
    (* [prefix :] body, where body is [lhs -> rhs] or [lhs <- rhs]: the
       first ':' ends the prefix, and a '->' anywhere in the body wins
       over a '<-' *)
    let colon = find_char ':' line s0 e0 in
    let pstop, bstart = if colon < e0 then (colon, colon + 1) else (s0, s0) in
    let fwd = find_pair '-' '>' line bstart e0 in
    let arrow = if fwd < e0 then fwd else find_pair '<' '-' line bstart e0 in
    if arrow = e0 then
      Error
        {
          line = line_no;
          col = s0 + 1;
          token = String.sub line s0 (e0 - s0);
          reason = "no '->' or '<-' found";
        }
    else
      let kind = if fwd < e0 then Constr.Forward else Constr.Backward in
      match
        ( path_at ~line_no line s0 pstop,
          path_at ~line_no line bstart arrow,
          path_at ~line_no line (arrow + 2) e0 )
      with
      | Ok (prefix, prefix_spans), Ok (lhs, lhs_spans), Ok (rhs, rhs_spans) ->
          Ok
            {
              constr = Constr.make kind ~prefix ~lhs ~rhs;
              span = Span.v ~line:line_no ~start_col:(s0 + 1) ~end_col:(e0 + 1);
              tokens = { prefix_spans; lhs_spans; rhs_spans };
            }
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e

(* --- line documents --------------------------------------------------- *)

(* Blank and comment lines.  The test is String.trim's, which also
   strips form feeds, so a form-feed-only line stays blank. *)
let is_blank line =
  let t = String.trim line in
  t = "" || t.[0] = '#'

(* A comment line of the form [# pathctl-disable CODE ...] (next item)
   or [# pathctl-disable-file CODE ...] (whole file), trimmed to
   [s0, e0).  Returns [None] for ordinary comments. *)
let pragma_at ~line_no line s0 e0 =
  if s0 >= e0 || line.[s0] <> '#' then None
  else begin
    let i = ref (s0 + 1) in
    while !i < e0 && is_ws line.[!i] do incr i done;
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
            codes;
            file_wide;
            applies_to = None;
            pragma_span =
              Span.v ~line:line_no ~start_col:(s0 + 1) ~end_col:(e0 + 1);
          }
  end

let read_document item doc =
  (* entries in reverse document order *)
  let rec go n acc = function
    | [] -> Ok acc
    | line :: rest -> (
        let s0, e0 = trim_bounds line 0 (String.length line) in
        if is_blank line then
          match pragma_at ~line_no:n line s0 e0 with
          | Some p -> go (n + 1) (`P p :: acc) rest
          | None -> go (n + 1) acc rest
        else
          match item ~line_no:n line s0 e0 with
          | Ok it -> go (n + 1) (`I (n, it) :: acc) rest
          | Error e -> Error e)
  in
  match go 1 [] (String.split_on_char '\n' doc) with
  | Error e -> Error e
  | Ok rev_entries ->
      (* walking backwards, [next] is the line of the item after the
         current entry: the one a next-line pragma governs *)
      let items, pragmas, _ =
        List.fold_left
          (fun (items, pragmas, next) -> function
            | `I (n, it) -> (it :: items, pragmas, Some n)
            | `P p ->
                let p = if p.file_wide then p else { p with applies_to = next } in
                (items, p :: pragmas, next))
          ([], [], None) rev_entries
      in
      Ok (items, pragmas)

let document_of_string doc =
  match read_document constraint_at doc with
  | Ok (constraints, pragmas) -> Ok { constraints; pragmas }
  | Error e -> Error e

(* --- string-error entry points ---------------------------------------- *)

let constraint_of_string line =
  let s0, e0 = trim_bounds line 0 (String.length line) in
  match constraint_at ~line_no:1 line s0 e0 with
  | Ok { constr; _ } -> Ok constr
  | Error e -> Error (error_to_string e)

let constraints_of_string doc =
  match document_of_string doc with
  | Ok { constraints; _ } -> Ok (List.map (fun l -> l.constr) constraints)
  | Error e -> Error (error_to_string e)
