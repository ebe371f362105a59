module Label = Pathlang.Label
module Path = Pathlang.Path

type t =
  | Eps
  | Letter of Label.t
  | Concat of t * t
  | Alt of t * t
  | Star of t

let eps = Eps
let letter k = Letter k
let concat a b = match (a, b) with Eps, r | r, Eps -> r | _ -> Concat (a, b)
let alt a b = Alt (a, b)
let star = function Star r -> Star r | r -> Star r
let plus r = concat r (star r)
let opt r = alt Eps r

let of_path p =
  List.fold_left (fun acc k -> concat acc (Letter k)) Eps (Path.to_labels p)

let rec to_string_prec outer r =
  let prec = function
    | Alt _ -> 0
    | Concat _ -> 1
    | Star _ -> 2
    | Eps | Letter _ -> 3
  in
  let s =
    match r with
    | Eps -> "eps"
    | Letter k -> Label.to_string k
    (* [.] and [|] parse right-associatively, so a left-nested child at
       the operator's own level must be parenthesized — printing
       Concat (Concat (a, b), c) as "a.b.c" would re-parse as
       Concat (a, Concat (b, c)), breaking parse ∘ print = id (the
       round-trip property in test_rpq) *)
    | Concat (a, b) -> to_string_prec 2 a ^ "." ^ to_string_prec 1 b
    | Alt (a, b) -> to_string_prec 1 a ^ "|" ^ to_string_prec 0 b
    | Star a -> to_string_prec 3 a ^ "*"
  in
  if prec r < outer then "(" ^ s ^ ")" else s

let to_string = to_string_prec 0
let pp ppf r = Format.pp_print_string ppf (to_string r)

let rec labels_used = function
  | Eps -> Label.Set.empty
  | Letter k -> Label.Set.singleton k
  | Concat (a, b) | Alt (a, b) -> Label.Set.union (labels_used a) (labels_used b)
  | Star a -> labels_used a

(* Every subexpression keeps an empty span: a plain term has no source
   text. *)
let to_ast r =
  let span = Pathlang.Span.v ~line:1 ~start_col:1 ~end_col:1 in
  let rec go r =
    let node : Ast.node =
      match r with
      | Eps -> Eps
      | Letter k -> Letter k
      | Concat (a, b) -> Concat (go a, go b)
      | Alt (a, b) -> Alt (go a, go b)
      | Star a -> Star (go a)
    in
    { Ast.node; span }
  in
  go r

let to_nfa r = Glushkov.to_nfa (Glushkov.make (to_ast r))

let matches r w =
  let a, start = to_nfa r in
  Automata.Nfa.accepts_from a start (Path.to_labels w)

let full_alphabet ?(alphabet = []) r1 r2 =
  Label.Set.elements
    (Label.Set.union
       (List.fold_left (fun s k -> Label.Set.add k s) Label.Set.empty alphabet)
       (Label.Set.union (labels_used r1) (labels_used r2)))

let included ?alphabet r1 r2 =
  let sigma = full_alphabet ?alphabet r1 r2 in
  let a1, s1 = to_nfa r1 in
  let a2, s2 = to_nfa r2 in
  Automata.Dfa.nfa_inclusion ~alphabet:sigma a1 ~start1:s1 a2 ~start2:s2

let equivalent ?alphabet r1 r2 = included ?alphabet r1 r2 && included ?alphabet r2 r1

let example_word r =
  let a, start = to_nfa r in
  let alphabet = Label.Set.elements (labels_used r) in
  let d = Automata.Dfa.of_nfa ~alphabet a ~start in
  Option.map Path.of_labels (Automata.Dfa.some_word d)
