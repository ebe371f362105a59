(* The Glushkov automaton of a query.

   One bottom-up pass annotates every node with [nullable], [first]
   and [last] (positions numbered in source order).  A top-down pass
   then gives every node what can precede it ([pre]) and follow it
   ([fol]), and whether it can end the query: a node inherits these
   from its parent, and its siblings (and, under a star or plus, its
   own loop) add to them.  A letter's [fol] is its position's
   [follow] set, and moving into position p always reads p's letter,
   so no ε is ever needed. *)

module Label = Pathlang.Label
module Nfa = Automata.Nfa
module Eval = Sgraph.Eval

(* A node with its bottom-up sets: [e] nullable, [f] first, [l] last. *)
type ann = { ast : Ast.t; e : bool; f : int list; l : int list; kids : ann list }

type sets = {
  nullable : bool;
  first : int list;
  last : int list;
  pre : int list;
  fol : int list;
  at_end : bool;
}

type t = {
  root : ann;
  letters : Ast.t array;  (* .(p - 1): the letter node of position p *)
  nfa : Eval.nfa;
}

let annotate (query : Ast.t) =
  let count = ref 0 and letters = ref [] in
  let rec go (n : Ast.t) =
    match n.node with
    | Eps -> { ast = n; e = true; f = []; l = []; kids = [] }
    | Letter _ ->
        incr count;
        letters := n :: !letters;
        { ast = n; e = false; f = [ !count ]; l = [ !count ]; kids = [] }
    | Concat (x, y) ->
        let x = go x in
        let y = go y in
        {
          ast = n;
          e = x.e && y.e;
          f = (if x.e then x.f @ y.f else x.f);
          l = (if y.e then x.l @ y.l else y.l);
          kids = [ x; y ];
        }
    | Alt (x, y) ->
        let x = go x in
        let y = go y in
        { ast = n; e = x.e || y.e; f = x.f @ y.f; l = x.l @ y.l; kids = [ x; y ] }
    | Star x | Opt x ->
        let x = go x in
        { ast = n; e = true; f = x.f; l = x.l; kids = [ x ] }
    | Plus x ->
        let x = go x in
        { ast = n; e = x.e; f = x.f; l = x.l; kids = [ x ] }
  in
  let root = go query in
  (root, Array.of_list (List.rev !letters))

let rec down a ~pre ~fol ~at_end visit =
  visit a { nullable = a.e; first = a.f; last = a.l; pre; fol; at_end };
  match (a.ast.node, a.kids) with
  | Concat _, [ x; y ] ->
      down x ~pre ~fol:(if y.e then y.f @ fol else y.f) ~at_end:(y.e && at_end) visit;
      down y ~pre:(if x.e then x.l @ pre else x.l) ~fol ~at_end visit
  | (Star _ | Plus _), [ x ] -> down x ~pre:(x.l @ pre) ~fol:(x.f @ fol) ~at_end visit
  | _ -> List.iter (fun x -> down x ~pre ~fol ~at_end visit) a.kids

let walk root visit = down root ~pre:[ 0 ] ~fol:[] ~at_end:true visit

let label_of (n : Ast.t) =
  match n.node with Letter k -> k | _ -> invalid_arg "Glushkov: not a letter"

let make query =
  let root, letters = annotate query in
  let size = Array.length letters + 1 in
  let follow = Array.make size root.f and final = Array.make size root.e in
  walk root (fun a st ->
      match (a.ast.node, a.f) with
      | Letter _, [ p ] ->
          follow.(p) <- st.fol;
          final.(p) <- st.at_end
      | _ -> ());
  let label p = label_of letters.(p - 1) in
  let by_label p q =
    match Label.compare (label p) (label q) with 0 -> Int.compare p q | c -> c
  in
  let rec moves = function
    | [] -> []
    | p :: _ as ps ->
        let same, rest = List.partition (fun q -> Label.equal (label q) (label p)) ps in
        Eval.move (label p) same :: moves rest
  in
  let delta = Array.map (fun ps -> Array.of_list (moves (List.sort_uniq by_label ps))) follow in
  { root; letters; nfa = { Eval.start = [ 0 ]; delta; final } }

let size g = Array.length g.nfa.delta
let letter g p = g.letters.(p - 1)
let automaton g = g.nfa

let to_nfa g =
  let a = Nfa.create () in
  Nfa.ensure_states a (size g);
  Array.iteri
    (fun q moves ->
      if g.nfa.final.(q) then Nfa.set_final a q;
      Array.iter
        (fun (m : Eval.move) -> Array.iter (Nfa.add_trans a q m.label) m.next)
        moves)
    g.nfa.delta;
  (a, 0)

let sets g n =
  let found = ref None in
  walk g.root (fun a st -> if a.ast == n then found := Some st);
  match !found with
  | Some st -> st
  | None -> invalid_arg "Glushkov.sets: node is not part of the query"
