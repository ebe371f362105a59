(* The PC8xx typing engine as it was built on a fresh-state Thompson
   automaton: every AST node gets its own entry and exit states joined
   by epsilon moves, and the product of that automaton with the schema
   automaton is projected onto each node's states.  Rpq.Typecheck reads
   the same facts off the query's Glushkov automaton; the differential
   test in test_querycheck checks that both give the same attribution
   for every node.

   A pair (q, tau) of a query state and a sort of T(Delta) is reachable
   iff some member of Paths(Delta) is read by the query into q; a
   backward pass marks the co-reachable pairs.  A node's exit state
   carries the sorts a match can inhabit after it, and the node
   contributes a schema-live word iff some pair at its exit is both
   reachable and co-reachable. *)

module Label = Pathlang.Label
module Parser = Rpq.Parser
module Span = Pathlang.Span
module Mschema = Schema.Mschema
module Mtype = Schema.Mtype
module Schema_graph = Schema.Schema_graph
module Nfa = Automata.Nfa

(* --- fresh-state Thompson construction over the annotated AST ------------- *)

type frag = { entry : Nfa.state; exit_ : Nfa.state }

(* Build the NFA and record each AST node's fragment.  Nodes are keyed
   by physical identity: the AST is immutable and we only ever look up
   the exact nodes we walked. *)
let build_nfa (ast : Parser.ast) =
  let a = Nfa.create () in
  let frags : (Parser.ast * frag) list ref = ref [] in
  let rec build (n : Parser.ast) =
    let entry = Nfa.add_state a and exit_ = Nfa.add_state a in
    (match n.Parser.node with
    | Parser.Eps -> Nfa.add_eps a entry exit_
    | Parser.Letter k -> Nfa.add_trans a entry k exit_
    | Parser.Concat (x, y) ->
        let fx = build x and fy = build y in
        Nfa.add_eps a entry fx.entry;
        Nfa.add_eps a fx.exit_ fy.entry;
        Nfa.add_eps a fy.exit_ exit_
    | Parser.Alt (x, y) ->
        let fx = build x and fy = build y in
        Nfa.add_eps a entry fx.entry;
        Nfa.add_eps a entry fy.entry;
        Nfa.add_eps a fx.exit_ exit_;
        Nfa.add_eps a fy.exit_ exit_
    | Parser.Star x ->
        let fx = build x in
        Nfa.add_eps a entry exit_;
        Nfa.add_eps a entry fx.entry;
        Nfa.add_eps a fx.exit_ fx.entry;
        Nfa.add_eps a fx.exit_ exit_
    | Parser.Plus x ->
        let fx = build x in
        Nfa.add_eps a entry fx.entry;
        Nfa.add_eps a fx.exit_ fx.entry;
        Nfa.add_eps a fx.exit_ exit_
    | Parser.Opt x ->
        let fx = build x in
        Nfa.add_eps a entry exit_;
        Nfa.add_eps a entry fx.entry;
        Nfa.add_eps a fx.exit_ exit_);
    let f = { entry; exit_ } in
    frags := (n, f) :: !frags;
    f
  in
  let root = build ast in
  Nfa.set_final a root.exit_;
  (a, root, !frags)

(* --- the product and its two reachability passes --------------------------- *)

type t = {
  schema : Mschema.t;
  query : Parser.ast;
  nfa : Nfa.t;
  start : Nfa.state;
  frags : (Parser.ast * frag) list;
  reach_sorts : (Nfa.state, Mtype.Set_of.t) Hashtbl.t;
      (* per query state: sorts of the reachable product pairs *)
  sorts : Mtype.t array;  (* the schema automaton's states *)
  live : Bytes.t;
      (* over (query state q, sort state s), at [q * (|sorts| + 1) + s]:
         the pair is reachable and co-reachable; column [|sorts|] holds
         "some sort is" *)
  empty : bool;
}

let width tc = Array.length tc.sorts + 1

let frag_of tc n =
  match List.find_opt (fun (m, _) -> m == n) tc.frags with
  | Some (_, f) -> f
  | None -> invalid_arg "Typecheck: node is not part of the checked query"

let sorts_of tbl q =
  match Hashtbl.find_opt tbl q with
  | None -> []
  | Some s -> Mtype.Set_of.elements s

let run schema (ast : Parser.ast) =
  let nfa, root, frags = build_nfa ast in
  let snfa, ssorts, sstart = Schema_graph.automaton schema in
  let prod, pairs = Nfa_product.product nfa snfa ~start:(root.entry, sstart) in
  (* backward reachability from the accepting product pairs *)
  let n = Array.length pairs in
  let rev = Array.make n [] in
  List.iter
    (fun (src, _, dst) -> rev.(dst) <- src :: rev.(dst))
    (Nfa.transitions prod);
  List.iter (fun (src, dst) -> rev.(dst) <- src :: rev.(dst))
    (Nfa.eps_transitions prod);
  let coreach = Array.make n false in
  let stack = ref [] in
  Array.iteri
    (fun i _ ->
      if Nfa.is_final prod i then begin
        coreach.(i) <- true;
        stack := i :: !stack
      end)
    pairs;
  let rec drain () =
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        List.iter
          (fun p ->
            if not coreach.(p) then begin
              coreach.(p) <- true;
              stack := p :: !stack
            end)
          rev.(i);
        drain ()
  in
  drain ();
  let reach_sorts = Hashtbl.create 16 in
  let width = Array.length ssorts + 1 in
  let live = Bytes.make (Nfa.state_count nfa * width) '\000' in
  Array.iteri
    (fun i (q, s) ->
      let cur =
        Option.value ~default:Mtype.Set_of.empty (Hashtbl.find_opt reach_sorts q)
      in
      Hashtbl.replace reach_sorts q (Mtype.Set_of.add ssorts.(s) cur);
      if coreach.(i) then begin
        Bytes.set live ((q * width) + s) '\001';
        Bytes.set live ((q * width) + width - 1) '\001'
      end)
    pairs;
  let empty = not (Array.exists (fun i -> i) coreach) in
  { schema; query = ast; nfa; start = root.entry; frags; reach_sorts;
    sorts = ssorts; live; empty }

(* --- queries over the result ----------------------------------------------- *)

let empty_query tc = tc.empty

let sorts_after tc n = sorts_of tc.reach_sorts (frag_of tc n).exit_

let answer_sorts tc =
  sorts_of tc.reach_sorts (frag_of tc tc.query).exit_

let state_live tc q = Bytes.get tc.live ((q * width tc) + width tc - 1) <> '\000'

(* --- per-letter attribution ------------------------------------------------ *)

(* Every letter occurrence in source order with the sorts its exit
   state can carry — the regex-position analogue of a PC602 chain. *)
let letter_chain tc =
  let rec walk (n : Parser.ast) =
    match n.Parser.node with
    | Parser.Eps -> []
    | Parser.Letter k ->
        [ (k, n.Parser.span, sorts_of tc.reach_sorts (frag_of tc n).exit_) ]
    | Parser.Concat (x, y) | Parser.Alt (x, y) -> walk x @ walk y
    | Parser.Star x | Parser.Plus x | Parser.Opt x -> walk x
  in
  walk tc.query

(* The first letter (in source order) whose entry still types non-empty
   but whose exit types empty: the token where every walk matching the
   query leaves Paths(Delta).  [None] when the query is non-empty, or
   empty for reasons no single letter witnesses. *)
let first_dead tc =
  if not tc.empty then None
  else
    let letter_frames =
      let rec walk (n : Parser.ast) =
        match n.Parser.node with
        | Parser.Eps -> []
        | Parser.Letter k -> [ (k, n.Parser.span, frag_of tc n) ]
        | Parser.Concat (x, y) | Parser.Alt (x, y) -> walk x @ walk y
        | Parser.Star x | Parser.Plus x | Parser.Opt x -> walk x
      in
      walk tc.query
    in
    List.find_map
      (fun (k, span, f) ->
        let entry_sorts = sorts_of tc.reach_sorts f.entry in
        if entry_sorts <> [] && sorts_of tc.reach_sorts f.exit_ = [] then
          Some (k, span, entry_sorts)
        else None)
      letter_frames

(* --- dead subexpressions (PC801) ------------------------------------------- *)

(* Maximal Alt branches and Star/Plus/Opt bodies that contribute no
   schema-live word: no product pair at the subtree's exit is both
   reachable and co-reachable, so every accepted walk of the whole
   query avoids the subtree.  Only meaningful on non-empty queries
   (an empty query is all dead; PC800 owns that case). *)
let dead_subexprs tc =
  let live (n : Parser.ast) = state_live tc (frag_of tc n).exit_ in
  let out = ref [] in
  let report n = out := n :: !out in
  let rec walk (n : Parser.ast) =
    match n.Parser.node with
    | Parser.Eps | Parser.Letter _ -> ()
    | Parser.Concat (x, y) ->
        walk x;
        walk y
    | Parser.Alt (x, y) ->
        if live x then walk x else report x;
        if live y then walk y else report y
    | Parser.Star x | Parser.Plus x | Parser.Opt x ->
        if live x then walk x else report x
  in
  if not tc.empty then walk tc.query;
  List.rev !out

