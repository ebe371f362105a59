(* Typing a regular path query against the schema graph.

   The engine is the same product fixpoint that powers the PC6xx type
   flow: a pair (q, tau) of a query-automaton state and a sort of
   T(Delta) is reachable iff some word drives the query automaton from
   its start to q while walking the schema graph from DBtype to tau —
   i.e. iff some member of Paths(Delta) is read by the query into q.
   Where the PC6xx pass types the chain automaton of a single walk,
   here the query is a full regex, so the Thompson construction is
   redone over the span-annotated AST with fresh entry/exit states per
   node (Regex.to_nfa shares states across Star, which would smear the
   attribution): every subexpression owns its states, and projecting
   the reachable product pairs onto them types every regex position.

   On top of reachability, a backward pass over the product computes
   co-reachability (can this pair still reach an accepting pair?).
   The two together drive everything downstream:

   - the query is empty over the schema iff no accepting product pair
     is reachable (PC800), and the first letter in source order whose
     entry types non-empty but whose exit types empty pinpoints the
     token where every matching walk leaves Paths(Delta);
   - an Alt branch or Star/Plus/Opt body none of whose exit pairs are
     both reachable and co-reachable contributes no schema-live word
     (PC801);
   - the pairs that survive both passes are exactly the product states
     a schema-conforming evaluation can inhabit, which is the typed
     pruning of Eval.eval_from_typed: dropping everything else cannot
     lose answers on a graph that validates against the schema. *)

module Label = Pathlang.Label
module Span = Pathlang.Span
module Mschema = Schema.Mschema
module Mtype = Schema.Mtype
module Schema_graph = Schema.Schema_graph
module Graph = Sgraph.Graph
module Nfa = Automata.Nfa

let states_explored =
  Obs.Counter.make ~unit_:"states" "querycheck.product.states"

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
  let prod, pairs = Nfa.product nfa snfa ~start:(root.entry, sstart) in
  Obs.Counter.add states_explored (Array.length pairs);
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

let nfa tc = (tc.nfa, tc.start)

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

(* --- typing the nodes of a data graph -------------------------------------- *)

(* [sort.(v)] indexes [sorts], the schema automaton's states; the index
   [Array.length sorts] means untyped.  Nodes added after the typing are
   untyped too. *)
type typing = { sorts : Mtype.t array; sort : int array }

let sort_of t v =
  if v < Array.length t.sort && t.sort.(v) < Array.length t.sorts then
    Some t.sorts.(t.sort.(v))
  else None

let typing_of schema g class_of =
  let sorts = Array.of_list (Schema_graph.sorts schema) in
  let index v =
    match Option.bind (class_of v) (fun tau -> Array.find_index (Mtype.equal tau) sorts) with
    | Some s -> s
    | None -> Array.length sorts
  in
  { sorts; sort = Array.init (Graph.node_count g) index }

(* Walking a path from DBtype visits a unique sequence of sorts (labels
   are functional on record sorts, sets only carry [*]), so a node's
   sorts are the sort states of the reachable pairs of the product of
   the graph from its root with the schema automaton from DBtype.  A
   BFS over those pairs finds them all whatever order the edges were
   added in; a node is typed when it has exactly one.  On a graph that
   conforms to the schema every reachable node has one.  Nodes with
   two, or reached only along edges the schema does not admit, stay
   untyped, and the pruned evaluation treats them conservatively, so a
   partial typing degrades performance, not answers. *)
let type_graph schema g =
  let snfa, sorts, start = Schema_graph.automaton schema in
  let ns = Array.length sorts in
  (* per sort state, its moves as (label id, sort state) *)
  let next = Array.make ns [||] in
  List.iter
    (fun (s, k, t) -> next.(s) <- Array.append next.(s) [| (Label.id k, t) |])
    (Nfa.transitions snfa);
  let n = Graph.node_count g in
  let seen = Bytes.make (((n * ns) + 7) lsr 3) '\000' in
  let sort = Array.make n (-1) and queue = Queue.create () in
  let visit v s =
    let p = (v * ns) + s in
    let c = Char.code (Bytes.get seen (p lsr 3)) and m = 1 lsl (p land 7) in
    if c land m = 0 then begin
      Bytes.set seen (p lsr 3) (Char.chr (c lor m));
      sort.(v) <- (if sort.(v) < 0 then s else ns);
      Queue.add p queue
    end
  in
  visit (Graph.root g) start;
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    let v = p / ns and moves = next.(p mod ns) in
    Array.iter
      (fun (r : Graph.run) ->
        match Array.find_opt (fun (id, _) -> id = r.id) moves with
        | Some (_, t) ->
            for i = 0 to r.len - 1 do
              visit r.targets.(i) t
            done
        | None -> ())
      (Graph.out_runs g v)
  done;
  { sorts; sort = Array.map (fun s -> if s < 0 then ns else s) sort }

let admit tc typing =
  let w = width tc and live = tc.live in
  let sort =
    match typing with
    | None -> [||]
    | Some t ->
        if not (Array.length t.sorts = Array.length tc.sorts
                && Array.for_all2 Mtype.equal t.sorts tc.sorts)
        then invalid_arg "Typecheck.admit: the typing is over another schema";
        t.sort
  in
  fun v q ->
    let s = if v < Array.length sort then Array.unsafe_get sort v else w - 1 in
    Bytes.unsafe_get live ((q * w) + s) <> '\000'
