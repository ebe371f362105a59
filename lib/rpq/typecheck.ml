(* Typing a regular path query against the schema graph.

   The engine is the same product fixpoint that powers the PC6xx type
   flow: a pair (p, tau) of a state of the query's Glushkov automaton
   and a sort of T(Delta) is reachable iff some word drives the query
   automaton from its start to p while walking the schema graph from
   DBtype to tau — i.e. iff some member of Paths(Delta) is read by the
   query up to its letter occurrence p.  A position is a regex letter,
   so the product needs no per-subexpression states: every node of the
   query is typed from its position sets (Glushkov.sets).

   - The sorts at a node's entry are those of the states that can
     immediately precede it ([pre]).  The sorts after it are those of
     its [last] positions, plus its entry sorts when it is nullable.
   - A node lies on a schema-live match iff one of its [last] positions
     has a pair that is reachable and co-reachable, or it is nullable
     and a pair reachable at its entry can skip it: some position that
     can follow it ([fol]) is co-reachable from that sort, or the query
     can end there.  Co-reachability of [pre] alone is not enough: in
     a.(b|eps).c, the pair after [a] can be co-reachable through [b]
     while [c] is dead after [a].

   The two passes drive everything downstream:

   - the query is empty over the schema iff no accepting product pair
     is reachable (PC800), and the first letter in source order whose
     entry types non-empty but whose exit types empty pinpoints the
     token where every matching walk leaves Paths(Delta);
   - an Alt branch or Star/Plus/Opt body that lies on no schema-live
     match contributes no schema-live word (PC801);
   - the pairs that survive both passes are exactly the product states
     a schema-conforming evaluation can inhabit, which is the typed
     pruning of Eval.eval_typed: dropping everything else cannot
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

(* --- the schema automaton as arrays ----------------------------------------- *)

(* Per sort state, its moves as (label id, sort state).  The table of
   the last schema a domain typed against is kept, so a run of queries
   against one schema builds it once. *)
type table = { sorts : Mtype.t array; start : int; next : (int * int) array array }

let table_of schema =
  let snfa, sorts, start = Schema_graph.automaton schema in
  let next = Array.make (Array.length sorts) [||] in
  List.iter
    (fun (s, k, t) -> next.(s) <- Array.append next.(s) [| (Label.id k, t) |])
    (Nfa.transitions snfa);
  { sorts; start; next }

let last_table = Domain.DLS.new_key (fun () -> ref None)

let table schema =
  let slot = Domain.DLS.get last_table in
  match !slot with
  | Some (s, t) when s == schema -> t
  | _ ->
      let t = table_of schema in
      slot := Some (schema, t);
      t

(* --- the product and its two reachability passes --------------------------- *)

(* A pair (p, s) is [p * w + s] with [w = |sorts| + 1]; its byte in
   [pairs] is [reached] or [live] (reachable and co-reachable), and the
   byte at column [|sorts|] of row p is [live] when some pair of p is. *)
type t = {
  query : Parser.ast;
  glushkov : Glushkov.t;
  table : table;
  pairs : Bytes.t;
  empty : bool;
}

let reached = '\001'
let live = '\003'
let width tc = Array.length tc.table.sorts + 1

(* [f] of every pair one step after pair [i] *)
let succ (a : Sgraph.Eval.nfa) tb i f =
  let w = Array.length tb.sorts + 1 in
  let out = tb.next.(i mod w) in
  Array.iter
    (fun (m : Sgraph.Eval.move) ->
      Array.iter (fun (id, t) -> if id = m.id then Array.iter (fun p -> f ((p * w) + t)) m.next) out)
    a.delta.(i / w)

let run schema (ast : Parser.ast) =
  let g = Glushkov.make ast in
  let a = Glushkov.automaton g and tb = table schema in
  let ns = Array.length tb.sorts and n = Glushkov.size g in
  let w = ns + 1 in
  let pairs = Bytes.make (n * w) '\000' in
  let queue = Array.make (n * ns) 0 and len = ref 0 in
  let succ = succ a tb in
  let visit i =
    if Bytes.get pairs i = '\000' then begin
      Bytes.set pairs i reached;
      queue.(!len) <- i;
      incr len
    end
  in
  visit tb.start;
  let head = ref 0 in
  while !head < !len do
    succ queue.(!head) visit;
    incr head
  done;
  Obs.Counter.add states_explored !len;
  (* co-reachability: sweep the reachable pairs latest first until no
     pair changes (every sort state is final) *)
  let changed = ref true in
  while !changed do
    changed := false;
    for j = !len - 1 downto 0 do
      let i = queue.(j) in
      if Bytes.get pairs i = reached then begin
        let goes_on = ref a.final.(i / w) in
        if not !goes_on then succ i (fun k -> if Bytes.get pairs k = live then goes_on := true);
        if !goes_on then begin
          Bytes.set pairs i live;
          Bytes.set pairs ((i / w * w) + ns) live;
          changed := true
        end
      end
    done
  done;
  { query = ast; glushkov = g; table = tb; pairs; empty = Bytes.get pairs ns <> live }

(* --- queries over the result ----------------------------------------------- *)

(* The sorts of the reachable pairs at any of the states [ps], in
   [T(Delta)] order. *)
let sorts_at tc ps =
  let w = width tc in
  List.filteri
    (fun s _ -> List.exists (fun p -> Bytes.get tc.pairs ((p * w) + s) <> '\000') ps)
    (Array.to_list tc.table.sorts)

let empty_query tc = tc.empty

let sorts_after tc n =
  let st = Glushkov.sets tc.glushkov n in
  sorts_at tc (if st.nullable then st.last @ st.pre else st.last)

let answer_sorts tc = sorts_after tc tc.query
let glushkov tc = tc.glushkov

(* --- per-letter attribution ------------------------------------------------ *)

let letters tc =
  List.init (Glushkov.size tc.glushkov - 1) (fun i ->
      let p = i + 1 in
      let n = Glushkov.letter tc.glushkov p in
      match n.Parser.node with
      | Parser.Letter k -> (k, n, p)
      | _ -> assert false)

(* Every letter occurrence in source order with the sorts after it —
   the regex-position analogue of a PC602 chain. *)
let letter_chain tc =
  List.map (fun (k, (n : Parser.ast), p) -> (k, n.span, sorts_at tc [ p ])) (letters tc)

(* The first letter (in source order) whose entry still types non-empty
   but whose exit types empty: the token where every walk matching the
   query leaves Paths(Delta).  [None] when the query is non-empty, or
   empty for reasons no single letter witnesses. *)
let first_dead tc =
  if not tc.empty then None
  else
    List.find_map
      (fun (k, (n : Parser.ast), p) ->
        let entry_sorts = sorts_at tc (Glushkov.sets tc.glushkov n).pre in
        if entry_sorts <> [] && sorts_at tc [ p ] = [] then
          Some (k, n.span, entry_sorts)
        else None)
      (letters tc)

(* --- dead subexpressions (PC801) ------------------------------------------- *)

(* Whether some accepting match of the query passes through the end of
   node [n]: through one of its last positions, or — when [n] is
   nullable — by skipping it from a reachable entry pair that can go on
   to a co-reachable following position or end the query there. *)
let exit_live tc n =
  let w = width tc and st = Glushkov.sets tc.glushkov n in
  let is_live i = Bytes.get tc.pairs i = live in
  let skips i =
    let on = ref st.at_end in
    succ (Glushkov.automaton tc.glushkov) tc.table i (fun k ->
        if is_live k && List.mem (k / w) st.fol then on := true);
    !on
  in
  List.exists (fun p -> is_live ((p * w) + w - 1)) st.last
  || st.nullable
     && List.exists
          (fun q ->
            List.exists
              (fun s -> Bytes.get tc.pairs ((q * w) + s) <> '\000' && skips ((q * w) + s))
              (List.init (w - 1) Fun.id))
          st.pre

(* Maximal Alt branches and Star/Plus/Opt bodies that contribute no
   schema-live word, so every accepted walk of the whole query avoids
   the subtree.  Only meaningful on non-empty queries (an empty query
   is all dead; PC800 owns that case). *)
let dead_subexprs tc =
  let out = ref [] in
  let report n = out := n :: !out in
  let rec walk (n : Parser.ast) =
    match n.Parser.node with
    | Parser.Eps | Parser.Letter _ -> ()
    | Parser.Concat (x, y) ->
        walk x;
        walk y
    | Parser.Alt (x, y) ->
        if exit_live tc x then walk x else report x;
        if exit_live tc y then walk y else report y
    | Parser.Star x | Parser.Plus x | Parser.Opt x ->
        if exit_live tc x then walk x else report x
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
  let { sorts; start; next } = table schema in
  let ns = Array.length sorts in
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
  let w = width tc and pairs = tc.pairs in
  let sort =
    match typing with
    | None -> [||]
    | Some t ->
        if not (Array.length t.sorts = Array.length tc.table.sorts
                && Array.for_all2 Mtype.equal t.sorts tc.table.sorts)
        then invalid_arg "Typecheck.admit: the typing is over another schema";
        t.sort
  in
  fun v q ->
    let s = if v < Array.length sort then Array.unsafe_get sort v else w - 1 in
    Bytes.unsafe_get pairs ((q * w) + s) = live
