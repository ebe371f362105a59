(* An independent RPQ evaluator for differential tests.  It runs its
   own Thompson automaton, taking ε-closures on every edge, and shares
   no code with the library's Glushkov automaton or with Sgraph.Eval's
   product BFS, which the library's typed and untyped evaluators and
   its witness search all run. *)

module Graph = Sgraph.Graph
module Nfa = Automata.Nfa
module NS = Graph.Node_set
module SS = Nfa.State_set
module Path = Pathlang.Path
module Label = Pathlang.Label
module Regex = Rpq.Regex

(* Thompson's construction: one final state, entered by ε moves. *)
let thompson r =
  let a = Nfa.create () in
  let rec build = function
    | Regex.Eps ->
        let s = Nfa.add_state a in
        (s, s)
    | Regex.Letter k ->
        let s = Nfa.add_state a and t = Nfa.add_state a in
        Nfa.add_trans a s k t;
        (s, t)
    | Regex.Concat (x, y) ->
        let sx, tx = build x in
        let sy, ty = build y in
        Nfa.add_eps a tx sy;
        (sx, ty)
    | Regex.Alt (x, y) ->
        let s = Nfa.add_state a and t = Nfa.add_state a in
        let sx, tx = build x in
        let sy, ty = build y in
        Nfa.add_eps a s sx;
        Nfa.add_eps a s sy;
        Nfa.add_eps a tx t;
        Nfa.add_eps a ty t;
        (s, t)
    | Regex.Star x ->
        let s = Nfa.add_state a in
        let sx, tx = build x in
        Nfa.add_eps a s sx;
        Nfa.add_eps a tx s;
        (s, s)
  in
  let start, stop = build r in
  Nfa.set_final a stop;
  (a, start)

let closure a q = Nfa.eps_closure a (SS.singleton q)

(* Pairs (v, q) with q ranging over ε-closed single states. *)
let eval g r =
  let a, start = thompson r in
  let seen = Hashtbl.create 64 and q = Queue.create () in
  let push p =
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      Queue.add p q
    end
  in
  SS.iter (fun st -> push (Graph.root g, st)) (closure a start);
  while not (Queue.is_empty q) do
    let v, st = Queue.pop q in
    List.iter
      (fun (k, v') ->
        SS.iter
          (fun st' -> SS.iter (fun st'' -> push (v', st'')) (closure a st'))
          (Nfa.reach a st [ k ]))
      (Graph.succ_all g v)
  done;
  Hashtbl.fold
    (fun (v, st) () acc -> if Nfa.is_final a st then NS.add v acc else acc)
    seen NS.empty

(* The matches witnessed inside Paths(Delta): triples (v, q, s) of a
   graph node, an ε-closed Thompson state and a schema sort, started at
   the root, DBtype and the query's start, moving when all three read
   the same label. *)
let eval_in_schema schema g r =
  let a, start = thompson r in
  let sa, _sorts, sstart = Schema.Schema_graph.automaton schema in
  let seen = Hashtbl.create 64 and q = Queue.create () in
  let push t =
    if not (Hashtbl.mem seen t) then begin
      Hashtbl.add seen t ();
      Queue.add t q
    end
  in
  SS.iter (fun st -> push (Graph.root g, st, sstart)) (closure a start);
  while not (Queue.is_empty q) do
    let v, st, s = Queue.pop q in
    List.iter
      (fun (k, v') ->
        SS.iter
          (fun s' ->
            SS.iter
              (fun st' -> SS.iter (fun st'' -> push (v', st'', s')) (closure a st'))
              (Nfa.reach a st [ k ]))
          (Nfa.reach sa s [ k ]))
      (Graph.succ_all g v)
  done;
  Hashtbl.fold
    (fun (v, st, _) () acc -> if Nfa.is_final a st then NS.add v acc else acc)
    seen NS.empty

(* The least word in Label.compare order among the shortest words of
   L(r) leading from [src] to [dst], by enumerating words in that
   order, length by length.  A word is kept only as far as the set of
   (node, state) pairs it reaches is new: a later word reaching a set
   already seen has a smaller counterpart with the same extensions. *)
let witness g src r dst =
  let a, start = thompson r in
  let module PS = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let labels =
    List.sort_uniq Label.compare
      (List.map (fun (_, k, _) -> k) (Graph.edges g)
      @ Label.Set.elements (Regex.labels_used r))
  in
  let step pairs k =
    PS.fold
      (fun (v, st) acc ->
        List.fold_left
          (fun acc (k', v') ->
            if not (Label.equal k k') then acc
            else
              SS.fold
                (fun st' acc -> SS.fold (fun st'' acc -> PS.add (v', st'') acc) (closure a st') acc)
                (Nfa.reach a st [ k ])
                acc)
          acc (Graph.succ_all g v))
      pairs PS.empty
  in
  let hits pairs = PS.exists (fun (v, st) -> v = dst && Nfa.is_final a st) pairs in
  let seen = Hashtbl.create 64 in
  let fresh pairs =
    (not (PS.is_empty pairs))
    && (not (Hashtbl.mem seen (PS.elements pairs)))
    && (Hashtbl.add seen (PS.elements pairs) (); true)
  in
  (* [layer]: the kept words of one length, ascending, with their pairs *)
  let rec go layer =
    match List.find_opt (fun (_, pairs) -> hits pairs) layer with
    | Some (w, _) -> Some (Path.of_labels (List.rev w))
    | None -> (
        let next =
          List.concat_map
            (fun (w, pairs) -> List.map (fun k -> (k :: w, step pairs k)) labels)
            layer
          |> List.filter (fun (_, pairs) -> fresh pairs)
        in
        match next with [] -> None | _ -> go next)
  in
  let start_pairs = SS.fold (fun st acc -> PS.add (src, st) acc) (closure a start) PS.empty in
  ignore (fresh start_pairs);
  go [ ([], start_pairs) ]
