(* An independent RPQ evaluator for differential tests: the classical
   product BFS over the Thompson automaton, taking ε-closures on every
   edge.  It shares no code with Sgraph.Eval's product BFS, which the
   library's typed and untyped evaluators both run. *)

module Graph = Sgraph.Graph
module Nfa = Automata.Nfa
module NS = Graph.Node_set
module Path = Pathlang.Path

(* Pairs (v, q) with q ranging over ε-closed single states; [parent]
   keeps the first pair each was reached from. *)
let product_search g src r =
  let a, start = Rpq.Regex.to_nfa r in
  let closure q = Nfa.eps_closure a (Nfa.State_set.singleton q) in
  let seen = Hashtbl.create 64 in
  let parent = Hashtbl.create 64 in
  let q = Queue.create () in
  let push (v, st) from =
    if not (Hashtbl.mem seen (v, st)) then begin
      Hashtbl.add seen (v, st) ();
      Hashtbl.add parent (v, st) from;
      Queue.add (v, st) q
    end
  in
  Nfa.State_set.iter (fun st -> push (src, st) None) (closure start);
  while not (Queue.is_empty q) do
    let v, st = Queue.pop q in
    List.iter
      (fun (k, v') ->
        Nfa.State_set.iter
          (fun st' ->
            Nfa.State_set.iter
              (fun st'' -> push (v', st'') (Some ((v, st), k)))
              (closure st'))
          (Nfa.reach a st [ k ]))
      (Graph.succ_all g v)
  done;
  (a, seen, parent)

let eval g r =
  let a, seen, _ = product_search g (Graph.root g) r in
  Hashtbl.fold
    (fun (v, st) () acc -> if Nfa.is_final a st then NS.add v acc else acc)
    seen NS.empty

(* The witness the first final pair at [dst] was reached by (a Thompson
   automaton has one final state, so there is at most one). *)
let witness g src r dst =
  let a, seen, parent = product_search g src r in
  let target =
    Hashtbl.fold
      (fun (v, st) () acc ->
        if v = dst && Nfa.is_final a st && acc = None then Some (v, st) else acc)
      seen None
  in
  Option.map
    (fun state ->
      let rec build s acc =
        match Hashtbl.find parent s with
        | None -> acc
        | Some (prev, k) -> build prev (k :: acc)
      in
      Path.of_labels (build state []))
    target
