module Graph = Sgraph.Graph
module Nfa = Automata.Nfa
module NS = Graph.Node_set
module SS = Nfa.State_set
module Label = Pathlang.Label
module Eval = Sgraph.Eval

exception Interrupted = Eval.Interrupted

(* The ε-free form of a Thompson automaton on the same state ids:
   reading k from q reaches the ε-closure of the k-successors of q's
   ε-closure.  Each state's closure is computed once here, not once per
   product edge.  Targets keep the push order of an ε-closure search
   (each closed successor, ascending, expanded into its own closure),
   so witnesses resolve ties as that search did.  Each move carries its
   label's interned id, so the product BFS matches it against the
   graph's runs without converting anything per call. *)
let compile (a, start) : Eval.nfa =
  let n = Nfa.state_count a in
  let closure =
    Array.init n (fun q -> SS.elements (Nfa.eps_closure a (SS.singleton q)))
  in
  let moves = Array.make n [] in
  List.iter
    (fun (s, k, t) -> moves.(s) <- (k, t) :: moves.(s))
    (Nfa.transitions a);
  let expand = List.concat_map (Array.get closure) in
  let first_seen ts =
    let seen = ref SS.empty in
    List.filter (fun t -> (not (SS.mem t !seen)) && (seen := SS.add t !seen; true)) ts
  in
  let delta q =
    let moves = List.concat_map (Array.get moves) closure.(q) in
    let targets k =
      List.filter_map (fun (k', t) -> if Label.equal k k' then Some t else None) moves
      |> expand |> List.sort_uniq Int.compare |> expand |> first_seen
    in
    List.sort_uniq (fun x y -> Label.compare y x) (List.map fst moves)
    |> List.map (fun k -> Eval.move k (targets k))
    |> Array.of_list
  in
  {
    Eval.start = closure.(start);
    delta = Array.init n delta;
    final = Array.init n (Nfa.is_final a);
  }

let eval_from ?interrupt g src r =
  Eval.run ?interrupt g src (Eval.Nfa (compile (Regex.to_nfa r)))

let eval ?interrupt g r = eval_from ?interrupt g (Graph.root g) r
let witnesses g src r = Eval.witnesses g src (compile (Regex.to_nfa r))
let witness g src r dst = List.assoc_opt dst (witnesses g src r)

(* --- type-pruned evaluation ------------------------------------------------ *)

(* Pairs no schema-conforming run can inhabit and still finish the
   query are never enqueued (Typecheck.admit). *)
let eval_from_typed ?interrupt ?class_of tc g src =
  let admit = Typecheck.admit tc class_of in
  Eval.run ~admit ?interrupt g src (Eval.Nfa (compile (Typecheck.nfa tc)))

let eval_typed ?interrupt ?class_of tc g =
  eval_from_typed ?interrupt ?class_of tc g (Graph.root g)

type constr = { lhs : Regex.t; rhs : Regex.t }

let holds ?interrupt g c = NS.subset (eval ?interrupt g c.lhs) (eval ?interrupt g c.rhs)

let violations g c = NS.elements (NS.diff (eval g c.lhs) (eval g c.rhs))

let prune_union rs =
  let rec go kept = function
    | [] -> List.rev kept
    | r :: rest ->
        let redundant =
          List.exists (fun r' -> Regex.included r r') (kept @ rest)
        in
        if redundant then go kept rest else go (r :: kept) rest
  in
  go [] rs
