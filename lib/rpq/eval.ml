module Graph = Sgraph.Graph
module NS = Graph.Node_set
module Eval = Sgraph.Eval

exception Interrupted = Eval.Interrupted

let automaton r = Glushkov.automaton (Glushkov.make (Regex.to_ast r))

let eval_from ?interrupt g src r =
  Eval.run ?interrupt g src (Eval.Nfa (automaton r))

let eval ?interrupt g r = eval_from ?interrupt g (Graph.root g) r
let witnesses g src r = Eval.witnesses g src (automaton r)
let witness g src r dst = List.assoc_opt dst (witnesses g src r)

(* --- type-pruned evaluation ------------------------------------------------ *)

(* Pairs no schema-conforming run can inhabit and still finish the
   query are never enqueued (Typecheck.admit). *)
let eval_from_typed ?interrupt ?class_of tc g src =
  let admit = Typecheck.admit tc class_of in
  Eval.run ~admit ?interrupt g src
    (Eval.Nfa (Glushkov.automaton (Typecheck.glushkov tc)))

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
