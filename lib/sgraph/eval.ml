module Label = Pathlang.Label
module Path = Pathlang.Path
module NS = Graph.Node_set
module IT = Hashtbl.Make (Int)

type state = int

type nfa = {
  start : state list;
  delta : (Label.t * state list) list array;
  final : bool array;
}

type automaton = Chain of Label.t list | Nfa of nfa

exception Interrupted

let chain rho = Chain (Path.to_labels rho)

(* The chain case.  A word's automaton is acyclic, so its product needs
   no visited set: layer r is the frontier after r letters.  Words are
   evaluated thousands of times per chase step on tiny graphs, where any
   fixed cost per call would dominate. *)
let rec walk ~back g frontier = function
  | [] -> frontier
  | k :: rest ->
      let step x acc =
        List.fold_left (fun a y -> NS.add y a) acc
          (if back then Graph.pred g x k else Graph.succ g x k)
      in
      walk ~back g (NS.fold step frontier NS.empty) rest

let image g xs ks = walk ~back:false g xs ks
let preimage g ys ks = walk ~back:true g ys ks

(* The product BFS.  A pair (v, q) is the int [v * n + q]; [seen] maps
   each discovered pair to the pair it was first pushed from (-1 for a
   start pair), and [firsts] each answer to its first final pair.
   Pairs are pushed in non-decreasing distance from the start, so that
   pair ends a shortest run.  Children are pushed in the order
   [Graph.succ_all] lists them. *)
let product admit interrupt g src a =
  let n = Array.length a.delta in
  let seen = IT.create 64 and firsts = IT.create 16 and queue = Queue.create () in
  let admit = Option.value admit ~default:(fun _ _ -> true) in
  let stop = Option.value interrupt ~default:(fun () -> false) in
  let push v q from =
    let p = (v * n) + q in
    if admit v q && not (IT.mem seen p) then begin
      IT.add seen p from;
      Queue.add p queue;
      if a.final.(q) && not (IT.mem firsts v) then IT.add firsts v p
    end
  in
  List.iter (fun q -> push src q (-1)) a.start;
  while not (Queue.is_empty queue) do
    if stop () then raise Interrupted;
    let p = Queue.pop queue in
    List.iter
      (fun (k, qs) ->
        List.iter
          (fun w -> List.iter (fun q -> push w q p) qs)
          (List.rev (Graph.succ g (p / n) k)))
      a.delta.(p mod n)
  done;
  (seen, firsts)

let answers firsts = IT.fold (fun v _ acc -> NS.add v acc) firsts NS.empty

let run ?admit ?interrupt g x = function
  | Chain ks -> image g (NS.singleton x) ks
  | Nfa a -> answers (snd (product admit interrupt g x a))

let witnesses g x a =
  let seen, firsts = product None None g x a in
  let n = Array.length a.delta in
  (* the label of the parent's first transition, in expansion order,
     that reaches the child *)
  let label parent child =
    let reaches (k, qs) =
      List.mem (child mod n) qs && List.mem (child / n) (Graph.succ g (parent / n) k)
    in
    fst (List.find reaches a.delta.(parent mod n))
  in
  let rec back p acc =
    match IT.find seen p with -1 -> acc | parent -> back parent (label parent p :: acc)
  in
  List.map
    (fun v -> (v, Path.of_labels (back (IT.find firsts v) [])))
    (NS.elements (answers firsts))

let eval_from g x rho = run g x (chain rho)
let eval g rho = eval_from g (Graph.root g) rho
let holds_between g x rho y = NS.mem y (eval_from g x rho)

let reachable g x =
  let seen = ref (NS.singleton x) and todo = Stack.create () in
  Stack.push x todo;
  while not (Stack.is_empty todo) do
    List.iter
      (fun (_, y) ->
        if not (NS.mem y !seen) then begin
          seen := NS.add y !seen;
          Stack.push y todo
        end)
      (Graph.succ_all g (Stack.pop todo))
  done;
  !seen
