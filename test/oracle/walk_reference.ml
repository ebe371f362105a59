module Graph = Sgraph.Graph
module NS = Graph.Node_set

let rec walk next g frontier = function
  | [] -> frontier
  | k :: rest ->
      let step x acc = List.fold_left (fun acc y -> NS.add y acc) acc (next g x k) in
      walk next g (NS.fold step frontier NS.empty) rest

let image g xs ks = walk Graph.succ g xs ks
let preimage g ys ks = walk Graph.pred g ys (List.rev ks)
