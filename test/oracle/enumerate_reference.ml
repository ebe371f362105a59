module Graph = Sgraph.Graph
module Check = Sgraph.Check

let potential_edges ~nodes ~labels =
  List.concat_map
    (fun x ->
      List.concat_map
        (fun k -> List.map (fun y -> (x, k, y)) (List.init nodes Fun.id))
        labels)
    (List.init nodes Fun.id)

let search ~nodes ~labels ~total f =
  let pes = Array.of_list (potential_edges ~nodes ~labels) in
  let rec go mask =
    if mask >= total then None
    else begin
      let g = Graph.create () in
      for _ = 2 to nodes do
        ignore (Graph.add_node g)
      done;
      Array.iteri
        (fun i (x, k, y) ->
          if mask land (1 lsl i) <> 0 then Graph.add_edge g x k y)
        pes;
      if f g then Some g else go (mask + 1)
    end
  in
  go 0

let find_countermodel ~max_nodes ~labels ~sigma ~phi =
  let rec go n =
    if n > max_nodes then None
    else
      match Sgraph.Enumerate.count ~nodes:n ~labels with
      | None -> None
      | Some total -> (
          match
            search ~nodes:n ~labels ~total (fun g ->
                (not (Check.holds g phi)) && Check.holds_all g sigma)
          with
          | Some g -> Some g
          | None -> go (n + 1))
  in
  go 1
