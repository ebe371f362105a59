module Graph = Sgraph.Graph
module Check = Sgraph.Check

let drop_node g victim =
  if victim = Graph.root g then invalid_arg "Minimize.drop_node: root";
  let rename n = if n > victim then n - 1 else n in
  let h = Graph.create () in
  for _ = 2 to Graph.node_count g - 1 do
    ignore (Graph.add_node h)
  done;
  Graph.iter_edges g (fun x k y ->
      if x <> victim && y <> victim then Graph.add_edge h (rename x) k (rename y));
  h

let drop_edge g (x, k, y) =
  let h = Graph.create () in
  for _ = 2 to Graph.node_count g do
    ignore (Graph.add_node h)
  done;
  Graph.iter_edges g (fun x' k' y' ->
      if not (x = x' && y = y' && Pathlang.Label.equal k k') then
        Graph.add_edge h x' k' y');
  h

let is_countermodel g ~sigma ~phi =
  Check.holds_all g sigma && not (Check.holds g phi)

let countermodel g ~sigma ~phi =
  if not (is_countermodel g ~sigma ~phi) then
    invalid_arg "Minimize.countermodel: input is not a countermodel";
  (* node pass, repeated until no node can go *)
  let rec node_pass g =
    let rec try_nodes n =
      if n >= Graph.node_count g then None
      else if n = Graph.root g then try_nodes (n + 1)
      else
        let h = drop_node g n in
        if is_countermodel h ~sigma ~phi then Some h else try_nodes (n + 1)
    in
    match try_nodes 0 with Some h -> node_pass h | None -> g
  in
  (* edge pass *)
  let rec edge_pass g =
    let rec try_edges = function
      | [] -> None
      | e :: rest ->
          let h = drop_edge g e in
          if is_countermodel h ~sigma ~phi then Some h else try_edges rest
    in
    match try_edges (Graph.edges g) with
    | Some h -> edge_pass h
    | None -> g
  in
  (* dropping edges can free a node, so alternate until a round of both
     passes drops nothing *)
  let rec rounds g =
    let h = edge_pass (node_pass g) in
    if Graph.node_count h = Graph.node_count g
       && Graph.edge_count h = Graph.edge_count g
    then h
    else rounds h
  in
  let g = rounds g in
  assert (is_countermodel g ~sigma ~phi);
  g
