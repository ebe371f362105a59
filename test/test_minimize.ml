open Testutil
module Graph = Sgraph.Graph
module Check = Sgraph.Check
module Minimize = Core.Minimize

let is_cm g sigma phi = Check.holds_all g sigma && not (Check.holds g phi)

let test_drop_node () =
  let g = Graph.of_edges [ (0, "a", 1); (1, "b", 2); (0, "c", 2) ] in
  let h = Minimize.drop_node g 1 in
  check_int "one fewer node" 2 (Graph.node_count h);
  check_int "incident edges gone" 1 (Graph.edge_count h);
  Alcotest.check_raises "root protected" (Invalid_argument "")
    (fun () ->
      try ignore (Minimize.drop_node g 0)
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_minimize_padded () =
  (* countermodel to a -> b with irrelevant clutter *)
  let g =
    Graph.of_edges
      [ (0, "a", 1); (0, "c", 2); (2, "c", 3); (3, "c", 4); (1, "c", 1) ]
  in
  let sigma = [] and phi = c_word "a" "b" in
  check_bool "input is countermodel" true (is_cm g sigma phi);
  let h = Minimize.countermodel g ~sigma ~phi in
  check_bool "still countermodel" true (is_cm h sigma phi);
  check_int "shrunk to root + witness" 2 (Graph.node_count h);
  check_int "single edge" 1 (Graph.edge_count h)

let test_minimize_respects_sigma () =
  (* sigma = a -> b forces the b edge to stay *)
  let g = Graph.of_edges [ (0, "a", 1); (0, "b", 1); (0, "c", 2) ] in
  let sigma = [ c_word "a" "b" ] in
  let phi = c_word "a" "c" in
  check_bool "input is countermodel" true (is_cm g sigma phi);
  let h = Minimize.countermodel g ~sigma ~phi in
  check_bool "still countermodel" true (is_cm h sigma phi);
  check_bool "kept a and b shape" true (Graph.edge_count h >= 2)

let test_rejects_non_countermodel () =
  let g = Graph.of_edges [ (0, "a", 1); (0, "b", 1) ] in
  Alcotest.check_raises "not a countermodel" (Invalid_argument "")
    (fun () ->
      try
        ignore (Minimize.countermodel g ~sigma:[] ~phi:(c_word "a" "b"))
      with Invalid_argument _ -> raise (Invalid_argument ""))

let prop_minimized_still_countermodel =
  q ~count:80 "minimization preserves countermodel-hood and never grows"
    QCheck.(
      triple
        (QCheck.make (gen_graph ~max_nodes:5 ()) ~print:print_graph)
        arb_word_sigma arb_word_constraint)
    (fun (g, sigma, phi) ->
      if is_cm g sigma phi then begin
        let h = Core.Minimize.countermodel g ~sigma ~phi in
        is_cm h sigma phi
        && Graph.node_count h <= Graph.node_count g
        && Graph.edge_count h <= Graph.edge_count g
      end
      else true)

(* A case QCheck found (edge insertion order matters): the first node
   pass keeps a node that only becomes removable once the edge pass has
   cut its edges, so the node pass must run again. *)
let test_nodes_freed_by_edges () =
  let g =
    Graph.of_edges
      [ (0, "b", 0); (0, "b", 1); (0, "c", 0); (0, "c", 2); (2, "c", 0) ]
  in
  let sigma = [] and phi = c_word "c" "c.b.b" in
  let h = Minimize.countermodel g ~sigma ~phi in
  check_bool "still countermodel" true (is_cm h sigma phi);
  List.iter
    (fun n ->
      if n <> Graph.root h then
        check_bool "no node can go" false
          (is_cm (Minimize.drop_node h n) sigma phi))
    (Graph.nodes h)

let prop_one_minimal =
  q ~count:40 "result is 1-minimal on nodes"
    QCheck.(
      pair
        (QCheck.make (gen_graph ~max_nodes:4 ()) ~print:print_graph)
        arb_word_constraint)
    (fun (g, phi) ->
      let sigma = [] in
      if is_cm g sigma phi then begin
        let h = Core.Minimize.countermodel g ~sigma ~phi in
        List.for_all
          (fun n ->
            n = Graph.root h
            || not (is_cm (Minimize.drop_node h n) sigma phi))
          (Graph.nodes h)
      end
      else true)

let () =
  Alcotest.run "minimize"
    [
      ( "minimize",
        [
          Alcotest.test_case "drop_node" `Quick test_drop_node;
          Alcotest.test_case "padded countermodel" `Quick test_minimize_padded;
          Alcotest.test_case "respects sigma" `Quick test_minimize_respects_sigma;
          Alcotest.test_case "rejects non-countermodel" `Quick
            test_rejects_non_countermodel;
          Alcotest.test_case "nodes freed by the edge pass" `Quick
            test_nodes_freed_by_edges;
          prop_minimized_still_countermodel;
          prop_one_minimal;
        ] );
    ]
