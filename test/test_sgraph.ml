open Testutil
module Label = Pathlang.Label
module Path = Pathlang.Path
module Graph = Sgraph.Graph
module Eval = Sgraph.Eval
module Check = Sgraph.Check
module Fo_eval = Sgraph.Fo_eval
module NS = Graph.Node_set

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- graph construction ----------------------------------------------- *)

let test_build () =
  let g = Graph.create () in
  check_int "initial nodes" 1 (Graph.node_count g);
  let n1 = Graph.add_node g in
  let n2 = Graph.add_node g in
  Graph.add_edge g 0 (Label.make "a") n1;
  Graph.add_edge g n1 (Label.make "b") n2;
  Graph.add_edge g n1 (Label.make "b") n2;
  (* duplicate ignored *)
  check_int "edges" 2 (Graph.edge_count g);
  check_bool "has_edge" true (Graph.has_edge g 0 (Label.make "a") n1);
  check_bool "succ" true (Graph.succ g n1 (Label.make "b") = [ n2 ]);
  check_bool "pred" true (Graph.pred g n2 (Label.make "b") = [ n1 ])

let test_of_edges () =
  let g = Graph.of_edges [ (0, "a", 1); (1, "b", 2); (2, "a", 0) ] in
  check_int "nodes" 3 (Graph.node_count g);
  check_int "edges" 3 (Graph.edge_count g)

let test_add_path () =
  let g = Graph.create () in
  let target = Graph.add_node g in
  Graph.add_path g 0 (path "a.b.c") target;
  check_bool "path holds" true (Eval.holds_between g 0 (path "a.b.c") target);
  check_int "two fresh intermediates" 4 (Graph.node_count g)

let test_ensure_path () =
  let g = Graph.create () in
  let x = Graph.ensure_path g 0 (path "a.b") in
  let y = Graph.ensure_path g 0 (path "a.b") in
  check_int "reuses" x y;
  check_int "nodes" 3 (Graph.node_count g)

let test_union_disjoint () =
  let g = Graph.of_edges [ (0, "a", 1) ] in
  let h = Graph.of_edges [ (0, "b", 1) ] in
  let rename = Graph.union_disjoint g h in
  check_int "combined nodes" 4 (Graph.node_count g);
  check_bool "h edge present" true
    (Graph.has_edge g (rename 0) (Label.make "b") (rename 1))

let test_copy_independent () =
  let g = Graph.of_edges [ (0, "a", 1) ] in
  let h = Graph.copy g in
  Graph.add_edge h 0 (Label.make "b") 1;
  check_int "original unchanged" 1 (Graph.edge_count g);
  check_int "copy changed" 2 (Graph.edge_count h)

(* --- evaluation -------------------------------------------------------- *)

let test_eval () =
  let g =
    Graph.of_edges [ (0, "a", 1); (0, "a", 2); (1, "b", 3); (2, "b", 0) ]
  in
  let res = Eval.eval g (path "a.b") in
  check_bool "a.b reaches 3 and 0" true (NS.equal res (NS.of_list [ 0; 3 ]));
  check_bool "empty path is self" true
    (NS.equal (Eval.eval g Path.empty) (NS.singleton 0));
  check_bool "missing path" true (NS.is_empty (Eval.eval g (path "c")))

let test_reachable () =
  let g = Graph.of_edges [ (0, "a", 1); (1, "a", 2); (3, "a", 0) ] in
  check_bool "reachable from root" true
    (NS.equal (Eval.reachable g 0) (NS.of_list [ 0; 1; 2 ]))

let prop_eval_matches_fo =
  q ~count:100 "path eval agrees with naive FO evaluation"
    QCheck.(pair arb_graph arb_path)
    (fun (g, p) ->
      let via_eval = Eval.eval g p in
      List.for_all
        (fun n ->
          let fo =
            Fo_eval.eval g
              [ ("y", n) ]
              (Pathlang.Fo.of_path p ~src:Pathlang.Fo.Root
                 ~dst:(Pathlang.Fo.Var "y"))
          in
          fo = NS.mem n via_eval)
        (Graph.nodes g))

(* --- constraint checking ------------------------------------------------ *)

let prop_check_matches_fo =
  q ~count:100 "Check.holds agrees with the FO oracle"
    QCheck.(pair arb_graph arb_constraint)
    (fun (g, c) -> Check.holds g c = Fo_eval.holds_constraint g c)

let prop_violations_consistent =
  q ~count:100 "violations empty iff holds"
    QCheck.(pair arb_graph arb_constraint)
    (fun (g, c) -> Check.holds g c = (Check.violations g c = []))

(* violations, first_violation and holds are three clients of one
   scan: the first is its least pair, the last its emptiness. *)
let prop_first_violation_is_least =
  q ~count:200 "first_violation is the least violation"
    QCheck.(pair arb_graph arb_constraint)
    (fun (g, c) ->
      let vs = Check.violations g c in
      let least =
        match vs with [] -> None | v :: rest -> Some (List.fold_left min v rest)
      in
      Check.first_violation g c = least
      && Check.holds g c = (vs = []))

let test_figure1_constraints () =
  let g = Xmlrep.Bib.figure1 () in
  check_bool "extent constraints hold" true
    (Check.holds_all g (Xmlrep.Bib.extent_constraints ()));
  check_bool "inverse constraints hold" true
    (Check.holds_all g (Xmlrep.Bib.inverse_constraints ()))

let test_violation_witness () =
  (* a book without a wrote back-edge violates the inverse constraint *)
  let g = Graph.of_edges [ (0, "book", 1); (1, "author", 2) ] in
  let inv = c_bwd "book" "author" "wrote" in
  check_bool "violated" false (Check.holds g inv);
  match Check.violations g inv with
  | [ (x, y) ] ->
      check_int "x" 1 x;
      check_int "y" 2 y
  | _ -> Alcotest.fail "expected exactly one witness"

(* --- enumeration -------------------------------------------------------- *)

let test_enumerate_count () =
  let labels = [ Label.make "a" ] in
  (match Sgraph.Enumerate.count ~nodes:2 ~labels with
  | Some n -> check_int "2^(1*2*2)" 16 n
  | None -> Alcotest.fail "16 graphs is countable");
  let seen = ref 0 in
  ignore
    (Sgraph.Enumerate.iter ~nodes:2 ~labels (fun _ ->
         incr seen;
         false));
  check_int "enumerates all" 16 !seen

let test_enumerate_count_overflow () =
  let labels = [ Label.make "a"; Label.make "b" ] in
  (* 2 * 6^2 = 72 bits: must refuse, not wrap *)
  check_bool "72 bits overflows" true
    (Sgraph.Enumerate.count ~nodes:6 ~labels = None);
  (* absurd node counts must not wrap inside the exponent itself *)
  check_bool "n^2 overflow caught" true
    (Sgraph.Enumerate.count ~nodes:(1 lsl 40) ~labels = None);
  check_bool "max_int nodes caught" true
    (Sgraph.Enumerate.count ~nodes:max_int ~labels = None);
  (* a find_countermodel whose very first size overflows the bitmask
     terminates with None instead of looping on 2^62+ graphs *)
  let wide = List.init 62 (fun i -> Label.make (Printf.sprintf "l%d" i)) in
  check_bool "overflowing space terminates" true
    (Sgraph.Enumerate.find_countermodel ~max_nodes:max_int ~labels:wide
       ~sigma:[ c_word "a" "b" ] ~phi:(c_word "a" "b") ()
    = None)

let test_enumerate_finds_countermodel () =
  let labels = [ Label.make "a"; Label.make "b" ] in
  match
    Sgraph.Enumerate.find_countermodel ~max_nodes:2 ~labels ~sigma:[]
      ~phi:(c_word "a" "b") ()
  with
  | Some g -> check_bool "is countermodel" false (Check.holds g (c_word "a" "b"))
  | None -> Alcotest.fail "countermodel exists at size 2"

let test_enumerate_respects_sigma () =
  let labels = [ Label.make "a"; Label.make "b" ] in
  check_bool "none found" true
    (Sgraph.Enumerate.find_countermodel ~max_nodes:2 ~labels
       ~sigma:[ c_word "a" "b" ] ~phi:(c_word "a" "b") ()
    = None)

(* --- generators / dot ----------------------------------------------------- *)

let test_random_reachable () =
  let rng = rng () in
  let g = Sgraph.Gen.random ~rng ~nodes:12 ~labels ~edge_prob:0.05 in
  check_bool "all reachable" true
    (NS.cardinal (Eval.reachable g 0) = Graph.node_count g)

let test_random_tree () =
  let rng = rng () in
  let g = Sgraph.Gen.random_tree ~rng ~nodes:10 ~labels in
  check_int "n-1 edges" 9 (Graph.edge_count g);
  check_bool "all reachable" true (NS.cardinal (Eval.reachable g 0) = 10)

let test_dot () =
  let g = Xmlrep.Bib.figure1 () in
  let dot = Sgraph.Dot.to_dot g in
  check_bool "nonempty" true (String.length dot > 20);
  check_bool "author edge rendered" true (contains dot "author");
  check_bool "root double circle" true (contains dot "doublecircle")

(* --- bisimulation quotient ---------------------------------------------------- *)

let test_bisim_merges_twins () =
  (* two structurally identical leaf children collapse *)
  let g = Graph.of_edges [ (0, "a", 1); (0, "a", 2) ] in
  let h, proj = Sgraph.Bisim.quotient g in
  check_int "classes" 2 (Graph.node_count h);
  check_int "twins merged" (proj 1) (proj 2);
  check_bool "bisimilar" true (Sgraph.Bisim.bisimilar g 1 2)

let test_bisim_distinguishes () =
  (* different out-labels stay apart *)
  let g = Graph.of_edges [ (0, "a", 1); (0, "a", 2); (1, "b", 3) ] in
  check_bool "not bisimilar" false (Sgraph.Bisim.bisimilar g 1 2)

let test_bisim_cycle () =
  (* an a-cycle of length 2 collapses to a self-loop *)
  let g = Graph.of_edges [ (0, "a", 1); (1, "a", 0) ] in
  let h, _ = Sgraph.Bisim.quotient g in
  check_int "single class" 1 (Graph.node_count h);
  check_bool "self loop" true (Graph.has_edge h 0 (Label.make "a") 0)

let prop_quotient_preserves_path_answers =
  q ~count:100 "quotient preserves root-path answers up to projection"
    QCheck.(pair arb_graph arb_path)
    (fun (g, p) ->
      let h, proj = Sgraph.Bisim.quotient g in
      let lifted =
        NS.fold (fun v acc -> NS.add (proj v) acc) (Eval.eval g p) NS.empty
      in
      NS.equal lifted (Eval.eval h p))

let prop_quotient_preserves_word_constraints =
  q ~count:100 "quotient preserves satisfied word constraints (one way)"
    QCheck.(pair arb_graph arb_word_constraint)
    (fun (g, c) ->
      let h, _ = Sgraph.Bisim.quotient g in
      (* projection is monotone on answers, so satisfaction transfers
         g -> quotient; the converse fails (merging can only equate
         answers), which is exactly why 1-indexes overapproximate *)
      if Check.holds g c then Check.holds h c else true)

(* --- dataguide ------------------------------------------------------------------ *)

let test_dataguide_figure1 () =
  let g = Xmlrep.Bib.figure1 () in
  match Sgraph.Dataguide.build g with
  | Error e -> Alcotest.fail e
  | Ok guide ->
      check_bool "guide built" true (Sgraph.Dataguide.size guide > 0);
      List.iter
        (fun p ->
          check_bool (Path.to_string p) true
            (NS.equal (Sgraph.Dataguide.eval guide p) (Eval.eval g p)))
        (List.map path
           [ "book"; "book.author"; "book.ref.author"; "person.wrote"; "zap" ])

let prop_dataguide_exact =
  q ~count:100 "dataguide evaluation is exact"
    QCheck.(pair arb_graph arb_path)
    (fun (g, p) ->
      match Sgraph.Dataguide.build g with
      | Error _ -> true
      | Ok guide -> NS.equal (Sgraph.Dataguide.eval guide p) (Eval.eval g p))

let test_dataguide_budget () =
  let g = Xmlrep.Bib.penn_bib () in
  match Sgraph.Dataguide.build ~max_states:1 g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "budget of 1 must fail on a non-trivial graph"

let () =
  Alcotest.run "sgraph"
    [
      ( "graph",
        [
          Alcotest.test_case "build" `Quick test_build;
          Alcotest.test_case "of_edges" `Quick test_of_edges;
          Alcotest.test_case "add_path" `Quick test_add_path;
          Alcotest.test_case "ensure_path" `Quick test_ensure_path;
          Alcotest.test_case "union_disjoint" `Quick test_union_disjoint;
          Alcotest.test_case "copy" `Quick test_copy_independent;
        ] );
      ( "eval",
        [
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "reachable" `Quick test_reachable;
          prop_eval_matches_fo;
        ] );
      ( "check",
        [
          Alcotest.test_case "figure 1" `Quick test_figure1_constraints;
          Alcotest.test_case "violation witness" `Quick test_violation_witness;
          prop_check_matches_fo;
          prop_violations_consistent;
          prop_first_violation_is_least;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "count" `Quick test_enumerate_count;
          Alcotest.test_case "count overflow" `Quick
            test_enumerate_count_overflow;
          Alcotest.test_case "finds countermodel" `Quick
            test_enumerate_finds_countermodel;
          Alcotest.test_case "respects sigma" `Quick
            test_enumerate_respects_sigma;
        ] );
      ( "gen",
        [
          Alcotest.test_case "random reachable" `Quick test_random_reachable;
          Alcotest.test_case "random tree" `Quick test_random_tree;
          Alcotest.test_case "dot" `Quick test_dot;
        ] );
      ( "bisim",
        [
          Alcotest.test_case "merges twins" `Quick test_bisim_merges_twins;
          Alcotest.test_case "distinguishes" `Quick test_bisim_distinguishes;
          Alcotest.test_case "cycle" `Quick test_bisim_cycle;
          prop_quotient_preserves_path_answers;
          prop_quotient_preserves_word_constraints;
        ] );
      ( "dataguide",
        [
          Alcotest.test_case "figure 1" `Quick test_dataguide_figure1;
          prop_dataguide_exact;
          Alcotest.test_case "budget" `Quick test_dataguide_budget;
        ] );
    ]
