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

(* --- a model of Graph: the edge list in insertion order ----------------- *)

(* [edges] is oldest first; a removed edge leaves the others in order. *)
type model = { size : int; edges : (int * Label.t * int) list }

let m_mem m e = List.mem e m.edges
let m_add m ((x, _, y) as e) =
  assert (x < m.size && y < m.size);
  if m_mem m e then m else { m with edges = m.edges @ [ e ] }

let m_remove m e = { m with edges = List.filter (( <> ) e) m.edges }
let m_node m = ({ m with size = m.size + 1 }, m.size)

let newest_first m f = List.rev (List.filter_map f m.edges)
let m_succ m x k = newest_first m (fun (x', k', y) -> if x = x' && k = k' then Some y else None)
let m_pred m y k = newest_first m (fun (x, k', y') -> if y = y' && k = k' then Some x else None)

let m_labels m f = Label.Set.of_list (List.filter_map f m.edges)
let m_out_labels m x = m_labels m (fun (x', k, _) -> if x = x' then Some k else None)
let m_in_labels m y = m_labels m (fun (_, k, y') -> if y = y' then Some k else None)

(* labels descending, each label's targets oldest first *)
let m_succ_all m x =
  List.concat_map
    (fun k -> List.map (fun y -> (k, y)) (List.rev (m_succ m x k)))
    (List.rev (Label.Set.elements (m_out_labels m x)))

(* nodes ascending, labels ascending, targets newest first *)
let m_iter_order m =
  List.concat_map
    (fun x ->
      List.concat_map
        (fun k -> List.map (fun y -> (x, k, y)) (m_succ m x k))
        (Label.Set.elements (m_out_labels m x)))
    (List.init m.size Fun.id)

let m_ensure_path m x ks =
  List.fold_left
    (fun (m, x) k ->
      match m_succ m x k with
      | y :: _ -> (m, y)
      | [] ->
          let m, y = m_node m in
          (m_add m (x, k, y), y))
    (m, x) ks

let m_union m h =
  let offset = m.size in
  let m = { m with size = m.size + h.size } in
  List.fold_left
    (fun m (x, k, y) -> m_add m (x + offset, k, y + offset))
    m (m_iter_order h)

let agrees_with_model g m =
  let nodes = List.init m.size Fun.id in
  Graph.node_count g = m.size
  && Graph.edge_count g = List.length m.edges
  && Graph.edges g = m_iter_order m
  && List.for_all
       (fun x ->
         Label.Set.equal (Graph.out_labels g x) (m_out_labels m x)
         && Label.Set.equal (Graph.in_labels g x) (m_in_labels m x)
         && Graph.succ_all g x = m_succ_all m x
         && List.for_all
              (fun k ->
                Graph.succ g x k = m_succ m x k
                && Graph.pred g x k = m_pred m x k
                && List.for_all
                     (fun y -> Graph.has_edge g x k y = m_mem m (x, k, y))
                     nodes)
              labels)
       nodes

type gop =
  | Add_node
  | Add_edge of int * Label.t * int
  | Remove_nth of int
  | Remove of int * Label.t * int
  | Ensure of int * Label.t list
  | Union of (int * Label.t * int) list
  | Copy of gop list

let rec show_gop = function
  | Add_node -> "node"
  | Add_edge (x, k, y) -> Printf.sprintf "add %d %s %d" x (Label.to_string k) y
  | Remove_nth i -> Printf.sprintf "remove #%d" i
  | Remove (x, k, y) -> Printf.sprintf "remove %d %s %d" x (Label.to_string k) y
  | Ensure (x, ks) ->
      Printf.sprintf "ensure %d %s" x (String.concat "." (List.map Label.to_string ks))
  | Union es ->
      "union ["
      ^ String.concat "; "
          (List.map (fun (x, k, y) -> Printf.sprintf "%d %s %d" x (Label.to_string k) y) es)
      ^ "]"
  | Copy ops -> "copy [" ^ String.concat "; " (List.map show_gop ops) ^ "]"

let gen_gop =
  QCheck.Gen.(
    let edge = triple small_nat gen_label small_nat in
    let simple =
      frequency
        [
          (2, return Add_node);
          (6, map (fun (x, k, y) -> Add_edge (x, k, y)) edge);
          (2, map (fun i -> Remove_nth i) small_nat);
          (1, map (fun (x, k, y) -> Remove (x, k, y)) edge);
          (1, map2 (fun x ks -> Ensure (x, ks)) small_nat (list_size (int_bound 3) gen_label));
          (1, map (fun es -> Union es) (list_size (int_bound 4) (triple (int_bound 3) gen_label (int_bound 3))));
        ]
    in
    frequency [ (8, simple); (1, map (fun ops -> Copy ops) (list_size (int_range 1 5) simple)) ])

(* Apply [op] to [g] and its model and check that they still agree; a
   copy is checked on its own, and the original must not move. *)
let rec step_model g m op =
  let n = Graph.node_count g in
  let ok m = if agrees_with_model g m then Some m else None in
  match op with
  | Add_node ->
      let m, v = m_node m in
      if Graph.add_node g = v then ok m else None
  | Add_edge (x, k, y) ->
      Graph.add_edge g (x mod n) k (y mod n);
      ok (m_add m (x mod n, k, y mod n))
  | Remove_nth i -> (
      match m.edges with
      | [] -> ok m
      | es ->
          let ((x, k, y) as e) = List.nth es (i mod List.length es) in
          Graph.remove_edge g x k y;
          ok (m_remove m e))
  | Remove (x, k, y) ->
      Graph.remove_edge g (x mod n) k (y mod n);
      ok (m_remove m (x mod n, k, y mod n))
  | Ensure (x, ks) ->
      let m, want = m_ensure_path m (x mod n) ks in
      if Graph.ensure_path g (x mod n) (Path.of_labels ks) = want then ok m else None
  | Union es ->
      let h = Graph.of_edges (List.map (fun (x, k, y) -> (x, Label.to_string k, y)) es) in
      let hm =
        List.fold_left m_add
          { size = 1 + List.fold_left (fun a (x, _, y) -> max a (max x y)) 0 es; edges = [] }
          es
      in
      let rename = Graph.union_disjoint g h in
      if List.for_all (fun v -> rename v = v + m.size) (List.init hm.size Fun.id) then
        ok (m_union m hm)
      else None
  | Copy ops ->
      let h = Graph.copy g in
      let copied =
        List.fold_left (fun hm op -> Option.bind hm (fun hm -> step_model h hm op)) (Some m) ops
      in
      if Option.is_some copied then ok m else None

let prop_graph_model =
  q ~count:300 "graph agrees with its edge-list model"
    (QCheck.make ~print:(QCheck.Print.list show_gop)
       QCheck.Gen.(list_size (int_bound 25) gen_gop))
    (fun ops ->
      let g = Graph.create () in
      let m = { size = 1; edges = [] } in
      Option.is_some
        (List.fold_left (fun m op -> Option.bind m (fun m -> step_model g m op)) (Some m) ops))

(* A set node with 20k members, each listed twice: loading stays linear
   (membership is one hash probe, not a scan of the run). *)
let test_big_set_node () =
  let members = 20_000 in
  let buf = Buffer.create (members * 24) in
  for _ = 1 to 2 do
    for i = 1 to members do
      Buffer.add_string buf (Printf.sprintf "0 * %d\n" i)
    done
  done;
  match Sgraph.Io.of_string (Buffer.contents buf) with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok g ->
      check_int "edges" members (Graph.edge_count g);
      check_int "nodes" (members + 1) (Graph.node_count g);
      check_bool "newest first" true
        (List.hd (Graph.succ g 0 (Label.make "*")) = members)

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

(* Both cases of [run] reject a source outside the graph, even one that
   falls in the spare capacity of the graph's arrays. *)
let test_eval_unknown_node () =
  let g = Graph.create () in
  let unknown = Invalid_argument "Eval.run: unknown node" in
  let raises name f = Alcotest.check_raises name unknown (fun () -> ignore (f ())) in
  raises "spare capacity" (fun () -> Eval.eval_from g 5 (path "a"));
  raises "empty word" (fun () -> Eval.eval_from g 5 Path.empty);
  raises "beyond capacity" (fun () -> Eval.eval_from g 100 (path "a"));
  raises "negative" (fun () -> Eval.eval_from g (-1) Path.empty);
  raises "holds_between" (fun () -> Eval.holds_between g 5 (path "a") 0);
  raises "automaton" (fun () ->
      Eval.run g 5 (Eval.Nfa { start = [ 0 ]; delta = [| [||] |]; final = [| true |] }));
  raises "start" (fun () -> Eval.start g 1)

(* The flat id walk answers the label-list walk of [Oracle.Walk_reference]
   on every factor [w.(lo) .. w.(hi-1)] of the word (the empty ones
   included), forward and backward, from every node; [mem] agrees with
   the frontier's nodes. *)
let walks_agree g p =
  let ks = Array.of_list (Path.to_labels p) and w = Eval.word p in
  let n = Array.length w in
  let factors =
    List.concat_map (fun lo -> List.init (n - lo + 1) (fun d -> (lo, lo + d))) (List.init (n + 1) Fun.id)
  in
  let answers f =
    let s = List.fold_left (fun s i -> NS.add (Eval.get f i) s) NS.empty (List.init (Eval.size f) Fun.id) in
    (s, List.for_all (fun v -> Eval.mem f v = NS.mem v s) (Graph.nodes g), Eval.size f = NS.cardinal s)
  in
  let agree walk reference x (lo, hi) =
    let f = Eval.start g x in
    walk g f w lo hi;
    let s, mem_ok, no_dups = answers f in
    mem_ok && no_dups
    && NS.equal s (reference g (NS.singleton x) (Array.to_list (Array.sub ks lo (hi - lo))))
  in
  List.for_all
    (fun x ->
      List.for_all
        (fun r ->
          agree Eval.image Oracle.Walk_reference.image x r
          && agree Eval.preimage Oracle.Walk_reference.preimage x r)
        factors)
    (Graph.nodes g)

let prop_walk_matches_reference =
  q ~count:200 "id walk = label-list walk"
    QCheck.(pair arb_graph arb_path)
    (fun (g, p) -> walks_agree g p)

let prop_walk_after_merges =
  q ~count:200 "id walk = label-list walk after merges"
    QCheck.(triple arb_graph arb_path (list_of_size (QCheck.Gen.int_bound 3) (pair small_nat small_nat)))
    (fun (g, p, merges) ->
      let mg = Sgraph.Merge_graph.of_graph (Graph.copy g) in
      let node i = Sgraph.Merge_graph.find mg (i mod Graph.node_count g) in
      List.iter (fun (a, b) -> ignore (Sgraph.Merge_graph.union mg (node a) (node b))) merges;
      walks_agree (Sgraph.Merge_graph.graph mg) p)

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

(* The mask model check is [Check.holds] on the graph the mask stands
   for.  Constraints are drawn over a, b, c with paths of length 0..2
   (ε prefixes, lhs and rhs included); alphabets leave labels out, list
   them in either order, or list one twice.  Every mask is checked for
   n <= 2, 64 sampled masks for n = 3. *)
let prop_mask_check_is_check =
  let alphabets =
    List.map (List.map Label.make)
      [ []; [ "a" ]; [ "b" ]; [ "a"; "b" ]; [ "b"; "a" ]; [ "a"; "a" ] ]
  in
  let gen =
    QCheck.Gen.(
      let path = gen_path_len 2 in
      bool >>= fun forward ->
      path >>= fun prefix ->
      path >>= fun lhs ->
      path >>= fun rhs ->
      oneofl alphabets >>= fun labels ->
      int_range 1 3 >>= fun nodes ->
      list_repeat 64 (int_bound ((1 lsl (List.length labels * 9)) - 1))
      >>= fun sample ->
      return
        ( (if forward then Constr.forward else Constr.backward)
            ~prefix ~lhs ~rhs,
          labels,
          nodes,
          sample ))
  in
  q ~count:300 "mask check = Check.holds on the mask's graph"
    (QCheck.make gen ~print:(fun (c, labels, nodes, _) ->
         Printf.sprintf "%s over [%s], %d nodes" (Constr.to_string c)
           (String.concat ";" (List.map Label.to_string labels))
           nodes))
    (fun (c, labels, nodes, sample) ->
      let holds = Sgraph.Enumerate.holds ~nodes ~labels c in
      let masks =
        if nodes < 3 then
          match Sgraph.Enumerate.count ~nodes ~labels with
          | Some total -> List.init total Fun.id
          | None -> []
        else sample
      in
      List.for_all
        (fun mask ->
          holds mask
          = Check.holds (Sgraph.Enumerate.graph ~nodes ~labels mask) c)
        masks)

let test_enumerate_reference_instances () =
  let ab = [ Label.make "a"; Label.make "b" ] in
  enumeration_matches_reference ~max_nodes:2 ~labels:ab ~sigma:[] ~phi:(c_word "a" "b");
  enumeration_matches_reference ~max_nodes:2 ~labels:ab ~sigma:[ c_word "a" "b" ]
    ~phi:(c_word "a" "b");
  (* test_chase's ε-rhs incompleteness witness: a full 3-node scan *)
  enumeration_matches_reference ~max_nodes:3
    ~labels:[ Label.make "a"; Label.make "c" ]
    ~sigma:[ c_word "a" "eps"; c_word "a.c" "eps" ]
    ~phi:(c_word "a.c.c" "c.a.c");
  (* a backward constraint with an ε lhs and a goal over a label
     outside the alphabet *)
  enumeration_matches_reference ~max_nodes:2 ~labels:ab
    ~sigma:
      [
        Constr.backward ~prefix:(Path.of_strings [ "a" ]) ~lhs:Path.empty
          ~rhs:(Path.of_strings [ "b" ]);
      ]
    ~phi:(c_word "a.b" "c")

let prop_enumerate_matches_reference =
  q ~count:40 "find_countermodel = graph-per-mask reference, 1/2/4 jobs"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 3) arb_constraint)
              arb_constraint)
    (fun (sigma, phi) ->
      enumeration_matches_reference ~max_nodes:2
        ~labels:[ Label.make "a"; Label.make "b" ]
        ~sigma ~phi;
      true)

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
          prop_graph_model;
          Alcotest.test_case "20k-member set node" `Quick test_big_set_node;
        ] );
      ( "eval",
        [
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "reachable" `Quick test_reachable;
          Alcotest.test_case "unknown source node" `Quick test_eval_unknown_node;
          prop_eval_matches_fo;
          prop_walk_matches_reference;
          prop_walk_after_merges;
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
          prop_mask_check_is_check;
          Alcotest.test_case "reference instances" `Quick
            test_enumerate_reference_instances;
          prop_enumerate_matches_reference;
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
