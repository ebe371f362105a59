(* Shared helpers and QCheck generators for the test suites. *)

module Label = Pathlang.Label
module Path = Pathlang.Path
module Constr = Pathlang.Constr
module Graph = Sgraph.Graph

let qcheck test = QCheck_alcotest.to_alcotest ~verbose:false test

let q ?(count = 200) name arb law =
  qcheck (QCheck.Test.make ~count ~name arb law)

(* --- labels and paths ------------------------------------------------ *)

let label_names = [ "a"; "b"; "c" ]
let labels = List.map Label.make label_names

let gen_label = QCheck.Gen.oneofl labels

let gen_path_len max_len =
  QCheck.Gen.(
    int_bound max_len >>= fun n ->
    map Path.of_labels (list_repeat n gen_label))

let gen_path = gen_path_len 4

let arb_path =
  QCheck.make gen_path ~print:Path.to_string
    ~shrink:(fun p ->
      (* shrink by dropping labels *)
      let labels = Path.to_labels p in
      QCheck.Iter.map
        (fun ls -> Path.of_labels ls)
        (QCheck.Shrink.list labels))

let gen_nonempty_path =
  QCheck.Gen.(
    map2 (fun k p -> Path.cons k p) gen_label (gen_path_len 3))

(* --- constraints ----------------------------------------------------- *)

let gen_word_constraint =
  QCheck.Gen.(
    map2
      (fun lhs rhs -> Constr.word ~lhs ~rhs)
      gen_nonempty_path gen_path)

let arb_word_constraint = QCheck.make gen_word_constraint ~print:Constr.to_string

let gen_constraint =
  QCheck.Gen.(
    int_bound 2 >>= fun kind ->
    gen_path >>= fun prefix ->
    gen_nonempty_path >>= fun lhs ->
    gen_path >>= fun rhs ->
    return
      (match kind with
      | 0 -> Constr.word ~lhs ~rhs
      | 1 -> Constr.forward ~prefix ~lhs ~rhs
      | _ -> Constr.backward ~prefix ~lhs ~rhs))

let arb_constraint = QCheck.make gen_constraint ~print:Constr.to_string

let gen_sigma n = QCheck.Gen.(list_size (int_bound n) gen_word_constraint)

let print_sigma sigma =
  String.concat "; " (List.map Constr.to_string sigma)

let arb_word_sigma = QCheck.make (gen_sigma 5) ~print:print_sigma

(* --- graphs ----------------------------------------------------------- *)

let gen_graph ?(max_nodes = 5) () =
  QCheck.Gen.(
    int_range 1 max_nodes >>= fun n ->
    list_size (int_bound (3 * n))
      (triple (int_bound (n - 1)) gen_label (int_bound (n - 1)))
    >>= fun edges ->
    return
      (let g = Graph.create () in
       for _ = 2 to n do
         ignore (Graph.add_node g)
       done;
       List.iter (fun (x, k, y) -> Graph.add_edge g x k y) edges;
       g))

let print_graph g = Format.asprintf "%a" Graph.pp g

let arb_graph = QCheck.make (gen_graph ()) ~print:print_graph

(* --- rooted isomorphism up to renaming --------------------------------- *)

(* Backtracking search for a root-preserving bijection that carries
   every edge of [g] onto an edge of [h]; with equal edge counts that
   is a labeled-graph isomorphism.  Candidates are pruned by in/out
   label signatures.  The chase engines are designed to produce
   identically numbered graphs, so the search almost always succeeds on
   its first branch; the full search keeps the tests honest if that
   ever drifts.  Shared by the incremental-chase differential suite and
   the crash/resume differential suite. *)
let isomorphic g h =
  let n = Graph.node_count g in
  n = Graph.node_count h
  && Graph.edge_count g = Graph.edge_count h
  &&
  let signature gr v =
    ( Label.Set.elements (Graph.out_labels gr v),
      Label.Set.elements (Graph.in_labels gr v),
      List.length (Graph.succ_all gr v) )
  in
  let sig_g = Array.init n (signature g) and sig_h = Array.init n (signature h) in
  let mapping = Array.make n (-1) in
  let used = Array.make n false in
  let edges_ok v w =
    Label.Set.for_all
      (fun k ->
        List.for_all
          (fun y -> mapping.(y) = -1 || Graph.has_edge h w k mapping.(y))
          (Graph.succ g v k))
      (Graph.out_labels g v)
    && Label.Set.for_all
         (fun k ->
           List.for_all
             (fun x -> mapping.(x) = -1 || Graph.has_edge h mapping.(x) k w)
             (Graph.pred g v k))
         (Graph.in_labels g v)
  in
  let rec assign v =
    if v = n then true
    else
      let rec try_candidate w =
        if w = n then false
        else if (not used.(w)) && sig_g.(v) = sig_h.(w) then begin
          mapping.(v) <- w;
          used.(w) <- true;
          if edges_ok v w && assign (v + 1) then true
          else begin
            mapping.(v) <- -1;
            used.(w) <- false;
            try_candidate (w + 1)
          end
        end
        else try_candidate (w + 1)
      in
      try_candidate 0
  in
  (* the root must map to the root *)
  mapping.(0) <- 0;
  used.(0) <- true;
  sig_g.(0) = sig_h.(0) && edges_ok 0 0 && assign 1

let equivalent g h = Graph.equal g h || isomorphic g h

let rng () = Random.State.make [| 0xC0FFEE |]

(* --- misc ------------------------------------------------------------- *)

let path s = Path.of_string s
let c_word l r = Constr.word ~lhs:(path l) ~rhs:(path r)
let c_fwd p l r = Constr.forward ~prefix:(path p) ~lhs:(path l) ~rhs:(path r)
let c_bwd p l r = Constr.backward ~prefix:(path p) ~lhs:(path l) ~rhs:(path r)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let constr_testable = Alcotest.testable Constr.pp Constr.equal
let path_testable = Alcotest.testable Path.pp Path.equal

(* [Enumerate.find_countermodel] returns the graph-per-mask reference's
   witness byte for byte, sequentially and at 2 and 4 jobs *)
let enumeration_matches_reference ~max_nodes ~labels ~sigma ~phi =
  let show = function None -> "None" | Some g -> Sgraph.Io.to_string g in
  let expected =
    show
      (Oracle.Enumerate_reference.find_countermodel ~max_nodes ~labels ~sigma
         ~phi)
  in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          check_string
            (Printf.sprintf "%s at %d jobs" (Constr.to_string phi) jobs)
            expected
            (show
               (Sgraph.Enumerate.find_countermodel ?pool ~max_nodes ~labels
                  ~sigma ~phi ()))))
    [ 1; 2; 4 ]
