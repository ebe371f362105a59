(* Differential tests for the incremental chase: the in-place
   union-find + dirty-worklist engine (Chase.run/implies) must agree
   with the retained copy-per-step reference engine
   (Oracle.Chase_reference) — same verdicts, and
   fixpoints isomorphic up to node renaming — plus governance tests:
   cancellation mid-chase leaves a well-formed graph and correct
   exhaustion diagnostics. *)

open Testutil
module Label = Pathlang.Label
module Path = Pathlang.Path
module Constr = Pathlang.Constr
module Graph = Sgraph.Graph
module Mg = Sgraph.Merge_graph
module Violations = Sgraph.Violations
module Check = Sgraph.Check
module Eval = Sgraph.Eval
module Chase = Core.Chase
module Chase_reference = Oracle.Chase_reference
module Verdict = Core.Verdict
module Engine = Core.Engine

(* The rooted-isomorphism checker ([isomorphic]/[equivalent]) lives in
   Testutil — it is shared with the crash/resume differential suite. *)

(* deterministic budgets: no wall-clock deadline, so verdicts cannot
   depend on machine speed *)
let budget () = Engine.Budget.v ~max_steps:200 ~max_nodes:200 ()

(* --- properties: incremental vs reference ------------------------------ *)

let arb_instance =
  QCheck.make
    QCheck.Gen.(pair (list_size (int_bound 5) gen_constraint) (gen_graph ()))
    ~print:(fun (sigma, g) -> print_sigma sigma ^ " on " ^ print_graph g)

let prop_run_equivalent =
  q ~count:150 "incremental and reference chase agree on run"
    arb_instance
    (fun (sigma, g) ->
      let tracked = Graph.nodes g in
      let out_i, tr_i =
        Chase.run ~ctl:(Engine.start (budget ())) ~tracked g sigma
      in
      let out_r, tr_r =
        Chase_reference.run_reference ~ctl:(Engine.start (budget ())) ~tracked g sigma
      in
      match (out_i, out_r) with
      | Chase.Fixpoint gi, Chase.Fixpoint gr ->
          Check.holds_all gi sigma && equivalent gi gr && tr_i = tr_r
      | Chase.Exhausted (gi, ei), Chase.Exhausted (gr, er) ->
          ei.Verdict.reason = er.Verdict.reason
          && ei.Verdict.steps = er.Verdict.steps
          && equivalent gi gr && tr_i = tr_r
      | _ -> false)

let arb_implies_instance =
  QCheck.make
    QCheck.Gen.(pair (list_size (int_bound 5) gen_constraint) gen_constraint)
    ~print:(fun (sigma, phi) ->
      print_sigma sigma ^ " |- " ^ Constr.to_string phi)

let prop_implies_equivalent =
  q ~count:200 "incremental and reference chase agree on implies"
    arb_implies_instance
    (fun (sigma, phi) ->
      match
        ( Chase.implies ~ctl:(Engine.start (budget ())) ~sigma phi,
          Chase_reference.implies_reference ~ctl:(Engine.start (budget ())) ~sigma phi )
      with
      | Verdict.Implied, Verdict.Implied -> true
      | Verdict.Refuted gi, Verdict.Refuted gr ->
          Check.holds_all gi sigma
          && (not (Check.holds gi phi))
          && equivalent gi gr
      | Verdict.Unknown ei, Verdict.Unknown er ->
          ei.Verdict.reason = er.Verdict.reason
          && ei.Verdict.steps = er.Verdict.steps
      | _ -> false)

(* merge-heavy fixed instance: the cyclic-3 monoid encoding drives long
   EGD cascades through the union-find path *)
let test_cyclic_monoid_equivalent () =
  let pres = Monoid.Examples.cyclic 3 in
  let sigma = Core.Encode_pwk.encode pres in
  let phi1, phi2 = Core.Encode_pwk.encode_test (path "a.a.a", Path.empty) in
  List.iter
    (fun phi ->
      let big () = Engine.start (Engine.Budget.steps_nodes 4000 4000) in
      let vi = Chase.implies ~ctl:(big ()) ~sigma phi in
      let vr = Chase_reference.implies_reference ~ctl:(big ()) ~sigma phi in
      check_bool "incremental implied" true (vi = Verdict.Implied);
      check_bool "reference agrees" true (vr = Verdict.Implied))
    [ phi1; phi2 ]

(* --- merge graph unit coverage ----------------------------------------- *)

let la = Label.make "a" and lb = Label.make "b"

let test_merge_graph_union () =
  let mg = Mg.of_graph (Graph.of_edges [ (0, "a", 1); (1, "b", 2); (0, "b", 2) ]) in
  (match Mg.union mg 1 2 with
  | Some (target, victim) ->
      check_int "smaller id absorbs" 1 target;
      check_int "victim" 2 victim
  | None -> Alcotest.fail "distinct classes must merge");
  check_int "canonical id" 1 (Mg.find mg 2);
  check_int "two classes gone to" 2 (Mg.live_count mg);
  let g = Mg.graph mg in
  check_bool "spliced b self loop" true (Graph.has_edge g 1 lb 1);
  check_bool "spliced root edge" true (Graph.has_edge g 0 lb 1);
  check_bool "victim isolated" true
    (Label.Set.is_empty (Graph.out_labels g 2)
    && Label.Set.is_empty (Graph.in_labels g 2));
  check_bool "incident labels of class" true
    (Label.Set.equal (Mg.incident_labels mg 2) (Label.Set.of_list [ la; lb ]))

let test_merge_graph_root_survives () =
  let mg = Mg.of_graph (Graph.of_edges [ (0, "a", 1) ]) in
  ignore (Mg.union mg 1 0);
  check_int "root is canonical" 0 (Mg.find mg 1);
  check_bool "self loop at root" true (Graph.has_edge (Mg.graph mg) 0 la 0)

let test_merge_graph_compact () =
  let mg =
    Mg.of_graph (Graph.of_edges [ (0, "a", 1); (1, "a", 2); (2, "b", 3) ])
  in
  ignore (Mg.union mg 1 2);
  (* add through the union-find layer: endpoints canonicalize *)
  Mg.add_edge mg 2 lb 3;
  let h, rename = Mg.compact mg in
  check_int "dense nodes" 3 (Graph.node_count h);
  check_int "root fixed" 0 (rename 0);
  check_int "classes agree" (rename 1) (rename 2);
  check_bool "edge carried over" true (Graph.has_edge h (rename 1) lb (rename 3));
  check_bool "self loop carried over" true
    (Graph.has_edge h (rename 1) la (rename 1));
  check_int "edges preserved" (Graph.edge_count (Mg.graph mg)) (Graph.edge_count h)

(* --- violation index vs the root rescan --------------------------------- *)

(* [Violations.first] must answer exactly [Check.first_violation] on
   the physical graph, for every constraint, whatever the graph gained
   since the index was built.  A cold index built part way through (as
   on resume) must agree too. *)
let index_agrees mg sigma ixs =
  let g = Mg.graph mg in
  Array.for_all
    (fun ix ->
      List.for_all
        (fun i -> Violations.first ix i = Check.first_violation g sigma.(i))
        (List.init (Array.length sigma) Fun.id))
    ixs

type op = Add of int * Path.t * int | Merge of int * int

let gen_op =
  QCheck.Gen.(
    oneof
      [
        map3 (fun x p y -> Add (x, p, y)) small_nat gen_nonempty_path small_nat;
        map2 (fun a b -> Merge (a, b)) small_nat small_nat;
      ])

let print_op = function
  | Add (x, p, y) -> Printf.sprintf "add %d %s %d" x (Path.to_string p) y
  | Merge (a, b) -> Printf.sprintf "merge %d %d" a b

let arb_repairs =
  QCheck.make
    QCheck.Gen.(
      quad
        (list_size (int_range 1 5) gen_constraint)
        (gen_graph ()) (list_size (int_bound 12) gen_op) small_nat)
    ~print:(fun (sigma, g, ops, cold) ->
      Printf.sprintf "%s on %s; %s; cold index after %d" (print_sigma sigma)
        (print_graph g)
        (String.concat ", " (List.map print_op ops))
        cold)

let prop_index_matches_rescan =
  q ~count:300 "violation index = Check.first_violation after every repair"
    arb_repairs (fun (sigma, g, ops, cold_at) ->
      let sigma = Array.of_list sigma in
      let mg = Mg.of_graph (Graph.copy g) in
      let ixs = ref [| Violations.create mg sigma |] in
      let on_edge u k v = Array.iter (fun ix -> Violations.record ix u k v) !ixs in
      (* endpoints are drawn among the live classes *)
      let node n = Mg.find mg (n mod Graph.node_count (Mg.graph mg)) in
      index_agrees mg sigma !ixs
      && List.for_all
           (fun (step, op) ->
             (match op with
             | Add (x, p, y) -> Mg.add_path ~on_edge mg (node x) p (node y)
             | Merge (a, b) -> ignore (Mg.union ~on_edge mg (node a) (node b)));
             if step = cold_at then
               ixs := Array.append !ixs [| Violations.create mg sigma |];
             index_agrees mg sigma !ixs)
           (List.mapi (fun i op -> (i, op)) ops))

(* Chase [sigma] from [g] the way [Chase.step] repairs (first violated
   constraint, its least violation), checking the index against the
   rescan for every constraint after every repair; a cold index joins
   after [cold_at] repairs.  Returns the number of repairs made. *)
let chase_with_index ~steps ~cold_at sigma g =
  let sigma = Array.of_list sigma in
  let mg = Mg.of_graph g in
  let ixs = ref [| Violations.create mg sigma |] in
  let on_edge u k v = Array.iter (fun ix -> Violations.record ix u k v) !ixs in
  let repair c (x, y) =
    let rhs = Constr.rhs c in
    match (Constr.kind c, Path.is_empty rhs) with
    | Constr.Forward, true -> ignore (Mg.union ~on_edge mg x y)
    | Constr.Backward, true -> ignore (Mg.union ~on_edge mg y x)
    | Constr.Forward, false -> Mg.add_path ~on_edge mg x rhs y
    | Constr.Backward, false -> Mg.add_path ~on_edge mg y rhs x
  in
  let n = Array.length sigma in
  let rec go step =
    check_bool (Printf.sprintf "index agrees after %d repairs" step) true
      (index_agrees mg sigma !ixs);
    if step = cold_at then ixs := Array.append !ixs [| Violations.create mg sigma |];
    let pick =
      List.find_map
        (fun j ->
          let i = (step + j) mod n in
          Option.map (fun v -> (i, v)) (Violations.first !ixs.(0) i))
        (List.init n Fun.id)
    in
    match pick with
    | Some (i, v) when step < steps ->
        repair sigma.(i) v;
        go (step + 1)
    | _ -> step
  in
  go 0

(* The merge-heavy cyclic-5 encodings: EGD cascades move edges through
   the union-find splice, the delta the index learns merges from. *)
let test_index_cyclic5 () =
  let pres = List.assoc "cyclic5" Monoid.Examples.catalog in
  let sigma = Core.Encode_pwk.encode pres in
  List.iteri
    (fun j test ->
      let phi, _ = Core.Encode_pwk.encode_test test in
      let g = Graph.create () in
      ignore (Graph.ensure_path g (Graph.root g) (Constr.lhs phi));
      let repairs = chase_with_index ~steps:150 ~cold_at:(10 + (7 * j)) sigma g in
      check_bool (Printf.sprintf "cyclic5/%d made repairs" j) true (repairs > 0))
    (Monoid.Examples.sample_tests pres)

(* The index is derived state: parking [Chase.implies] on a fixed
   Lemma 4.5 encoding writes exactly the snapshot the rescan engine
   wrote, digest for digest (recorded before the index existed), in
   snapshot format version 1. *)
let test_snapshot_pinned () =
  let pres = List.assoc "symmetric3" Monoid.Examples.catalog in
  let test = List.hd (Monoid.Examples.sample_tests pres) in
  let sigma = Core.Encode_pwk.encode pres in
  let phi, _ = Core.Encode_pwk.encode_test test in
  let parked = ref None in
  let v =
    Chase.implies
      ~ctl:(Engine.start (Engine.Budget.steps_nodes 80 100000))
      ~park:(fun s -> parked := Some s)
      ~sigma phi
  in
  check_bool "budget exhausted" true (Verdict.is_unknown v);
  match !parked with
  | None -> Alcotest.fail "exhausted chase did not park"
  | Some s ->
      let text = Chase.Snapshot.to_string s in
      check_string "format version" "pathcons-chase-snapshot 1"
        (List.hd (String.split_on_char '\n' text));
      check_int "repairs" 80 (Chase.Snapshot.repairs s);
      check_string "snapshot digest" "b522ce0be7d71342d5a3ae84af1e0909"
        (Digest.to_hex (Digest.string text))

(* --- governance: exhaustion and cancellation mid-chase ------------------ *)

(* a -> a.a diverges: each repair adds a longer a-chain *)
let diverging_sigma = [ c_word "a" "a.a" ]

let well_formed g =
  Graph.fold_edges g
    (fun acc x _ y -> acc && Graph.mem_node g x && Graph.mem_node g y)
    true
  && Sgraph.Graph.Node_set.cardinal (Eval.reachable g (Graph.root g))
     = Graph.node_count g

let test_steps_exhaustion_mid_chase () =
  let g = Graph.of_edges [ (0, "a", 1) ] in
  let ctl = Engine.start (Engine.Budget.v ~max_steps:40 ~max_nodes:100000 ()) in
  match Chase.run ~ctl g diverging_sigma with
  | Chase.Exhausted (h, e), _ ->
      check_bool "reason is steps" true (e.Verdict.reason = Verdict.Steps);
      check_int "spent exactly the budget + 1" 41 e.Verdict.steps;
      check_bool "partial graph is well-formed" true (well_formed h);
      check_bool "peak nodes recorded" true (e.Verdict.nodes = Graph.node_count h)
  | Chase.Fixpoint _, _ -> Alcotest.fail "diverging sigma cannot reach fixpoint"

let test_cancellation_mid_chase () =
  let cancel = Engine.Cancel.create () in
  (* fire an async SIGALRM shortly after the chase starts; the handler
     cancels the token, which the engine polls at every tick *)
  let old = Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> Engine.Cancel.cancel cancel))
  in
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_value = 0.0; it_interval = 0.0 });
      Sys.set_signal Sys.sigalrm old)
    (fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_value = 0.05; it_interval = 0.0 });
      (* no step/node caps: only cancellation (or the 10 s safety
         deadline, on a pathologically slow machine) can stop this *)
      let ctl =
        Engine.start (Engine.Budget.v ~timeout:10.0 ~cancel ())
      in
      let g = Graph.of_edges [ (0, "a", 1) ] in
      match Chase.run ~ctl g diverging_sigma with
      | Chase.Exhausted (h, e), _ ->
          check_bool "reason is cancelled" true
            (e.Verdict.reason = Verdict.Cancelled);
          check_bool "made progress before cancellation" true
            (e.Verdict.steps > 0);
          check_bool "partial graph is well-formed" true (well_formed h);
          check_bool "partial graph still model-checks" true
            (not (Check.holds_all h diverging_sigma))
      | Chase.Fixpoint _, _ ->
          Alcotest.fail "diverging sigma cannot reach fixpoint")

let test_precancelled_is_noop () =
  let cancel = Engine.Cancel.create () in
  Engine.Cancel.cancel cancel;
  let ctl = Engine.start (Engine.Budget.v ~cancel ()) in
  let g = Graph.of_edges [ (0, "a", 1); (1, "b", 2) ] in
  match Chase.run ~ctl g diverging_sigma with
  | Chase.Exhausted (h, e), _ ->
      check_bool "reason is cancelled" true (e.Verdict.reason = Verdict.Cancelled);
      (* the first tick trips, so exactly one attempt and zero repairs *)
      check_int "tripped on the first tick" 1 e.Verdict.steps;
      check_bool "graph returned unchanged" true (Graph.equal g h)
  | Chase.Fixpoint _, _ -> Alcotest.fail "cancelled run cannot claim fixpoint"

let () =
  Alcotest.run "chase-incremental"
    [
      ( "equivalence",
        [
          prop_run_equivalent;
          prop_implies_equivalent;
          Alcotest.test_case "cyclic monoid (merge-heavy)" `Quick
            test_cyclic_monoid_equivalent;
        ] );
      ( "merge-graph",
        [
          Alcotest.test_case "union splices" `Quick test_merge_graph_union;
          Alcotest.test_case "root survives" `Quick
            test_merge_graph_root_survives;
          Alcotest.test_case "compact" `Quick test_merge_graph_compact;
        ] );
      ( "violations",
        [
          prop_index_matches_rescan;
          Alcotest.test_case "cyclic5 encodings, cold index mid-chase" `Quick
            test_index_cyclic5;
          Alcotest.test_case "snapshot digest pinned" `Quick test_snapshot_pinned;
        ] );
      ( "governance",
        [
          Alcotest.test_case "steps exhaustion mid-chase" `Quick
            test_steps_exhaustion_mid_chase;
          Alcotest.test_case "cancellation mid-chase" `Quick
            test_cancellation_mid_chase;
          Alcotest.test_case "pre-cancelled is a no-op" `Quick
            test_precancelled_is_noop;
        ] );
    ]
