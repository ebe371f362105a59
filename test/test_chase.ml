open Testutil
module Path = Pathlang.Path
module Constr = Pathlang.Constr
module Graph = Sgraph.Graph
module Check = Sgraph.Check
module Chase = Core.Chase
module Chase_reference = Oracle.Chase_reference
module Verdict = Core.Verdict
module Engine = Core.Engine

(* --- merge ---------------------------------------------------------------- *)

let test_merge () =
  let g = Graph.of_edges [ (0, "a", 1); (1, "b", 2); (0, "c", 2) ] in
  let h, rename = Chase_reference.merge g 1 2 in
  check_int "one fewer node" 2 (Graph.node_count h);
  check_int "root stays" 0 (rename 0);
  check_int "merged" (rename 1) (rename 2);
  check_bool "edges relocated" true
    (Graph.has_edge h 0 (Pathlang.Label.make "a") (rename 1)
    && Graph.has_edge h (rename 1) (Pathlang.Label.make "b") (rename 1))

let test_merge_with_root () =
  let g = Graph.of_edges [ (0, "a", 1) ] in
  let h, rename = Chase_reference.merge g 1 0 in
  check_int "root survives" 0 (rename 1);
  check_bool "self loop" true (Graph.has_edge h 0 (Pathlang.Label.make "a") 0)

(* --- run ---------------------------------------------------------------------- *)

let test_run_to_fixpoint () =
  let g = Graph.of_edges [ (0, "book", 1); (1, "author", 2) ] in
  let sigma = Xmlrep.Bib.inverse_constraints () @ Xmlrep.Bib.extent_constraints () in
  match Chase.run g sigma with
  | Chase.Fixpoint h, _ ->
      check_bool "result satisfies sigma" true (Check.holds_all h sigma)
  | Chase.Exhausted _, _ -> Alcotest.fail "tiny instance must reach fixpoint"

let test_run_tracks_nodes () =
  let g = Graph.of_edges [ (0, "a", 1); (0, "b", 2) ] in
  (* force 1 = 2 *)
  let egd = Constr.forward ~prefix:Path.empty ~lhs:(path "a") ~rhs:(path "b") in
  (* a(r,x) -> b(r,x): adds a b-path to node 1, no merge; instead use
     conclusion eps to merge *)
  ignore egd;
  let egd2 =
    Constr.forward ~prefix:(path "a") ~lhs:Path.empty ~rhs:Path.empty
  in
  (* trivially true; the real merge test goes through implies below *)
  ignore egd2;
  let (_, tracked) = Chase.run g [] ~tracked:[ 1; 2 ] in
  check_bool "tracking stable without merges" true (tracked = [ 1; 2 ])

(* --- implies: TGD side ----------------------------------------------------------- *)

let test_implies_word_axiom () =
  let sigma = [ c_word "a" "b" ] in
  check_bool "axiom" true (Chase.implies ~sigma (c_word "a" "b") = Verdict.Implied)

let test_implies_congruence () =
  let sigma = [ c_word "a" "b" ] in
  check_bool "a.c -> b.c" true
    (Chase.implies ~sigma (c_word "a.c" "b.c") = Verdict.Implied)

let test_implies_transitive () =
  let sigma = [ c_word "a" "b"; c_word "b" "c" ] in
  check_bool "a -> c" true (Chase.implies ~sigma (c_word "a" "c") = Verdict.Implied)

let test_refuted_with_countermodel () =
  let sigma = [ c_word "a" "b" ] in
  match Chase.implies ~sigma (c_word "b" "a") with
  | Verdict.Refuted g ->
      check_bool "countermodel satisfies sigma" true (Check.holds_all g sigma);
      check_bool "countermodel violates phi" false (Check.holds g (c_word "b" "a"))
  | v -> Alcotest.failf "expected refuted, got %a" (fun ppf -> Verdict.pp ppf) v

let test_forward_constraints () =
  let sigma = [ c_fwd "p" "a" "b" ] in
  check_bool "axiom instance" true
    (Chase.implies ~sigma (c_fwd "p" "a" "b") = Verdict.Implied);
  (match Chase.implies ~sigma (c_fwd "q" "a" "b") with
  | Verdict.Refuted g -> check_bool "refuted at q" true (Check.holds_all g sigma)
  | _ -> Alcotest.fail "different prefix not implied")

let test_backward_constraints () =
  let sigma = Xmlrep.Bib.inverse_constraints () in
  check_bool "inverse axiom" true
    (Chase.implies ~sigma (c_bwd "book" "author" "wrote") = Verdict.Implied);
  match Chase.implies ~sigma (c_bwd "book" "author" "author") with
  | Verdict.Refuted g ->
      check_bool "sigma holds" true (Check.holds_all g sigma)
  | Verdict.Implied -> Alcotest.fail "author is not its own inverse"
  | Verdict.Unknown _ -> () (* acceptable: budget *)

(* --- implies: EGD side -------------------------------------------------------------- *)

let test_egd_merge () =
  (* a(r,x) and b(r,x) forced equal: a -> b with b..? use forward
     constraint with eps conclusion: all a-successors of the root equal
     the root's b-successor... simplest: prefix a, lhs eps would be
     trivial.  Use: forall x (eps(r,x) -> forall y (a(x,y) -> b(x,y)))
     plus forall x(a(r,x) -> forall y(eps -> eps)) is trivial.  The real
     EGD: forall x (a(r,x) -> forall y (eps(x,y) -> eps(y,x))) is
     trivial too.  The canonical EGD in P_c: a forward constraint whose
     rhs is eps: forall x (p(r,x) -> forall y (a(x,y) -> x = y)). *)
  let sigma = [ c_fwd "p" "a" "eps" ] in
  (* premise: p(r,x), a(x,y); conclusion forces y = x, so the loop
     constraint p.a -> p follows *)
  check_bool "p.a -> p" true
    (Chase.implies ~sigma (c_word "p.a" "p") = Verdict.Implied);
  check_bool "a self loop implied" true
    (Chase.implies ~sigma (c_fwd "p" "a.a" "a") = Verdict.Implied)

let test_egd_cyclic_monoid () =
  (* the cyclic-3 encoding from Lemma 4.5, positive instance *)
  let pres = Monoid.Examples.cyclic 3 in
  let sigma = Core.Encode_pwk.encode pres in
  let phi1, phi2 = Core.Encode_pwk.encode_test (path "a.a.a", Path.empty) in
  check_bool "a^3 -> eps implied" true
    (Chase.implies ~ctl:(Engine.start (Engine.Budget.steps_nodes 4000 4000)) ~sigma phi1
    = Verdict.Implied);
  check_bool "eps -> a^3 implied" true
    (Chase.implies ~ctl:(Engine.start (Engine.Budget.steps_nodes 4000 4000)) ~sigma phi2
    = Verdict.Implied)

(* --- agreement with the decision procedure on word constraints --------------------- *)

let prop_agrees_with_word_procedure =
  (* The three-rule word procedure is complete only on the eps-free
     fragment (see Word_untyped's documentation: eps right-hand sides
     are EGDs, and e.g. {a -> eps; a.c -> eps} |= a.c.c -> c.a.c has no
     rewriting derivation).  So:
     - the word procedure saying "implied" must always be confirmed
       (soundness, any fragment);
     - on eps-free instances the two verdicts must coincide exactly;
     - on instances with eps right-hand sides the chase may prove
       MORE (Implied where rewriting says no), never less. *)
  q ~count:80 "chase verdicts agree with the word-constraint decision procedure"
    QCheck.(pair arb_word_sigma arb_word_constraint)
    (fun (sigma, phi) ->
      let expected = Core.Word_untyped.implies_exn ~sigma phi in
      let eps_free =
        List.for_all
          (fun c -> not (Path.is_empty (Constr.rhs c)))
          (phi :: sigma)
      in
      match
        Chase.implies ~ctl:(Engine.start (Engine.Budget.steps_nodes 300 300)) ~sigma
          phi
      with
      | Verdict.Implied -> expected || not eps_free
      | Verdict.Refuted g ->
          (not expected)
          && Check.holds_all g sigma
          && not (Check.holds g phi)
      | Verdict.Unknown _ -> true)

let test_eps_rhs_incompleteness_witness () =
  (* the concrete gap our cross-validation discovered: semantically
     implied (the chase proves it) but not rewriting-derivable *)
  let sigma = [ c_word "a" "eps"; c_word "a.c" "eps" ] in
  let phi = c_word "a.c.c" "c.a.c" in
  check_bool "rewriting cannot derive it" false
    (Core.Word_untyped.implies_exn ~sigma phi);
  check_bool "the chase proves it" true
    (Chase.implies ~sigma phi = Verdict.Implied);
  (* sanity: no small countermodel exists, as semantics demands *)
  check_bool "no countermodel up to 3 nodes" true
    (Sgraph.Enumerate.find_countermodel ~max_nodes:3
       ~labels:[ Pathlang.Label.make "a"; Pathlang.Label.make "c" ]
       ~sigma ~phi ()
    = None)

let prop_refuted_always_verified =
  q ~count:80 "refutation witnesses check out for general P_c"
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_bound 4) gen_constraint) gen_constraint)
       ~print:(fun (s, p) ->
         print_sigma s ^ " |- " ^ Pathlang.Constr.to_string p))
    (fun (sigma, phi) ->
      match
        Chase.implies ~ctl:(Engine.start (Engine.Budget.steps_nodes 200 200)) ~sigma
          phi
      with
      | Verdict.Refuted g ->
          Check.holds_all g sigma && not (Check.holds g phi)
      | Verdict.Implied | Verdict.Unknown _ -> true)

let () =
  Alcotest.run "chase"
    [
      ( "merge",
        [
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "merge with root" `Quick test_merge_with_root;
        ] );
      ( "run",
        [
          Alcotest.test_case "fixpoint" `Quick test_run_to_fixpoint;
          Alcotest.test_case "tracking" `Quick test_run_tracks_nodes;
        ] );
      ( "implies",
        [
          Alcotest.test_case "axiom" `Quick test_implies_word_axiom;
          Alcotest.test_case "congruence" `Quick test_implies_congruence;
          Alcotest.test_case "transitivity" `Quick test_implies_transitive;
          Alcotest.test_case "refuted" `Quick test_refuted_with_countermodel;
          Alcotest.test_case "forward" `Quick test_forward_constraints;
          Alcotest.test_case "backward" `Quick test_backward_constraints;
        ] );
      ( "egd",
        [
          Alcotest.test_case "merging" `Quick test_egd_merge;
          Alcotest.test_case "cyclic monoid" `Quick test_egd_cyclic_monoid;
        ] );
      ( "agreement",
        [
          prop_agrees_with_word_procedure;
          prop_refuted_always_verified;
          Alcotest.test_case "eps-rhs incompleteness witness" `Quick
            test_eps_rhs_incompleteness_witness;
        ] );
    ]
