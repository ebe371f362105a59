open Testutil
module Path = Pathlang.Path
module Label = Pathlang.Label
module Constr = Pathlang.Constr
module Graph = Sgraph.Graph
module Check = Sgraph.Check
module Typecheck = Schema.Typecheck
module Hom = Monoid.Hom
module FM = Monoid.Finite_monoid
module Examples = Monoid.Examples
module WP = Monoid.Word_problem
module Pwk = Core.Encode_pwk
module Mplus = Core.Encode_mplus
module Pwa = Core.Encode_pwalpha
module Chase = Core.Chase
module Verdict = Core.Verdict
module Engine = Core.Engine

let big_budget = Engine.Budget.steps_nodes 5000 5000

(* cyclic-3 with the canonical homomorphism a |-> 1 into Z3 *)
let cyclic3 = Examples.cyclic 3
let hom_c3 = Hom.make (FM.cyclic 3) [ (Label.make "a", 1) ]

(* ================================================================== *)
(* Lemma 4.5: monoids -> P_w(K) on untyped data                        *)
(* ================================================================== *)

let test_pwk_encoding_shape () =
  let sigma = Pwk.encode cyclic3 in
  (* eps->K, K.a->K, two directions of one equation *)
  check_int "constraint count" 4 (List.length sigma);
  match Pwk.in_fragment ~k:(Label.make "K") sigma with
  | Ok () -> ()
  | Error c -> Alcotest.failf "outside P_w(K): %a" Constr.pp c

let test_pwk_default_k_avoids_gens () =
  let pres =
    Monoid.Presentation.of_strings ~gens:[ "K"; "b" ] ~relations:[ ("K.b", "b") ]
  in
  check_bool "fresh K" true
    (not (List.exists (Label.equal (Pwk.default_k pres))
            (Monoid.Presentation.gens pres)))

let test_figure2_is_countermodel () =
  (* h separates (a, eps) *)
  let g = Pwk.figure2 hom_c3 in
  let sigma = Pwk.encode cyclic3 in
  check_int "3 classes + root is the identity class" 3 (Graph.node_count g);
  check_bool "G |= Sigma" true (Check.holds_all g sigma);
  let phi1, phi2 = Pwk.encode_test (path "a", Path.empty) in
  check_bool "G |/= phi(a,eps) or phi(eps,a)" false
    (Check.holds g phi1 && Check.holds g phi2)

let test_figure2_respects_positive () =
  (* h does NOT separate (a^3, eps): both test constraints hold in G *)
  let g = Pwk.figure2 hom_c3 in
  let phi1, phi2 = Pwk.encode_test (path "a.a.a", Path.empty) in
  check_bool "G |= phi(a^3,eps)" true (Check.holds g phi1 && Check.holds g phi2)

let test_pwk_positive_side_by_chase () =
  (* Theta |= a^3 = eps, so the encoded instance must be implied *)
  let sigma = Pwk.encode cyclic3 in
  let phi1, phi2 = Pwk.encode_test (path "a.a.a", Path.empty) in
  check_bool "phi1 implied" true
    (Chase.implies ~ctl:(Engine.start big_budget) ~sigma phi1 = Verdict.Implied);
  check_bool "phi2 implied" true
    (Chase.implies ~ctl:(Engine.start big_budget) ~sigma phi2 = Verdict.Implied)

let test_pwk_demo_agreement () =
  (* run the full demo on several instances of cyclic3 *)
  List.iter
    (fun (u, v, expect_equal) ->
      let mv, v1, v2 = Pwk.demo ~chase_budget:big_budget cyclic3 (u, v) in
      match (mv, expect_equal) with
      | WP.Equal, true ->
          check_bool "both implied" true
            (Verdict.is_implied v1 && Verdict.is_implied v2)
      | WP.Separated h, false ->
          (* Lemma 4.5 (b), right to left: the figure-2 structure refutes *)
          let g = Pwk.figure2 h in
          let phi1, phi2 = Pwk.encode_test (u, v) in
          check_bool "figure2 refutes" false
            (Check.holds g phi1 && Check.holds g phi2);
          check_bool "figure2 models sigma" true
            (Check.holds_all g (Pwk.encode cyclic3))
      | _ -> Alcotest.failf "unexpected monoid verdict")
    [
      (path "a.a.a", Path.empty, true);
      (path "a.a.a.a", path "a", true);
      (path "a", Path.empty, false);
      (path "a.a", path "a", false);
    ]

let test_pwk_free_commutative () =
  let pres = Examples.free_commutative2 in
  let sigma = Pwk.encode pres in
  (* ab = ba is an axiom instance *)
  let phi1, phi2 = Pwk.encode_test (path "a.b", path "b.a") in
  check_bool "ab=ba implied" true
    (Chase.implies ~ctl:(Engine.start big_budget) ~sigma phi1 = Verdict.Implied
    && Chase.implies ~ctl:(Engine.start big_budget) ~sigma phi2 = Verdict.Implied);
  (* abb = bab needs one commutation step under the K prefix *)
  let phi1, _ = Pwk.encode_test (path "a.b.b", path "b.a.b") in
  check_bool "abb=bab implied" true
    (Chase.implies ~ctl:(Engine.start big_budget) ~sigma phi1 = Verdict.Implied);
  (* a = b is separated: figure 2 over the separating hom refutes *)
  match WP.search_separating_hom pres (path "a", path "b") with
  | None -> Alcotest.fail "expected a separating hom"
  | Some h ->
      let g = Pwk.figure2 h in
      let phi1, phi2 = Pwk.encode_test (path "a", path "b") in
      check_bool "models sigma" true (Check.holds_all g sigma);
      check_bool "refutes" false (Check.holds g phi1 && Check.holds g phi2)

let prop_figure2_always_valid =
  q ~count:40 "figure 2 models the encoding whenever the hom respects it"
    (QCheck.make
       QCheck.Gen.(int_bound 1_000_000)
       ~print:string_of_int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pres =
        List.nth (List.map snd Examples.catalog)
          (Random.State.int rng (List.length Examples.catalog))
      in
      let tests = Examples.sample_tests pres in
      if tests = [] then QCheck.assume_fail ()
      else
        let test = List.nth tests (Random.State.int rng (List.length tests)) in
        match WP.search_separating_hom ~max_points:3 pres test with
        | None -> QCheck.assume_fail ()
        | Some h ->
            let g = Pwk.figure2 h in
            let sigma = Pwk.encode pres in
            let phi1, phi2 = Pwk.encode_test test in
            Check.holds_all g sigma
            && not (Check.holds g phi1 && Check.holds g phi2))

(* ================================================================== *)
(* Lemma 5.4: monoids -> local extent constraints in M+                *)
(* ================================================================== *)

let test_mplus_encoding_shape () =
  let enc = Mplus.encode cyclic3 in
  check_bool "schema is M+" true
    (Schema.Mschema.kind enc.Mplus.schema = Schema.Mschema.M_plus);
  (* (1) + (4) + one generator rule + 2 directions of one equation *)
  check_int "constraint count" 5 (List.length enc.Mplus.sigma);
  (* the instance is prefix-bounded by l and K (Definition 2.3) *)
  let phi = Mplus.encode_test enc (path "a", Path.empty) in
  match
    Pathlang.Bounded.partition ~alpha:(Path.singleton enc.Mplus.l)
      ~k:enc.Mplus.k (phi :: enc.Mplus.sigma)
  with
  | Ok p ->
      check_int "bounded part" 3 (List.length p.Pathlang.Bounded.sigma_k);
      check_int "other part" 3 (List.length p.Pathlang.Bounded.sigma_r)
  | Error e -> Alcotest.fail e

let test_mplus_paths_valid () =
  let enc = Mplus.encode cyclic3 in
  let phi = Mplus.encode_test enc (path "a.a", path "a") in
  List.iter
    (fun c ->
      match Schema.Schema_graph.check_constraint_paths enc.Mplus.schema c with
      | Ok () -> ()
      | Error p ->
          Alcotest.failf "constraint %a mentions invalid path %a" Constr.pp c
            Path.pp p)
    (phi :: enc.Mplus.sigma)

let test_figure4_validates () =
  let enc = Mplus.encode cyclic3 in
  let t = Mplus.figure4 enc hom_c3 in
  (match Typecheck.validate enc.Mplus.schema t with
  | Ok () -> ()
  | Error es -> Alcotest.failf "Phi(Delta_1) fails: %s" (String.concat "; " es));
  check_bool "satisfies Sigma" true
    (Check.holds_all t.Typecheck.graph enc.Mplus.sigma)

let test_figure4_refutes_separated () =
  let enc = Mplus.encode cyclic3 in
  let t = Mplus.figure4 enc hom_c3 in
  let phi_neg = Mplus.encode_test enc (path "a", Path.empty) in
  check_bool "refutes a = eps" false (Check.holds t.Typecheck.graph phi_neg);
  let phi_pos = Mplus.encode_test enc (path "a.a.a", Path.empty) in
  check_bool "satisfies a^3 = eps" true (Check.holds t.Typecheck.graph phi_pos)

let test_mplus_untyped_side_decidable () =
  (* Theorem 5.1/5.2 interaction: before the type is imposed the instance
     is PTIME-decidable and answers "not implied" even for provable
     equations *)
  let enc = Mplus.encode cyclic3 in
  (match Mplus.untyped_implies enc (path "a", Path.empty) with
  | Ok b -> check_bool "untyped: not implied" false b
  | Error e -> Alcotest.fail e);
  match Mplus.untyped_implies enc (path "a.a.a", Path.empty) with
  | Ok b ->
      check_bool "untyped: even the provable instance is not implied" false b
  | Error e -> Alcotest.fail e

let test_mplus_reserved_gens_rejected () =
  (* '*' cannot be a generator *)
  let bad = Monoid.Presentation.of_strings ~gens:[ "*" ] ~relations:[] in
  Alcotest.check_raises "reserved star" (Invalid_argument "")
    (fun () ->
      try ignore (Mplus.encode bad)
      with Invalid_argument _ -> raise (Invalid_argument ""));
  (* colliding generator names get primed bookkeeping labels *)
  let pres = Monoid.Presentation.of_strings ~gens:[ "K"; "a" ] ~relations:[] in
  let enc = Mplus.encode pres in
  check_bool "K primed" true (Pathlang.Label.to_string enc.Mplus.k = "K'");
  check_bool "a primed" true (Pathlang.Label.to_string enc.Mplus.a = "a'")

let prop_figure4_always_valid =
  q ~count:25 "figure 4 validates and models Sigma for respecting homs"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let candidates =
        List.filter
          (fun (name, _) -> name <> "bicyclic")
          (List.map (fun (n, p) -> (n, p)) Examples.catalog)
      in
      let _, pres =
        List.nth candidates (Random.State.int rng (List.length candidates))
      in
      let tests = Examples.sample_tests pres in
      if tests = [] then QCheck.assume_fail ()
      else
        let test = List.nth tests (Random.State.int rng (List.length tests)) in
        match WP.search_separating_hom ~max_points:3 pres test with
        | None -> QCheck.assume_fail ()
        | Some h ->
            let enc = Mplus.encode pres in
            let t = Mplus.figure4 enc h in
            Typecheck.validate enc.Mplus.schema t = Ok ()
            && Check.holds_all t.Typecheck.graph enc.Mplus.sigma
            && not (Check.holds t.Typecheck.graph (Mplus.encode_test enc test)))

(* ================================================================== *)
(* Theorem 6.1: P_w(alpha) in M+                                        *)
(* ================================================================== *)

let test_pwalpha_fragment () =
  let enc = Pwa.encode cyclic3 in
  let phi = Pwa.encode_test enc (path "a", Path.empty) in
  match Pwa.in_fragment enc (phi :: enc.Pwa.sigma) with
  | Ok () -> ()
  | Error c -> Alcotest.failf "outside P_w(l): %a" Constr.pp c

let test_pwalpha_countermodel () =
  let enc = Pwa.encode cyclic3 in
  let t = Pwa.countermodel enc hom_c3 in
  (match Typecheck.validate enc.Pwa.schema t with
  | Ok () -> ()
  | Error es -> Alcotest.failf "Phi(Delta_2) fails: %s" (String.concat "; " es));
  check_bool "satisfies Sigma" true
    (Check.holds_all t.Typecheck.graph enc.Pwa.sigma);
  check_bool "refutes a = eps" false
    (Check.holds t.Typecheck.graph (Pwa.encode_test enc (path "a", Path.empty)));
  check_bool "satisfies a^3 = eps" true
    (Check.holds t.Typecheck.graph
       (Pwa.encode_test enc (path "a.a.a", Path.empty)))

(* The encodings whose chase exhausts a 500-step, 500-node budget fall
   back to enumeration; on each, the mask search returns the
   graph-per-mask reference's witness byte for byte, at 1, 2 and 4
   jobs, over the alphabet and size cap the fallback uses. *)
let test_exhausted_enumeration_matches_reference () =
  let budget = Engine.Budget.steps_nodes 500 500 in
  let exhausted =
    List.concat_map
      (fun (_, pres) ->
        let sigma = Pwk.encode pres in
        List.filter_map
          (fun test ->
            let phi, _ = Pwk.encode_test test in
            match
              Core.Semidecide.implies ~ctl:(Engine.start budget) ~enum_nodes:0
                ~sigma phi
            with
            | Verdict.Unknown _ -> Some (sigma, phi)
            | Verdict.Implied | Verdict.Refuted _ -> None)
          (Examples.sample_tests pres))
      Examples.catalog
  in
  check_int "encodings that exhaust the budget" 16 (List.length exhausted);
  List.iter
    (fun (sigma, phi) ->
      let labels =
        Label.Set.elements
          (List.fold_left
             (fun acc c -> Label.Set.union acc (Constr.labels_used c))
             (Constr.labels_used phi) sigma)
      in
      let max_nodes = if List.length labels > 2 then 2 else 3 in
      enumeration_matches_reference ~max_nodes ~labels ~sigma ~phi)
    exhausted

let () =
  Alcotest.run "encodings"
    [
      ( "pwk (Lemma 4.5)",
        [
          Alcotest.test_case "encoding shape" `Quick test_pwk_encoding_shape;
          Alcotest.test_case "fresh K" `Quick test_pwk_default_k_avoids_gens;
          Alcotest.test_case "figure 2 countermodel" `Quick
            test_figure2_is_countermodel;
          Alcotest.test_case "figure 2 positive" `Quick
            test_figure2_respects_positive;
          Alcotest.test_case "positive side by chase" `Quick
            test_pwk_positive_side_by_chase;
          Alcotest.test_case "demo agreement" `Quick test_pwk_demo_agreement;
          Alcotest.test_case "free commutative" `Quick test_pwk_free_commutative;
          prop_figure2_always_valid;
          Alcotest.test_case "exhausted chases: enumeration = reference"
            `Quick test_exhausted_enumeration_matches_reference;
        ] );
      ( "mplus (Lemma 5.4)",
        [
          Alcotest.test_case "encoding shape" `Quick test_mplus_encoding_shape;
          Alcotest.test_case "paths valid" `Quick test_mplus_paths_valid;
          Alcotest.test_case "figure 4 validates" `Quick test_figure4_validates;
          Alcotest.test_case "figure 4 refutes" `Quick
            test_figure4_refutes_separated;
          Alcotest.test_case "untyped side decidable" `Quick
            test_mplus_untyped_side_decidable;
          Alcotest.test_case "reserved generators" `Quick
            test_mplus_reserved_gens_rejected;
          prop_figure4_always_valid;
        ] );
      ( "pwalpha (Theorem 6.1)",
        [
          Alcotest.test_case "fragment" `Quick test_pwalpha_fragment;
          Alcotest.test_case "countermodel" `Quick test_pwalpha_countermodel;
        ] );
    ]
