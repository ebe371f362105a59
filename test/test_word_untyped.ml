open Testutil
module Path = Pathlang.Path
module Constr = Pathlang.Constr
module Graph = Sgraph.Graph
module Check = Sgraph.Check
module WU = Core.Word_untyped
module Ref = Oracle.Pre_star_reference

(* The Section 1 extent constraints. *)
let sigma_extent () = Xmlrep.Bib.extent_constraints ()

let implies sigma phi =
  match WU.implies ~sigma phi with
  | Ok b -> b
  | Error (WU.Not_word_constraint c) ->
      Alcotest.failf "not a word constraint: %a" Constr.pp c

(* --- hand instances ------------------------------------------------------- *)

let test_reflexivity () =
  check_bool "alpha -> alpha" true (implies [] (c_word "a.b" "a.b"))

let test_axiom () =
  check_bool "member of sigma" true
    (implies (sigma_extent ()) (c_word "book.author" "person"))

let test_paper_derivation () =
  let sigma = sigma_extent () in
  (* book.ref -> book, then right congruence and book.author -> person *)
  check_bool "book.ref.author -> person" true
    (implies sigma (c_word "book.ref.author" "person"));
  check_bool "deep refs" true
    (implies sigma (c_word "book.ref.ref.ref.author" "person"));
  check_bool "author of cited book is a person who wrote a book" true
    (implies sigma (c_word "book.ref.author.wrote" "book"))

let test_non_implications () =
  let sigma = sigma_extent () in
  check_bool "person -/-> book" false (implies sigma (c_word "person" "book"));
  check_bool "no left congruence" false
    (implies sigma (c_word "ref.book.author" "ref.person"));
  check_bool "not symmetric" false
    (implies sigma (c_word "person" "book.author"))

let test_empty_lhs () =
  (* eps -> K together with K.a -> K gives eps-reachability of K from
     anything K-prefixed *)
  let sigma = [ c_word "eps" "K"; c_word "K.a" "K" ] in
  check_bool "K.a.a -> K" true (implies sigma (c_word "K.a.a" "K"));
  check_bool "eps -> K" true (implies sigma (c_word "eps" "K"));
  check_bool "a -> K.a" true (implies sigma (c_word "a" "K.a"))

let test_rejects_non_word () =
  match WU.implies ~sigma:[ c_fwd "p" "a" "b" ] (c_word "a" "b") with
  | Error (WU.Not_word_constraint _) -> ()
  | Ok _ -> Alcotest.fail "should reject a non-word constraint"

(* --- soundness on random models ------------------------------------------------ *)

let prop_soundness =
  q ~count:200 "implied constraints hold in every model of sigma"
    QCheck.(pair arb_word_sigma (QCheck.make (gen_graph ~max_nodes:4 ())
              ~print:print_graph))
    (fun (sigma, g) ->
      (* pick a test constraint derivable from sigma by construction:
         compose two constraints when possible, else reflexivity *)
      let phi =
        match sigma with
        | c :: _ ->
            Constr.word
              ~lhs:(Path.concat (Constr.lhs c) (path "a"))
              ~rhs:(Path.concat (Constr.rhs c) (path "a"))
        | [] -> c_word "a" "a"
      in
      check_bool "derivable by congruence" true (implies sigma phi);
      if Check.holds_all g sigma then Check.holds g phi else true)

let prop_soundness_general =
  q ~count:300 "whenever implied, models of sigma satisfy phi"
    QCheck.(
      triple arb_word_sigma arb_word_constraint
        (QCheck.make (gen_graph ~max_nodes:4 ()) ~print:print_graph))
    (fun (sigma, phi, g) ->
      if implies sigma phi && Check.holds_all g sigma then Check.holds g phi
      else true)

(* --- completeness via bounded countermodel search ------------------------------ *)

let prop_completeness_small =
  q ~count:60 "not implied => small countermodel is consistent"
    QCheck.(pair arb_word_sigma arb_word_constraint)
    (fun (sigma, phi) ->
      (* restrict to 2 labels to keep enumeration feasible *)
      let ok c =
        Pathlang.Label.Set.for_all
          (fun l -> List.mem (Pathlang.Label.to_string l) [ "a"; "b" ])
          (Constr.labels_used c)
      in
      if not (List.for_all ok (phi :: sigma)) then QCheck.assume_fail ()
      else
        let labels = [ Pathlang.Label.make "a"; Pathlang.Label.make "b" ] in
        match
          Sgraph.Enumerate.find_countermodel ~max_nodes:2 ~labels ~sigma ~phi ()
        with
        | Some _ ->
            (* a finite countermodel exists: the procedure must say no *)
            not (implies sigma phi)
        | None -> true)

(* --- agreement of the two engines + BFS ---------------------------------------- *)

let prop_post_agrees =
  q ~count:150 "pre*-based and post*-based procedures agree"
    QCheck.(pair arb_word_sigma arb_word_constraint)
    (fun (sigma, phi) ->
      WU.implies ~sigma phi = WU.implies_via_post ~sigma phi)

let prop_bfs_agrees =
  q ~count:100 "BFS derivation search agrees when definitive"
    QCheck.(pair arb_word_sigma arb_word_constraint)
    (fun (sigma, phi) ->
      match Ref.derivation_bfs ~max_configs:3000 ~sigma phi with
      | Ok (Some oracle) -> implies sigma phi = oracle
      | Ok None -> QCheck.assume_fail ()
      | Error _ -> false)

(* --- certified derivations -------------------------------------------------------- *)

let derivation sigma phi =
  match WU.derivation ~sigma phi with
  | Ok (Ok d) -> d
  | Ok (Error e) -> Alcotest.fail e
  | Error _ -> Alcotest.fail "non-word input"

let test_derivation_extraction () =
  let sigma = sigma_extent () in
  let phi = c_word "book.ref.ref.author" "person" in
  let d = derivation sigma phi in
  check_bool "certificate checks" true
    (Core.Axioms.proves ~sigma ~goal:phi d);
  (* reflexivity corner *)
  let d0 = derivation sigma (c_word "a.b" "a.b") in
  check_bool "reflexive certificate" true
    (Core.Axioms.proves ~sigma ~goal:(c_word "a.b" "a.b") d0);
  (* not implied *)
  match WU.derivation ~sigma (c_word "person" "book") with
  | Ok (Error _) -> ()
  | _ -> Alcotest.fail "should report not implied"

let prop_derivations_check =
  q ~count:100 "extracted derivations always re-check"
    QCheck.(pair arb_word_sigma arb_word_constraint)
    (fun (sigma, phi) ->
      if implies sigma phi then
        match WU.derivation ~sigma phi with
        | Ok (Ok d) -> Core.Axioms.proves ~sigma ~goal:phi d
        | Ok (Error _) -> true (* budget: acceptable *)
        | Error _ -> false
      else true)

let prop_derivations_use_only_three_rules =
  q ~count:60 "untyped certificates avoid the typed-only rules"
    QCheck.(pair arb_word_sigma arb_word_constraint)
    (fun (sigma, phi) ->
      if implies sigma phi then
        match WU.derivation ~sigma phi with
        | Ok (Ok d) ->
            let rec only_av = function
              | Core.Axioms.Axiom _ | Core.Axioms.Reflexivity _ -> true
              | Core.Axioms.Transitivity (a, b) -> only_av a && only_av b
              | Core.Axioms.Right_congruence (a, _) -> only_av a
              | Core.Axioms.Commutativity _
              | Core.Axioms.Forward_to_word _
              | Core.Axioms.Word_to_forward _
              | Core.Axioms.Backward_to_word _
              | Core.Axioms.Word_to_backward _ ->
                  false
            in
            only_av d
        | _ -> true
      else true)

(* --- consequences sample --------------------------------------------------------- *)

let test_consequences () =
  let sigma = sigma_extent () in
  let cs =
    WU.consequences_sample ~sigma ~from:(path "book.ref.author") ~max_steps:50
  in
  check_bool "contains person" true
    (List.exists (Path.equal (path "person")) cs);
  check_bool "contains book.author" true
    (List.exists (Path.equal (path "book.author")) cs);
  check_bool "all derivable" true
    (List.for_all
       (fun c -> implies sigma (Constr.word ~lhs:(path "book.ref.author") ~rhs:c))
       cs)

let () =
  Alcotest.run "word-untyped"
    [
      ( "hand-instances",
        [
          Alcotest.test_case "reflexivity" `Quick test_reflexivity;
          Alcotest.test_case "axiom" `Quick test_axiom;
          Alcotest.test_case "paper derivations" `Quick test_paper_derivation;
          Alcotest.test_case "non-implications" `Quick test_non_implications;
          Alcotest.test_case "empty lhs" `Quick test_empty_lhs;
          Alcotest.test_case "rejects non-word" `Quick test_rejects_non_word;
        ] );
      ( "soundness",
        [ prop_soundness; prop_soundness_general ] );
      ("completeness", [ prop_completeness_small ]);
      ("agreement", [ prop_post_agrees; prop_bfs_agrees ]);
      ( "certificates",
        [
          Alcotest.test_case "extraction" `Quick test_derivation_extraction;
          prop_derivations_check;
          prop_derivations_use_only_three_rules;
        ] );
      ("consequences", [ Alcotest.test_case "sample" `Quick test_consequences ]);
    ]
