(* The hash-consed constraint store: unit coverage of the trie /
   union-find / containment machinery, and the soundness property tests
   the chase route's pre-filter relies on — every [true] from
   [implies_syntactic] must be confirmed by a decision procedure. *)

open Testutil
module Store = Pathlang.Store
module WU = Core.Word_untyped
module Chase = Core.Chase
module Verdict = Core.Verdict

let extent () = Xmlrep.Bib.extent_constraints ()

(* --- hash-consing ---------------------------------------------------------- *)

let test_hashcons_basics () =
  let p = path "a.b.c" and q = Path.of_strings [ "a"; "b"; "c" ] in
  check_bool "same labels, same object" true (p == q);
  check_bool "equal" true (Path.equal p q);
  check_int "same id" (Path.id p) (Path.id q);
  check_int "same hash" (Path.hash p) (Path.hash q);
  check_bool "distinct paths differ" false (Path.equal p (path "a.b"))

let prop_hashcons_equality =
  q ~count:500 "hash-consed equality agrees with structural equality"
    QCheck.(pair arb_path arb_path)
    (fun (p1, p2) ->
      let structural =
        List.equal Label.equal (Path.to_labels p1) (Path.to_labels p2)
      in
      Path.equal p1 p2 = structural && (p1 == p2) = structural)

let prop_hashcons_roundtrip =
  q ~count:500 "of_string . to_string is the identity object"
    arb_path
    (fun p -> Path.of_string (Path.to_string p) == p)

(* --- membership and derivations ------------------------------------------- *)

let test_mem () =
  let sigma = extent () in
  let st = Store.of_constraints sigma in
  List.iter
    (fun c -> check_bool (Constr.to_string c) true (Store.mem st c))
    sigma;
  check_bool "non-member" false (Store.mem st (c_word "person" "book"));
  check_bool "non-member backward" false
    (Store.mem st (c_bwd "book" "ref" "ref"))

let test_implies_direct_and_transitive () =
  let st = Store.of_constraints (extent ()) in
  check_bool "member: book.ref -> book" true
    (Store.implies_syntactic st (c_word "book.ref" "book"));
  check_bool "reflexivity" true
    (Store.implies_syntactic st (c_word "book.title" "book.title"));
  check_bool "transitivity: book.ref.author -> person" true
    (* book.ref.author -> book.author -> person?  No: the store only
       chains arcs between interned paths; book.ref.author is not one.
       The derivable chain is book.author -> person with suffix
       stripping unavailable, so this must go through the bucket arcs
       that do exist. *)
    (Store.implies_syntactic st (c_word "book.author" "person"));
  check_bool "not implied: person -> book" false
    (Store.implies_syntactic st (c_word "person" "book"))

let test_implies_right_congruence () =
  let st = Store.of_constraints [ c_word "a" "b" ] in
  check_bool "a.c -> b.c (strip common suffix)" true
    (Store.implies_syntactic st (c_word "a.c" "b.c"));
  check_bool "a.c.c -> b.c.c" true
    (Store.implies_syntactic st (c_word "a.c.c" "b.c.c"));
  check_bool "no left congruence" false
    (Store.implies_syntactic st (c_word "c.a" "c.b"))

let test_implies_transitive_chain () =
  let st = Store.of_constraints [ c_word "a" "b"; c_word "b" "c" ] in
  check_bool "a -> c" true (Store.implies_syntactic st (c_word "a" "c"));
  check_bool "a.x -> c.x" true
    (Store.implies_syntactic st (c_word "a.x" "c.x"));
  check_bool "c -> a not derivable" false
    (Store.implies_syntactic st (c_word "c" "a"))

let test_mutual_containment_merges () =
  let st = Store.of_constraints [ c_word "a" "b"; c_word "b" "a" ] in
  check_bool "both directions" true
    (Store.implies_syntactic st (c_word "b" "a")
    && Store.implies_syntactic st (c_word "a" "b"));
  let stats = Store.stats st in
  check_bool "at least one merge" true (stats.Store.merges >= 1)

let test_forward_prefix_bucket () =
  let st = Store.of_constraints [ c_fwd "p" "a" "b"; c_fwd "p" "b" "c" ] in
  check_bool "bucketed transitivity" true
    (Store.implies_syntactic st (c_fwd "p" "a" "c"));
  check_bool "other prefix unaffected" false
    (Store.implies_syntactic st (c_fwd "q" "a" "c"))

let test_subsumption_ordering () =
  let sigma =
    [
      c_word "book.author.wrote" "person.wrote";
      c_word "book.author" "person";
      c_word "person.wrote" "book";
    ]
  in
  let order = Store.completed_subsumption_ordering sigma in
  check_int "permutation" (List.length sigma) (List.length order);
  (* the subsumer (book.author -> person) must precede what it subsumes *)
  let pos i = Option.get (List.find_index (fun (j, _) -> j = i) order) in
  check_bool "subsumer first" true (pos 1 < pos 0)

(* --- subsuming_member: parity with the spec scan --------------------------- *)

(* The reference implementation: the hygiene pass's original ad-hoc
   scan, kept verbatim as the oracle. *)
let reference_subsuming sigma c =
  if Constr.kind c <> Constr.Forward then None
  else
    List.find_map
      (fun (i, c') ->
        if
          Constr.kind c' = Constr.Forward
          && (not (Constr.equal c c'))
          && Path.equal (Constr.prefix c) (Constr.prefix c')
        then
          match
            ( Path.strip_prefix ~prefix:(Constr.lhs c') (Constr.lhs c),
              Path.strip_prefix ~prefix:(Constr.rhs c') (Constr.rhs c) )
          with
          | Some d1, Some d2 when Path.equal d1 d2 && not (Path.is_empty d1)
            ->
              Some (i, c', d1)
          | _ -> None
        else None)
      (List.mapi (fun i c -> (i, c)) sigma)

let arb_small_sigma =
  QCheck.make
    QCheck.Gen.(list_size (int_bound 6) gen_constraint)
    ~print:print_sigma

(* the index's witness for every member of Sigma is the reference's *)
let agrees_with_reference sigma =
  let subsumer = Store.subsuming_member sigma in
  List.for_all
    (fun c ->
      match (subsumer c, reference_subsuming sigma c) with
      | None, None -> true
      | Some (i, c', d), Some (i', c'', d') ->
          i = i' && Constr.equal c' c'' && Path.equal d d'
      | _ -> false)
    sigma

let prop_subsuming_member_parity =
  q ~count:300 "subsuming_member agrees with the reference scan"
    arb_small_sigma
    agrees_with_reference

(* Random Sigma seldom holds two subsumers of one constraint, so the
   first-in-input-order rule goes untested above.  Here Sigma grows by
   appending a common suffix to both paths of a forward member, so
   extensions of extensions give chains with several subsumers, and is
   then shuffled. *)
let arb_subsumption_chains =
  let open QCheck.Gen in
  let extend sigma (pick, delta) =
    match List.filter (fun c -> Constr.kind c = Constr.Forward) sigma with
    | [] -> sigma
    | fwd ->
        let c = List.nth fwd (pick mod List.length fwd) in
        Constr.forward ~prefix:(Constr.prefix c)
          ~lhs:(Path.concat (Constr.lhs c) delta)
          ~rhs:(Path.concat (Constr.rhs c) delta)
        :: sigma
  in
  QCheck.make ~print:print_sigma
    ( list_size (int_range 1 3) gen_constraint >>= fun base ->
      list_size (int_range 1 5) (pair (int_bound 7) gen_nonempty_path)
      >>= fun steps -> shuffle_l (List.fold_left extend base steps) )

let prop_subsuming_member_first =
  q ~count:300 "subsuming_member names the first subsumer on chains"
    arb_subsumption_chains
    agrees_with_reference

(* --- soundness of the pre-filters ------------------------------------------ *)

let prop_word_soundness =
  q ~count:300 "implies_syntactic sound vs the PTIME word procedure"
    QCheck.(pair arb_word_sigma arb_word_constraint)
    (fun (sigma, phi) ->
      let st = Store.of_constraints sigma in
      (not (Store.implies_syntactic st phi))
      || WU.implies ~sigma phi = Ok true)

let prop_untyped_soundness_vs_chase =
  q ~count:100 "implies_syntactic never contradicted by a chase refutation"
    QCheck.(
      pair
        (make Gen.(list_size (int_bound 4) gen_constraint) ~print:print_sigma)
        arb_constraint)
    (fun (sigma, phi) ->
      let st = Store.of_constraints sigma in
      (not (Store.implies_syntactic st phi))
      ||
      match Chase.implies ~sigma phi with
      | Verdict.Refuted _ -> false
      | Verdict.Implied | Verdict.Unknown _ -> true)

(* --- untyped store is conservative: membership of sigma always implied ----- *)

let prop_members_implied =
  q ~count:200 "every stored constraint is syntactically implied"
    arb_small_sigma
    (fun sigma ->
      let st = Store.of_constraints sigma in
      List.for_all
        (fun c ->
          Store.mem st c
          && (Constr.kind c = Constr.Backward || Store.implies_syntactic st c))
        sigma)

let () =
  Alcotest.run "store"
    [
      ( "hashcons",
        [
          Alcotest.test_case "basics" `Quick test_hashcons_basics;
          prop_hashcons_equality;
          prop_hashcons_roundtrip;
        ] );
      ( "derivations",
        [
          Alcotest.test_case "mem" `Quick test_mem;
          Alcotest.test_case "direct+transitive" `Quick
            test_implies_direct_and_transitive;
          Alcotest.test_case "right congruence" `Quick
            test_implies_right_congruence;
          Alcotest.test_case "transitive chain" `Quick
            test_implies_transitive_chain;
          Alcotest.test_case "mutual containment" `Quick
            test_mutual_containment_merges;
          Alcotest.test_case "prefix buckets" `Quick test_forward_prefix_bucket;
          Alcotest.test_case "subsumption ordering" `Quick
            test_subsumption_ordering;
        ] );
      ( "properties",
        [
          prop_subsuming_member_parity;
          prop_subsuming_member_first;
          prop_word_soundness;
          prop_untyped_soundness_vs_chase;
          prop_members_implied;
        ] );
    ]
