open Testutil
module Path = Pathlang.Path
module Constr = Pathlang.Constr
module Mschema = Schema.Mschema
module SG = Schema.Schema_graph
module Typecheck = Schema.Typecheck
module Check = Sgraph.Check
module TM = Core.Typed_m
module Axioms = Core.Axioms
module Mtype = Schema.Mtype
module Graph = Sgraph.Graph
module Label = Pathlang.Label
module Reference = Oracle.Countermodel_reference

let bib = Mschema.bib_m

let decide sigma phi =
  match TM.decide bib ~sigma ~phi with
  | Ok o -> o
  | Error e -> Alcotest.fail e

let check_implied_with_proof sigma phi =
  match decide sigma phi with
  | TM.Implied d ->
      check_bool "derivation checks and proves phi" true
        (Axioms.proves ~sigma ~goal:phi d)
  | TM.Not_implied _ -> Alcotest.fail "expected implied"
  | TM.Vacuous m -> Alcotest.failf "unexpected vacuity: %s" m

let check_not_implied sigma phi =
  match decide sigma phi with
  | TM.Not_implied t ->
      (match Typecheck.validate bib t with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "countermodel not in U_f(Delta): %s"
            (String.concat "; " es));
      let g = t.Typecheck.graph in
      check_bool "countermodel satisfies sigma" true (Check.holds_all g sigma);
      check_bool "countermodel violates phi" false (Check.holds g phi)
  | TM.Implied _ -> Alcotest.fail "expected not implied"
  | TM.Vacuous m -> Alcotest.failf "unexpected vacuity: %s" m

(* --- word equality translation (Lemmas 4.7 / 4.8) ---------------------------- *)

let test_to_word_equality () =
  let f = c_fwd "book" "author" "author" in
  let u, v = TM.to_word_equality f in
  Alcotest.check path_testable "fwd lhs" (path "book.author") u;
  Alcotest.check path_testable "fwd rhs" (path "book.author") v;
  let b = c_bwd "book" "author" "wrote" in
  let u, v = TM.to_word_equality b in
  Alcotest.check path_testable "bwd lhs" (path "book") u;
  Alcotest.check path_testable "bwd rhs" (path "book.author.wrote") v

(* --- hand instances -------------------------------------------------------------- *)

let test_reflexive () = check_implied_with_proof [] (c_word "book" "book")

let test_axiom_instance () =
  let sigma = [ c_word "book" "book.ref" ] in
  check_implied_with_proof sigma (c_word "book" "book.ref")

let test_commutativity_over_m () =
  (* over M, word implication is symmetric (commutativity rule) — in
     stark contrast with the untyped world *)
  let sigma = [ c_word "book" "book.ref" ] in
  check_implied_with_proof sigma (c_word "book.ref" "book");
  (* and the untyped procedure indeed refuses it *)
  check_bool "untyped says no" false
    (Core.Word_untyped.implies_exn ~sigma (c_word "book.ref" "book"))

let test_congruence_over_m () =
  let sigma = [ c_word "book" "book.ref" ] in
  check_implied_with_proof sigma (c_word "book.author" "book.ref.author");
  check_implied_with_proof sigma (c_word "book.ref.title" "book.title")

let test_backward_to_word () =
  (* inverse constraint: book : author <- wrote, equivalent over M to
     book -> book.author.wrote *)
  let sigma = [ c_bwd "book" "author" "wrote" ] in
  check_implied_with_proof sigma (c_word "book" "book.author.wrote");
  check_implied_with_proof sigma (c_word "book.author.wrote" "book");
  (* and wrapped back into a backward constraint *)
  check_implied_with_proof
    [ c_word "book" "book.author.wrote" ]
    (c_bwd "book" "author" "wrote")

let test_forward_wrap () =
  let sigma = [ c_word "book.author" "person" ] in
  check_implied_with_proof sigma (c_fwd "book" "author" "author");
  (* forward constraint with non-empty prefix out of a word equality *)
  check_implied_with_proof sigma
    (Constr.forward ~prefix:(path "book") ~lhs:(path "author")
       ~rhs:(path "author"))

let test_interplay_forward_backward () =
  (* from the inverse pair derive that ref-following composed with the
     inverse loops back:
       sigma: book : author <- wrote   (book ~ book.author.wrote)
              person : wrote <- author (person ~ person.wrote.author)
     goal: book.author ~ book.author.wrote.author *)
  let sigma =
    [ c_bwd "book" "author" "wrote"; c_bwd "person" "wrote" "author" ] in
  check_implied_with_proof sigma
    (c_word "book.author.wrote.author" "book.author");
  (* but book.author ~ person does NOT follow *)
  check_not_implied sigma (c_word "book.author" "person")

let test_not_implied_with_countermodel () =
  check_not_implied [] (c_word "book" "book.ref");
  check_not_implied
    [ c_word "book" "book.ref" ]
    (c_word "person" "person.wrote.author");
  check_not_implied
    [ c_word "book.author" "person" ]
    (c_word "book.ref" "book")

let test_vacuous () =
  (* title is a string, year an int: forcing them equal is unsatisfiable
     over U(Delta) *)
  let sigma = [ c_word "book.title" "book.year" ] in
  match TM.decide bib ~sigma ~phi:(c_word "book" "book.ref") with
  | Ok (TM.Vacuous _) -> ()
  | Ok _ -> Alcotest.fail "expected vacuous"
  | Error e -> Alcotest.fail e

let test_rejects_bad_paths () =
  check_bool "path outside Paths(Delta)" true
    (Result.is_error (TM.decide bib ~sigma:[] ~phi:(c_word "zap" "book")));
  check_bool "M+ schema rejected" true
    (Result.is_error
       (TM.decide Mschema.example_3_1 ~sigma:[] ~phi:(c_word "book" "book")))

(* --- transitive chains (stress the proof forest) -------------------------------- *)

let test_long_chain () =
  (* book ~ book.ref ~ book.ref.ref ~ ... all collapse *)
  let sigma = [ c_word "book" "book.ref" ] in
  check_implied_with_proof sigma (c_word "book" "book.ref.ref.ref.ref");
  check_implied_with_proof sigma
    (c_word "book.ref.ref.author" "book.ref.ref.ref.ref.author")

let test_two_step_congruence_cascade () =
  (* person.wrote ~ book and book.author ~ person force
     person.wrote.author ~ book.author ~ person *)
  let sigma = [ c_word "person.wrote" "book"; c_word "book.author" "person" ] in
  check_implied_with_proof sigma (c_word "person.wrote.author" "person");
  check_implied_with_proof sigma
    (c_word "person.wrote.author.wrote" "person.wrote")

(* --- satisfiability / consequence closure ------------------------------------------ *)

let test_satisfiable () =
  check_bool "empty sigma" true
    (TM.satisfiable bib ~sigma:[] = Ok true);
  check_bool "consistent sigma" true
    (TM.satisfiable bib ~sigma:[ c_word "book" "book.ref" ] = Ok true);
  check_bool "sort clash" true
    (TM.satisfiable bib ~sigma:[ c_word "book.title" "book.year" ] = Ok false)

let test_equivalence_classes () =
  let sigma = [ c_word "book" "book.ref" ] in
  match TM.equivalence_classes bib ~sigma ~max_len:2 with
  | Error e -> Alcotest.fail e
  | Ok classes ->
      let class_of p =
        List.find (fun cl -> List.exists (Path.equal p) cl) classes
      in
      check_bool "book ~ book.ref" true
        (class_of (path "book") == class_of (path "book.ref"));
      check_bool "book !~ person" true
        (class_of (path "book") != class_of (path "person"));
      (* classes partition the path universe *)
      let total = List.fold_left (fun n cl -> n + List.length cl) 0 classes in
      check_int "partition size" (List.length (SG.paths_up_to bib 2)) total;
      (* membership in the same class = two-way implication *)
      List.iter
        (fun cl ->
          match cl with
          | p1 :: p2 :: _ ->
              check_bool "two-way implied" true
                (TM.implies bib ~sigma ~phi:(Constr.word ~lhs:p1 ~rhs:p2)
                 = Ok true)
          | _ -> ())
        classes

let test_canonical_model () =
  let sigma =
    [ c_word "book" "book.ref"; c_bwd "book" "author" "wrote" ]
  in
  match TM.canonical_model bib ~sigma with
  | Error e -> Alcotest.fail e
  | Ok t ->
      (match Typecheck.validate bib t with
      | Ok () -> ()
      | Error es -> Alcotest.fail (String.concat "; " es));
      check_bool "satisfies sigma" true
        (Check.holds_all t.Typecheck.graph sigma);
      (* freeness: an unrelated equality does not hold *)
      check_bool "free" false
        (Check.holds t.Typecheck.graph (c_word "book.author" "person"));
  (* unsatisfiable sigma is reported *)
  match TM.canonical_model bib ~sigma:[ c_word "book.title" "book.year" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unsatisfiable"

(* The schema of a class named like an atomic type, with the class
   renamed (Mschema.make rejects the clash itself): the model of
   [a -> b] needs the generic node of class [Int] and that of atomic
   [int], which a table keyed by printed sort merged. *)
let test_class_and_atomic_generic_nodes () =
  let int_c = Mtype.cname "Int" and k = Mtype.cname "K" in
  let int_t = Mtype.Atomic Mtype.int_ in
  let classes name =
    [
      (name, Mtype.record [ ("x", int_t) ]);
      (k, Mtype.record [ ("k", Mtype.Class name); ("z", int_t) ]);
    ]
  in
  let dbtype = Mtype.record [ ("a", Mtype.Class k); ("b", Mtype.Class k) ] in
  check_bool "the clashing spelling is rejected" true
    (Result.is_error
       (Mschema.make ~kind:Mschema.M ~classes:(classes (Mtype.cname "int"))
          ~dbtype));
  let schema = Mschema.make_exn ~kind:Mschema.M ~classes:(classes int_c) ~dbtype in
  let phi = c_word "a" "b" in
  match (TM.decide schema ~sigma:[] ~phi, Reference.decide schema ~sigma:[] ~phi) with
  | Ok (TM.Not_implied t), Reference.Not_implied o ->
      (match Typecheck.validate schema t with
      | Ok () -> ()
      | Error es -> Alcotest.fail (String.concat "; " es));
      check_bool "refutes phi" false (Check.holds t.Typecheck.graph phi);
      check_bool "matches the reference model" true
        (Reference.reachable_isomorphic t o)
  | _ -> Alcotest.fail "expected not implied"

(* --- countermodels against the from-scratch construction ------------------------- *)

(* Over M a constraint's sides end at one node, so extending both by a
   common walk gives an implied goal. *)
let derived_goal rng schema sigma =
  let c = List.nth sigma (Random.State.int rng (List.length sigma)) in
  let p, q = TM.to_word_equality c in
  let tau = Option.get (SG.type_of_path schema p) in
  let rec walk tau acc k =
    match SG.out_edges schema tau with
    | [] -> List.rev acc
    | _ when k = 0 -> List.rev acc
    | es ->
        let l, tau' = List.nth es (Random.State.int rng (List.length es)) in
        walk tau' (l :: acc) (k - 1)
  in
  let delta = Path.of_labels (walk tau [] (Random.State.int rng 3)) in
  Constr.word ~lhs:(Path.concat p delta) ~rhs:(Path.concat q delta)

let rec satisfiable_sigma rng schema ~count ~max_len fuel =
  let sigma = TM.random_constraints ~rng ~schema ~count ~max_len in
  if TM.satisfiable schema ~sigma = Ok true || fuel = 0 then sigma
  else satisfiable_sigma rng schema ~count ~max_len (fuel - 1)

let check_against_reference schema ~sigma ~phi outcome =
  match (outcome, Reference.decide schema ~sigma ~phi) with
  | Ok (TM.Implied d), Reference.Implied ->
      check_bool "certificate proves phi" true (Axioms.proves ~sigma ~goal:phi d);
      false
  | Ok (TM.Not_implied t), Reference.Not_implied o ->
      (match Typecheck.validate schema t with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "%s: model not in U_f(Delta): %s"
            (Constr.to_string phi) (String.concat "; " es));
      check_bool "model satisfies sigma" true
        (Check.holds_all t.Typecheck.graph sigma);
      check_bool "model refutes phi" false (Check.holds t.Typecheck.graph phi);
      if not (Reference.reachable_isomorphic t o) then
        Alcotest.failf "%s: model differs from the reference"
          (Constr.to_string phi);
      true
  | _ -> Alcotest.failf "%s: verdicts differ" (Constr.to_string phi)

let test_countermodels_match_reference () =
  let refuted = ref 0 in
  for seed = 1 to 12 do
    let rng = Random.State.make [| seed |] in
    let schema =
      Mschema.random_m ~rng ~classes:(3 + (seed mod 4)) ~fields:(2 + (seed mod 2))
        ~atoms:(1 + (seed mod 2))
    in
    let sigma = satisfiable_sigma rng schema ~count:6 ~max_len:3 50 in
    if TM.satisfiable schema ~sigma = Ok true then begin
      let ctx = TM.context schema ~sigma in
      (match (TM.canonical_model schema ~sigma, Reference.canonical_model schema ~sigma) with
      | Ok t, Some o ->
          check_bool "canonical model matches the reference" true
            (Reference.reachable_isomorphic t o)
      | _ -> Alcotest.fail "canonical model: verdicts differ");
      for i = 1 to 60 do
        let phi =
          if i mod 3 = 0 then derived_goal rng schema sigma
          else List.hd (TM.random_constraints ~rng ~schema ~count:1 ~max_len:4)
        in
        (* the memoised context and an explicit one, both reused *)
        if check_against_reference schema ~sigma ~phi (TM.decide schema ~sigma ~phi)
        then incr refuted;
        ignore (check_against_reference schema ~sigma ~phi (TM.decide_in ctx ~phi))
      done
    end
  done;
  check_bool "at least 200 goals are refuted" true (!refuted >= 200)

(* Every model handed out is the caller's: mutating one changes no later
   answer. *)
let snapshot (t : Typecheck.t) =
  ( Graph.node_count t.graph,
    List.sort compare
      (List.map
         (fun (x, l, y) -> (x, Label.to_string l, y))
         (Graph.edges t.graph)),
    List.sort compare
      (Hashtbl.fold (fun n tau acc -> (n, Mtype.to_string tau) :: acc) t.typing []) )

let test_models_are_owned () =
  let sigma = [ c_word "book" "book.ref"; c_word "person" "person.wrote.author" ] in
  let model phi =
    match TM.decide bib ~sigma ~phi with
    | Ok (TM.Not_implied t) -> t
    | _ -> Alcotest.fail "expected not implied"
  in
  let canonical () = Result.get_ok (TM.canonical_model bib ~sigma) in
  let fresh = c_word "book.author" "person.wrote.author.wrote.ref.author"
  and known = c_word "person.wrote" "book" in
  let expected = List.map (fun phi -> snapshot (model phi)) [ fresh; known ] in
  let expected_canonical = snapshot (canonical ()) in
  let vandalize (t : Typecheck.t) =
    let g = t.graph in
    let v = Graph.add_node g in
    Graph.add_edge g (Graph.root g) (Label.make "book") v;
    Graph.add_edge g v (Label.make "zap") (Graph.root g);
    Typecheck.set_type t (Graph.root g) (Mtype.Atomic Mtype.int_);
    Typecheck.set_type t 1 (Mtype.Atomic Mtype.string_)
  in
  List.iter vandalize [ model fresh; model known; canonical () ];
  List.iter2
    (fun phi e ->
      check_bool (Constr.to_string phi ^ ": model unchanged") true
        (snapshot (model phi) = e))
    [ fresh; known ] expected;
  check_bool "canonical model unchanged" true
    (snapshot (canonical ()) = expected_canonical)

(* A context's base model lives and dies with its memo slot: twenty
   rounds of refuted goals against one Sigma, each closing and building
   it anew after a switch to another Sigma, keep the live heap flat. *)
let test_heap_flat_across_contexts () =
  let rng = Random.State.make [| 7 |] in
  let schema = Mschema.random_m ~rng ~classes:8 ~fields:3 ~atoms:2 in
  let sigma = satisfiable_sigma rng schema ~count:32 ~max_len:4 50 in
  let goals = TM.random_constraints ~rng ~schema ~count:64 ~max_len:4 in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  let rounds =
    List.init 20 (fun _ ->
        List.iter (fun phi -> ignore (TM.decide schema ~sigma ~phi)) goals;
        ignore (TM.decide bib ~sigma:[] ~phi:(c_word "book" "book.ref"));
        live ())
  in
  let lo = List.fold_left min max_int rounds
  and hi = List.fold_left max 0 rounds in
  if float_of_int hi > 1.05 *. float_of_int lo then
    Alcotest.failf "live words grew from %d to %d" lo hi

(* --- random cross-validation ------------------------------------------------------ *)

let arb_typed_instance =
  let gen =
    QCheck.Gen.(
      int >>= fun seed ->
      let rng = Random.State.make [| seed |] in
      let sigma = TM.random_constraints ~rng ~schema:bib ~count:4 ~max_len:3 in
      let phi =
        match TM.random_constraints ~rng ~schema:bib ~count:1 ~max_len:3 with
        | [ c ] -> c
        | _ -> c_word "book" "book"
      in
      return (sigma, phi))
  in
  QCheck.make gen ~print:(fun (sigma, phi) ->
      print_sigma sigma ^ " |- " ^ Constr.to_string phi)

let prop_outcome_always_valid =
  q ~count:200 "decide outcomes carry valid evidence" arb_typed_instance
    (fun (sigma, phi) ->
      match TM.decide bib ~sigma ~phi with
      | Error _ -> false
      | Ok (TM.Implied d) -> Axioms.proves ~sigma ~goal:phi d
      | Ok (TM.Not_implied t) ->
          Typecheck.validate bib t = Ok ()
          && Check.holds_all t.Typecheck.graph sigma
          && not (Check.holds t.Typecheck.graph phi)
      | Ok (TM.Vacuous _) -> true)

let prop_untyped_implies_typed =
  (* the typed theory extends the untyped one on word constraints *)
  q ~count:100 "untyped word implication entails typed implication"
    arb_typed_instance
    (fun (sigma, phi) ->
      let words = List.filter Constr.is_word sigma in
      if not (Constr.is_word phi) then QCheck.assume_fail ()
      else if Core.Word_untyped.implies_exn ~sigma:words phi then
        match TM.implies bib ~sigma:words ~phi with
        | Ok b -> b
        | Error _ -> false
      else true)

let prop_monotone =
  q ~count:100 "implication is monotone in sigma" arb_typed_instance
    (fun (sigma, phi) ->
      match (TM.implies bib ~sigma:[] ~phi, TM.implies bib ~sigma ~phi) with
      | Ok true, Ok b -> b
      | _ -> true)

let prop_sigma_members_implied =
  q ~count:100 "every member of sigma is implied" arb_typed_instance
    (fun (sigma, _) ->
      List.for_all
        (fun c ->
          match TM.implies bib ~sigma ~phi:c with Ok b -> b | Error _ -> false)
        sigma)

(* --- random schemas ----------------------------------------------------------------- *)

let prop_random_schema_outcomes =
  q ~count:60 "outcomes valid on random M schemas"
    (QCheck.make
       QCheck.Gen.(int_bound 1_000_000)
       ~print:string_of_int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Mschema.random_m ~rng ~classes:4 ~fields:2 ~atoms:1 in
      let sigma = TM.random_constraints ~rng ~schema ~count:4 ~max_len:3 in
      let phi =
        match TM.random_constraints ~rng ~schema ~count:1 ~max_len:4 with
        | [ c ] -> c
        | _ -> QCheck.assume_fail ()
      in
      match TM.decide schema ~sigma ~phi with
      | Error _ -> false
      | Ok (TM.Implied d) -> Axioms.proves ~sigma ~goal:phi d
      | Ok (TM.Not_implied t) ->
          Typecheck.validate schema t = Ok ()
          && Check.holds_all t.Typecheck.graph sigma
          && not (Check.holds t.Typecheck.graph phi)
      | Ok (TM.Vacuous _) -> true)

(* --- satisfiability is one sort check per constraint ------------------------------- *)

(* A random M schema and a Sigma that mixes [random_constraints] (whose
   two sides always share a sort) with word constraints between
   arbitrary paths of Paths(Delta): half of those pairs are resampled
   towards one sort, the rest differ in sort as often as chance has it,
   so Sigma clashes about as often as not, and same-sort pairs the
   structured generator never makes drive the congruence. *)
let mixed_sigma seed =
  let rng = Random.State.make [| seed |] in
  let schema =
    Mschema.random_m ~rng ~classes:(2 + (seed mod 4)) ~fields:(1 + (seed mod 3))
      ~atoms:(1 + (seed mod 2))
  in
  let sort p = Option.get (SG.type_of_path schema p) in
  let rec walk tau acc k =
    match SG.out_edges schema tau with
    | es when k > 0 && es <> [] ->
        let l, tau' = List.nth es (Random.State.int rng (List.length es)) in
        walk tau' (l :: acc) (k - 1)
    | _ -> Path.of_labels (List.rev acc)
  in
  let path () = walk (Mschema.dbtype schema) [] (Random.State.int rng 5) in
  let word () =
    let p = path () in
    let rec same_sort k =
      let q = path () in
      if k = 0 || Mtype.equal (sort p) (sort q) then q else same_sort (k - 1)
    in
    let q = if Random.State.bool rng then same_sort 20 else path () in
    Constr.word ~lhs:p ~rhs:q
  in
  let base =
    TM.random_constraints ~rng ~schema ~count:(Random.State.int rng 5) ~max_len:3
  in
  let sigma =
    List.fold_left
      (fun acc c ->
        let i = Random.State.int rng (List.length acc + 1) in
        List.filteri (fun j _ -> j < i) acc
        @ [ c ]
        @ List.filteri (fun j _ -> j >= i) acc)
      base
      (List.init (1 + Random.State.int rng 3) (fun _ -> word ()))
  in
  (schema, sigma)

let prop_satisfiable_vs_reference =
  q ~count:1000 "satisfiable = the naive fixpoint, planted mismatches"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let schema, sigma = mixed_sigma seed in
      match
        (TM.satisfiable schema ~sigma, Reference.canonical_model schema ~sigma)
      with
      | Ok false, None -> true
      | Ok true, Some o ->
          (* the closure behind the model unions no two sorts *)
          Reference.reachable_isomorphic
            (Result.get_ok (TM.canonical_model schema ~sigma))
            o
      | _ -> false)

let test_mixed_sigma_plants_mismatches () =
  let unsat =
    List.length
      (List.filter
         (fun seed ->
           let schema, sigma = mixed_sigma seed in
           TM.satisfiable schema ~sigma = Ok false)
         (List.init 200 Fun.id))
  in
  if unsat < 50 || unsat > 150 then
    Alcotest.failf "%d of 200 mixed Sigma are unsatisfiable" unsat

let () =
  Alcotest.run "typed-m"
    [
      ( "translation",
        [ Alcotest.test_case "word equality" `Quick test_to_word_equality ] );
      ( "implied",
        [
          Alcotest.test_case "reflexivity" `Quick test_reflexive;
          Alcotest.test_case "axiom" `Quick test_axiom_instance;
          Alcotest.test_case "commutativity over M" `Quick
            test_commutativity_over_m;
          Alcotest.test_case "right congruence" `Quick test_congruence_over_m;
          Alcotest.test_case "backward/word" `Quick test_backward_to_word;
          Alcotest.test_case "forward wrap" `Quick test_forward_wrap;
          Alcotest.test_case "interplay" `Quick test_interplay_forward_backward;
          Alcotest.test_case "long chains" `Quick test_long_chain;
          Alcotest.test_case "congruence cascade" `Quick
            test_two_step_congruence_cascade;
        ] );
      ( "not-implied",
        [
          Alcotest.test_case "countermodels" `Quick
            test_not_implied_with_countermodel;
          Alcotest.test_case "class and atomic generic nodes" `Quick
            test_class_and_atomic_generic_nodes;
          Alcotest.test_case "countermodels match the reference" `Quick
            test_countermodels_match_reference;
          Alcotest.test_case "models are owned by the caller" `Quick
            test_models_are_owned;
          Alcotest.test_case "heap flat across contexts" `Quick
            test_heap_flat_across_contexts;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "vacuous" `Quick test_vacuous;
          Alcotest.test_case "rejects bad input" `Quick test_rejects_bad_paths;
        ] );
      ( "closure",
        [
          Alcotest.test_case "satisfiable" `Quick test_satisfiable;
          Alcotest.test_case "equivalence classes" `Quick
            test_equivalence_classes;
          Alcotest.test_case "canonical model" `Quick test_canonical_model;
          Alcotest.test_case "mixed Sigma plants mismatches" `Quick
            test_mixed_sigma_plants_mismatches;
          prop_satisfiable_vs_reference;
        ] );
      ( "random",
        [
          prop_outcome_always_valid;
          prop_untyped_implies_typed;
          prop_monotone;
          prop_sigma_members_implied;
          prop_random_schema_outcomes;
        ] );
    ]
