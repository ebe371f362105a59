open Testutil
module Label = Pathlang.Label
module Path = Pathlang.Path
module Nfa = Automata.Nfa
module Pds = Automata.Pds
module PR = Automata.Prefix_rewrite
module Ref = Oracle.Pre_star_reference

let la = Label.make "a"
let lb = Label.make "b"
let lc = Label.make "c"

(* --- Nfa ---------------------------------------------------------------- *)

let test_nfa_basics () =
  let a = Nfa.create () in
  Nfa.ensure_states a 3;
  Nfa.add_trans a 0 la 1;
  Nfa.add_trans a 1 lb 2;
  Nfa.set_final a 2;
  check_bool "accepts ab" true (Nfa.accepts_from a 0 [ la; lb ]);
  check_bool "rejects a" false (Nfa.accepts_from a 0 [ la ]);
  check_bool "rejects ba" false (Nfa.accepts_from a 0 [ lb; la ]);
  Nfa.add_eps a 0 1;
  check_bool "eps: accepts b" true (Nfa.accepts_from a 0 [ lb ])

let test_nfa_eps_closure () =
  let a = Nfa.create () in
  Nfa.ensure_states a 4;
  Nfa.add_eps a 0 1;
  Nfa.add_eps a 1 2;
  Nfa.add_eps a 2 0;
  (* cycle *)
  let closure = Nfa.eps_closure a (Nfa.State_set.singleton 0) in
  check_int "closure size" 3 (Nfa.State_set.cardinal closure)

(* --- Pds / normalize ------------------------------------------------------ *)

let test_normalize_preserves_reachability () =
  (* <0, a> -> <0, b c a b>: a push of length 4 *)
  let pds =
    Pds.make ~control_count:1
      [ { Pds.p = 0; gamma = la; q = 0; push = [ lb; lc; la; lb ] } ]
  in
  let norm = Pds.normalize pds in
  check_bool "normalized pushes <= 2" true
    (List.for_all (fun (r : Pds.rule) -> List.length r.push <= 2) norm.rules);
  let goal = (0, [ lb; lc; la; lb; lc ]) in
  let start = (0, [ la; lc ]) in
  check_bool "original reaches" true
    (Ref.bfs_reachable pds ~start ~goal = Some true);
  (* the normalized system reaches the same <0, w> configurations *)
  check_bool "normalized reaches" true
    (match Ref.bfs_reachable norm ~start ~goal with
    | Some true -> true
    | _ -> false)

(* --- prefix rewriting: hand cases ----------------------------------------- *)

let system rules =
  PR.compile ~alphabet:[ la; lb; lc ]
    (List.map (fun (l, r) -> { PR.lhs = path l; rhs = path r }) rules)

(* the naive pre*, checked against a decision context on the way *)
let derives s alpha beta =
  let naive = Ref.derives s alpha beta in
  check_bool "context agrees with naive pre*" naive
    (PR.derives_in (PR.context (PR.rules s)) alpha beta);
  naive

let test_simple_rewrite () =
  let s = system [ ("a", "b") ] in
  check_bool "a => b" true (derives s (path "a") (path "b"));
  check_bool "a.c => b.c (congruence)" true
    (derives s (path "a.c") (path "b.c"));
  check_bool "not b => a" false (derives s (path "b") (path "a"));
  check_bool "reflexive" true (derives s (path "c") (path "c"));
  check_bool "not c => b" false (derives s (path "c") (path "b"))

let test_transitive () =
  let s = system [ ("a", "b"); ("b", "c") ] in
  check_bool "a => c" true (derives s (path "a") (path "c"));
  check_bool "a.a => c.a" true (derives s (path "a.a") (path "c.a"));
  check_bool "a.a => c.c" false (derives s (path "a.a") (path "c.c"))

let test_long_lhs () =
  let s = system [ ("a.b", "c") ] in
  check_bool "a.b => c" true (derives s (path "a.b") (path "c"));
  check_bool "a.b.a => c.a" true (derives s (path "a.b.a") (path "c.a"));
  check_bool "only prefix" false (derives s (path "c.a.b") (path "c.c"))

let test_empty_lhs () =
  let s = system [ ("eps", "a") ] in
  check_bool "b => a.b" true (derives s (path "b") (path "a.b"));
  check_bool "eps => a.a.a" true (derives s Path.empty (path "a.a.a"));
  check_bool "not a => b" false (derives s (path "a") (path "b"))

let test_empty_rhs () =
  let s = system [ ("a", "eps") ] in
  check_bool "a.b => b" true (derives s (path "a.b") (path "b"));
  check_bool "a.a => eps" true (derives s (path "a.a") Path.empty)

let test_growing () =
  let s = system [ ("a", "a.a") ] in
  check_bool "a => a.a.a" true (derives s (path "a") (path "a.a.a"));
  check_bool "not shrink" false (derives s (path "a.a") (path "a"))

let test_cycle () =
  let s = system [ ("a", "b"); ("b", "a") ] in
  check_bool "a => a via cycle" true (derives s (path "a") (path "a"));
  check_bool "b => a" true (derives s (path "b") (path "a"))

let test_paper_extent () =
  (* Section 1 extent constraints as rewriting rules *)
  let book_author = { PR.lhs = path "book.author"; rhs = path "person" } in
  let person_wrote = { PR.lhs = path "person.wrote"; rhs = path "book" } in
  let book_ref = { PR.lhs = path "book.ref"; rhs = path "book" } in
  let s = PR.compile ~alphabet:[] [ book_author; person_wrote; book_ref ] in
  check_bool "book.ref.author => person" true
    (derives s (path "book.ref.author") (path "person"));
  check_bool "book.ref.ref.author => person" true
    (derives s (path "book.ref.ref.author") (path "person"));
  check_bool "person !=> book" false (derives s (path "person") (path "book"))

(* --- cross-validation: pre* vs post* vs BFS -------------------------------- *)

let gen_rule =
  QCheck.Gen.(
    map2
      (fun l r -> { PR.lhs = l; rhs = r })
      (gen_path_len 2) (gen_path_len 2))

let gen_system = QCheck.Gen.(list_size (int_bound 4) gen_rule)

let print_system rules =
  String.concat "; "
    (List.map
       (fun (r : PR.rule) ->
         Path.to_string r.lhs ^ " => " ^ Path.to_string r.rhs)
       rules)

let arb_instance =
  QCheck.make
    QCheck.Gen.(triple gen_system (gen_path_len 3) (gen_path_len 3))
    ~print:(fun (rules, a, b) ->
      Printf.sprintf "%s |- %s => %s" (print_system rules) (Path.to_string a)
        (Path.to_string b))

let prop_pre_vs_post =
  q ~count:150 "pre* and post* agree" arb_instance (fun (rules, a, b) ->
      let s = PR.compile ~alphabet:labels rules in
      Ref.derives s a b = PR.derives_via_post s a b)

let prop_pre_vs_context =
  q ~count:200 "naive and context pre* agree" arb_instance
    (fun (rules, a, b) ->
      let s = PR.compile ~alphabet:labels rules in
      Ref.derives s a b = PR.derives_in (PR.context rules) a b)

let prop_pre_vs_bfs =
  q ~count:100 "pre* agrees with BFS when BFS is definitive" arb_instance
    (fun (rules, a, b) ->
      let s = PR.compile ~alphabet:labels rules in
      match Ref.derives_bfs ~max_configs:4_000 s a b with
      | Some oracle -> Ref.derives s a b = oracle
      | None -> QCheck.assume_fail ())

let prop_one_step_in_closure =
  q ~count:150 "every one-step rewrite is derivable"
    QCheck.(pair (QCheck.make gen_system ~print:print_system) arb_path)
    (fun (rules, a) ->
      let s = PR.compile ~alphabet:labels rules in
      List.for_all (fun b -> Ref.derives s a b) (PR.one_step rules a))

let prop_transitive_closure =
  q ~count:80 "derivability is transitive" arb_instance (fun (rules, a, b) ->
      let s = PR.compile ~alphabet:labels rules in
      if Ref.derives s a b then
        List.for_all (fun c -> Ref.derives s a c) (PR.one_step rules b)
      else true)

(* --- DFA operations ---------------------------------------------------------- *)

let nfa_of_word w =
  let a = Nfa.create () in
  let start = Nfa.add_state a in
  let stop =
    List.fold_left
      (fun src k ->
        let t = Nfa.add_state a in
        Nfa.add_trans a src k t;
        t)
      start w
  in
  Nfa.set_final a stop;
  (a, start)

let test_dfa_of_nfa () =
  let a, start = nfa_of_word [ la; lb ] in
  let d = Automata.Dfa.of_nfa ~alphabet:[ la; lb ] a ~start in
  check_bool "accepts ab" true (Automata.Dfa.accepts d [ la; lb ]);
  check_bool "rejects a" false (Automata.Dfa.accepts d [ la ]);
  check_bool "rejects abb" false (Automata.Dfa.accepts d [ la; lb; lb ]);
  check_bool "foreign letter rejected" false (Automata.Dfa.accepts d [ lc ])

let test_dfa_complement () =
  let a, start = nfa_of_word [ la ] in
  let d = Automata.Dfa.of_nfa ~alphabet:[ la; lb ] a ~start in
  let c = Automata.Dfa.complement d in
  check_bool "complement flips accept" false (Automata.Dfa.accepts c [ la ]);
  check_bool "complement accepts eps" true (Automata.Dfa.accepts c []);
  check_bool "complement accepts bb" true (Automata.Dfa.accepts c [ lb; lb ]);
  (* d /\ complement d is empty *)
  check_bool "inter with complement empty" true (Automata.Dfa.inter_empty d c)

let test_dfa_inclusion () =
  let a1, s1 = nfa_of_word [ la ] in
  let a2, s2 = nfa_of_word [ la ] in
  (* widen a2 with another accepted word *)
  let extra = Nfa.add_state a2 in
  Nfa.add_trans a2 s2 lb extra;
  Nfa.set_final a2 extra;
  check_bool "L1 in L2" true
    (Automata.Dfa.nfa_inclusion ~alphabet:[ la; lb ] a1 ~start1:s1 a2 ~start2:s2);
  check_bool "L2 not in L1" false
    (Automata.Dfa.nfa_inclusion ~alphabet:[ la; lb ] a2 ~start1:s2 a1 ~start2:s1)

let test_dfa_some_word_and_empty () =
  let a, start = nfa_of_word [ la; lc ] in
  let d = Automata.Dfa.of_nfa ~alphabet:[ la; lc ] a ~start in
  (match Automata.Dfa.some_word d with
  | Some w -> check_bool "witness accepted" true (Automata.Dfa.accepts d w)
  | None -> Alcotest.fail "language is non-empty");
  check_bool "not empty" false (Automata.Dfa.is_empty d);
  let never = Automata.Dfa.complement d in
  (* complement of a single word over its own alphabet is non-empty *)
  check_bool "complement non-empty" false (Automata.Dfa.is_empty never);
  (* an automaton with no finals is empty *)
  let a2 = Nfa.create () in
  let s2 = Nfa.add_state a2 in
  let d2 = Automata.Dfa.of_nfa ~alphabet:[ la ] a2 ~start:s2 in
  check_bool "empty language" true (Automata.Dfa.is_empty d2);
  check_bool "no witness" true (Automata.Dfa.some_word d2 = None)

let test_pds_step () =
  let pds =
    Pds.make ~control_count:2
      [ { Pds.p = 0; gamma = la; q = 1; push = [ lb; lc ] } ]
  in
  (match Pds.step pds (0, [ la; la ]) with
  | [ (1, stack) ] ->
      check_bool "stack rewritten" true (stack = [ lb; lc; la ])
  | _ -> Alcotest.fail "expected one successor");
  check_bool "no rule applies" true (Pds.step pds (1, [ la ]) = []);
  check_bool "empty stack stuck" true (Pds.step pds (0, []) = [])

let () =
  Alcotest.run "automata"
    [
      ( "nfa",
        [
          Alcotest.test_case "basics" `Quick test_nfa_basics;
          Alcotest.test_case "eps closure" `Quick test_nfa_eps_closure;
        ] );
      ( "pds",
        [
          Alcotest.test_case "normalize" `Quick
            test_normalize_preserves_reachability;
          Alcotest.test_case "step" `Quick test_pds_step;
        ] );
      ( "dfa",
        [
          Alcotest.test_case "of_nfa" `Quick test_dfa_of_nfa;
          Alcotest.test_case "complement" `Quick test_dfa_complement;
          Alcotest.test_case "inclusion" `Quick test_dfa_inclusion;
          Alcotest.test_case "some_word / emptiness" `Quick
            test_dfa_some_word_and_empty;
        ] );
      ( "prefix-rewrite",
        [
          Alcotest.test_case "simple" `Quick test_simple_rewrite;
          Alcotest.test_case "transitive" `Quick test_transitive;
          Alcotest.test_case "long lhs" `Quick test_long_lhs;
          Alcotest.test_case "empty lhs" `Quick test_empty_lhs;
          Alcotest.test_case "empty rhs" `Quick test_empty_rhs;
          Alcotest.test_case "growing" `Quick test_growing;
          Alcotest.test_case "cycle" `Quick test_cycle;
          Alcotest.test_case "paper extent" `Quick test_paper_extent;
        ] );
      ( "cross-validation",
        [
          prop_pre_vs_post;
          prop_pre_vs_context;
          prop_pre_vs_bfs;
          prop_one_step_in_closure;
          prop_transitive_closure;
        ] );
    ]
