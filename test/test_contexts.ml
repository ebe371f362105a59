(* Differential suite for the decision contexts.  The word route's
   context engine (control-to-control saturation once per Sigma, goal
   phase per goal) must agree with the naive whole-automaton pre* and
   with post*; the typed-M route's memoised decide must agree with a
   cold decide and carry checkable certificates; the one-entry memo must
   stay correct when Sigma alternates, when Sigma arrives as a fresh but
   equal list, and under a pool of domains. *)

open Testutil
module Label = Pathlang.Label
module Path = Pathlang.Path
module Constr = Pathlang.Constr
module PR = Automata.Prefix_rewrite
module Ref = Oracle.Pre_star_reference
module WU = Core.Word_untyped
module TM = Core.Typed_m
module Mschema = Schema.Mschema
module SG = Schema.Schema_graph
module Typecheck = Schema.Typecheck
module Check = Sgraph.Check

(* --- word route ------------------------------------------------------- *)

(* Sigma over a, b, c; goals also over d, which no rule mentions. *)
let sigma_labels = Array.of_list (List.map Label.make [ "a"; "b"; "c" ])
let goal_labels = Array.append sigma_labels [| Label.make "d" |]

let random_path rng labels max_len =
  Path.of_labels
    (List.init (Random.State.int rng (max_len + 1)) (fun _ ->
         labels.(Random.State.int rng (Array.length labels))))

(* rules with eps left-hand sides one time in four *)
let random_rules rng =
  List.init (Random.State.int rng 6) (fun _ ->
      let lhs =
        if Random.State.int rng 4 = 0 then Path.empty
        else random_path rng sigma_labels 3
      in
      { PR.lhs; rhs = random_path rng sigma_labels 3 })

let show_rules rules =
  String.concat "; "
    (List.map
       (fun (r : PR.rule) -> Path.to_string r.lhs ^ " => " ^ Path.to_string r.rhs)
       rules)

let test_word_engines () =
  let rng = Random.State.make [| 14; 1 |] in
  let eps_lhs = ref 0 and foreign = ref 0 and empty = ref 0 and yes = ref 0 in
  for _ = 1 to 300 do
    let rules = random_rules rng in
    let ctx = PR.context rules in
    let system = PR.compile ~alphabet:(Array.to_list goal_labels) rules in
    if List.exists (fun (r : PR.rule) -> Path.is_empty r.lhs) rules then
      incr eps_lhs;
    (* one context, many goals: a goal phase must not leak into the next *)
    for _ = 1 to 8 do
      let alpha = random_path rng goal_labels 4
      and beta = random_path rng goal_labels 4 in
      let naive = Ref.derives system alpha beta in
      let post = PR.derives_via_post system alpha beta in
      let got = PR.derives_in ctx alpha beta in
      if got <> naive || got <> post then
        Alcotest.failf "%s |- %s => %s: context %b, naive pre* %b, post* %b"
          (show_rules rules) (Path.to_string alpha) (Path.to_string beta) got
          naive post;
      let mentions_d p =
        Label.Set.mem goal_labels.(3) (Path.labels_used p)
      in
      if mentions_d alpha || mentions_d beta then incr foreign;
      if Path.is_empty alpha || Path.is_empty beta then incr empty;
      if got then incr yes
    done
  done;
  (* the draw covers the cases the context handles specially *)
  check_bool "eps left-hand sides drawn" true (!eps_lhs > 30);
  check_bool "foreign goal labels drawn" true (!foreign > 200);
  check_bool "empty goal paths drawn" true (!empty > 100);
  check_bool "both answers drawn" true (!yes > 100 && !yes < 2300)

let test_word_hand_cases () =
  let ctx = PR.context [ { PR.lhs = Path.empty; rhs = path "a" } ] in
  check_bool "eps => a on a foreign top" true
    (PR.derives_in ctx (path "d") (path "a.d"));
  check_bool "eps => a, empty alpha" true
    (PR.derives_in ctx Path.empty (path "a.a"));
  check_bool "eps => a cannot drop" false
    (PR.derives_in ctx (path "a") Path.empty);
  let ctx = PR.context [ { PR.lhs = path "a.b"; rhs = Path.empty } ] in
  check_bool "a.b => eps, empty beta" true
    (PR.derives_in ctx (path "a.b.a.b") Path.empty);
  check_bool "a.b => eps keeps a foreign suffix" true
    (PR.derives_in ctx (path "a.b.d") (path "d"));
  check_bool "no rules: reflexive on foreign labels" true
    (PR.derives_in (PR.context []) (path "d.d") (path "d.d"))

(* One masked context holds every leave-one-out rule set plus a few
   random ones; each variant must answer as the naive pre* and post* of
   a system compiled from its kept rules alone, and the whole-list bit
   as those of all the rules. *)
let test_word_masked () =
  let rng = Random.State.make [| 22; 1 |] in
  let variants_drawn = ref 0 and yes = ref 0 and no = ref 0 in
  for _ = 1 to 60 do
    let rules = random_rules rng @ random_rules rng in
    let n = List.length rules in
    let random_keep () =
      let kept = Array.init n (fun _ -> Random.State.bool rng) in
      fun pos -> kept.(pos)
    in
    let keeps =
      List.init n (fun i pos -> pos <> i)
      @ List.init (1 + Random.State.int rng 3) (fun _ -> random_keep ())
    in
    let ctx = PR.context ~variants:keeps rules in
    (* random goals, and one rewriting step by each rule under a random
       suffix: derivable from all the rules, maybe not from a variant's *)
    let goals =
      List.init 4 (fun _ ->
          (random_path rng goal_labels 4, random_path rng goal_labels 4))
      @ List.map
          (fun (r : PR.rule) ->
            let suffix = random_path rng goal_labels 2 in
            (Path.concat r.lhs suffix, Path.concat r.rhs suffix))
          rules
    in
    let check what kept variant =
      let system = PR.compile ~alphabet:(Array.to_list goal_labels) kept in
      List.iter
        (fun (alpha, beta) ->
          let naive = Ref.derives system alpha beta in
          let post = PR.derives_via_post system alpha beta in
          let got = PR.derives_in ?variant ctx alpha beta in
          if got <> naive || got <> post then
            Alcotest.failf
              "%s, %s [%s] |- %s => %s: masked %b, naive pre* %b, post* %b"
              (show_rules rules) what (show_rules kept) (Path.to_string alpha)
              (Path.to_string beta) got naive post;
          incr (if got then yes else no))
        goals
    in
    List.iteri
      (fun v keep ->
        incr variants_drawn;
        check
          (Printf.sprintf "variant %d" v)
          (List.filteri (fun pos _ -> keep pos) rules)
          (Some v))
      keeps;
    check "all" rules None
  done;
  check_bool "variants drawn" true (!variants_drawn > 250);
  check_bool "both answers drawn" true (!yes > 400 && !no > 400)

(* A word context lives and dies with its memo slot: twenty rounds of
   goals against one Sigma, each saturating it anew after a switch to
   another Sigma, keep the live heap flat. *)
let test_word_heap_flat () =
  let rng = Random.State.make [| 7 |] in
  let sigma =
    List.init 32 (fun _ ->
        Constr.word
          ~lhs:(random_path rng sigma_labels 3)
          ~rhs:(random_path rng sigma_labels 3))
  in
  let goals =
    List.init 64 (fun _ ->
        Constr.word
          ~lhs:(random_path rng goal_labels 4)
          ~rhs:(random_path rng goal_labels 4))
  in
  let other = [ c_word "a" "b" ] in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  let rounds =
    List.init 20 (fun _ ->
        List.iter (fun phi -> ignore (WU.implies ~sigma phi)) goals;
        ignore (WU.implies ~sigma:other (List.hd other));
        live ())
  in
  let lo = List.fold_left min max_int rounds
  and hi = List.fold_left max 0 rounds in
  if float_of_int hi > 1.05 *. float_of_int lo then
    Alcotest.failf "live words grew from %d to %d" lo hi

(* Sigma longer than one 62-position block: every leave-one-out
   question, on either side of the boundary, and Sigma itself answer as
   a fresh context over the kept members; two blocks, two saturations. *)
let test_word_blocks () =
  let rng = Random.State.make [| 22; 2 |] in
  let sigma =
    List.init 70 (fun _ ->
        let lhs =
          if Random.State.int rng 4 = 0 then Path.empty
          else random_path rng sigma_labels 2
        in
        Constr.word ~lhs ~rhs:(random_path rng sigma_labels 2))
  in
  let goals =
    List.init 6 (fun _ ->
        Constr.word
          ~lhs:(random_path rng goal_labels 3)
          ~rhs:(random_path rng goal_labels 3))
  in
  let all = List.init 70 Fun.id in
  let compiled = Obs.Counter.make "word.systems_compiled" in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let before = Obs.Counter.value compiled in
      let ss = WU.subsets ~sigma in
      let ask keep phi = Result.get_ok (WU.implies_subset ss ~keep phi) in
      let masked =
        List.mapi
          (fun i member ->
            List.map
              (fun phi -> ask (List.filter (( <> ) i) all) phi)
              (member :: goals))
          sigma
      in
      let whole = List.map (ask (List.rev all)) goals in
      check_int "two block saturations" 2 (Obs.Counter.value compiled - before);
      List.iteri
        (fun i member ->
          let rest = List.filteri (fun j _ -> j <> i) sigma in
          List.iter2
            (fun phi got ->
              if got <> Result.get_ok (WU.implies ~sigma:rest phi) then
                Alcotest.failf "position %d, %s: masked and fresh disagree" i
                  (Constr.to_string phi))
            (member :: goals) (List.nth masked i))
        sigma;
      List.iter2
        (fun phi got ->
          check_bool (Constr.to_string phi)
            (Result.get_ok (WU.implies ~sigma phi))
            got)
        goals whole)

(* Word_untyped through its memo, against post* on a fresh system. *)
let test_word_memo_vs_post () =
  let rng = Random.State.make [| 14; 2 |] in
  for _ = 1 to 100 do
    let sigma =
      List.map
        (fun (r : PR.rule) -> Constr.word ~lhs:r.lhs ~rhs:r.rhs)
        (random_rules rng)
    in
    for _ = 1 to 5 do
      let phi =
        Constr.word
          ~lhs:(random_path rng goal_labels 4)
          ~rhs:(random_path rng goal_labels 4)
      in
      match (WU.implies ~sigma phi, WU.implies_via_post ~sigma phi) with
      | Ok a, Ok b when a = b -> ()
      | _ ->
          Alcotest.failf "%s |- %s: memo and post* disagree"
            (print_sigma sigma) (Constr.to_string phi)
    done
  done

(* --- typed-M route ------------------------------------------------------ *)

let schemas () =
  let rng = Random.State.make [| 14; 3 |] in
  Mschema.bib_m
  :: List.init 3 (fun k ->
         Mschema.random_m ~rng ~classes:(3 + k) ~fields:3 ~atoms:2)

(* A word constraint between two paths of different sorts: Sigma with
   it is unsatisfiable over U(Delta), so every goal is vacuous. *)
let clash rng schema =
  let paths = Array.of_list (SG.paths_up_to schema 2) in
  let pick () = paths.(Random.State.int rng (Array.length paths)) in
  let rec go () =
    let u = pick () and v = pick () in
    if SG.type_of_path schema u <> SG.type_of_path schema v then
      Constr.word ~lhs:u ~rhs:v
    else go ()
  in
  go ()

type kind = Implied | Not_implied | Vacuous

let checked_kind schema ~sigma ~phi = function
  | Error e -> Alcotest.failf "%s: %s" (Constr.to_string phi) e
  | Ok (TM.Implied d) ->
      if not (Core.Axioms.proves ~sigma ~goal:phi d) then
        Alcotest.failf "%s: certificate fails Axioms.check"
          (Constr.to_string phi);
      Implied
  | Ok (TM.Not_implied t) ->
      if Typecheck.validate schema t <> Ok () then
        Alcotest.failf "%s: countermodel not in U_f(Delta)" (Constr.to_string phi);
      let g = t.Typecheck.graph in
      if not (Check.holds_all g sigma) then
        Alcotest.failf "%s: countermodel violates Sigma" (Constr.to_string phi);
      if Check.holds g phi then
        Alcotest.failf "%s: countermodel satisfies phi" (Constr.to_string phi);
      Not_implied
  | Ok (TM.Vacuous _) -> Vacuous

let test_typed_memo_vs_cold () =
  let rng = Random.State.make [| 14; 4 |] in
  let counts = Array.make 3 0 in
  List.iter
    (fun schema ->
      for round = 1 to 12 do
        let sigma =
          TM.random_constraints ~rng ~schema ~count:(Random.State.int rng 7)
            ~max_len:3
        in
        let sigma = if round mod 4 = 0 then clash rng schema :: sigma else sigma in
        let goals =
          (* goals on Sigma's own paths as well as fresh ones *)
          List.map
            (fun c -> Constr.word ~lhs:(Constr.prefix c) ~rhs:(Constr.prefix c))
            sigma
          @ TM.random_constraints ~rng ~schema ~count:12 ~max_len:4
        in
        List.iter
          (fun phi ->
            let memo = checked_kind schema ~sigma ~phi (TM.decide schema ~sigma ~phi) in
            let cold =
              checked_kind schema ~sigma ~phi
                (TM.decide_in (TM.context schema ~sigma) ~phi)
            in
            if memo <> cold then
              Alcotest.failf "%s |- %s: memoised and cold decide disagree"
                (print_sigma sigma) (Constr.to_string phi);
            let i = match memo with Implied -> 0 | Not_implied -> 1 | Vacuous -> 2 in
            counts.(i) <- counts.(i) + 1)
          goals
      done)
    (schemas ());
  Array.iteri
    (fun i n -> check_bool (Printf.sprintf "outcome %d drawn" i) true (n > 20))
    counts

(* --- the memo ------------------------------------------------------------ *)

let word_goals = List.map (fun (l, r) -> c_word l r)
    [ ("a", "c"); ("a.a", "c.a"); ("b", "a"); ("d.a", "d.c"); ("eps", "eps");
      ("a.b", "c.b"); ("c", "a") ]

let sigma1 () = [ c_word "a" "b"; c_word "b" "c" ]
let sigma2 () = [ c_word "eps" "a"; c_word "a.a" "b" ]

let cold sigma phi =
  Result.get_ok (WU.implies_in (Result.get_ok (WU.context ~sigma)) phi)

let test_memo_alternation () =
  let s1 = sigma1 () and s2 = sigma2 () in
  for _ = 1 to 3 do
    List.iter
      (fun phi ->
        List.iter
          (fun sigma ->
            check_bool (Constr.to_string phi) (cold sigma phi)
              (Result.get_ok (WU.implies ~sigma phi)))
          [ s1; s2 ])
      word_goals
  done

let systems_compiled = Obs.Counter.make "word.systems_compiled"

(* Fresh lists, freshly parsed constraints: equal keys still hit. *)
let test_memo_equal_keys () =
  let parse src = Result.get_ok (Pathlang.Parser.constraints_of_string src) in
  let src = "x.y -> z\nz -> y.x\n" in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let before = Obs.Counter.value systems_compiled in
      List.iter
        (fun phi ->
          let sigma = parse src in
          let expected = cold sigma phi in
          check_bool (Constr.to_string phi) expected
            (Result.get_ok (WU.implies ~sigma:(parse src) phi)))
        (c_word "x.y.x" "y.x.x" :: word_goals);
      (* one build for the memo, plus one per explicit cold context *)
      check_int "memo built once" (1 + 8)
        (Obs.Counter.value systems_compiled - before);
      let schema = Mschema.bib_m in
      let sigma () = [ c_bwd "book" "author" "wrote"; c_word "book.ref" "book" ] in
      let phi = c_word "book.ref.author.wrote" "book" in
      match TM.decide schema ~sigma:(sigma ()) ~phi, TM.decide schema ~sigma:(sigma ()) ~phi with
      | Ok (TM.Implied _), Ok (TM.Implied _) -> ()
      | _ -> Alcotest.fail "typed memo on an equal Sigma")

let test_counter () =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let sigma = [ c_word "p" "q.q"; c_word "q.q.q" "p.r"; c_word "eps" "r" ] in
      let rng = Random.State.make [| 14; 5 |] in
      let labels = Array.of_list (List.map Label.make [ "p"; "q"; "r"; "s" ]) in
      let before = Obs.Counter.value systems_compiled in
      for _ = 1 to 100 do
        let phi =
          Constr.word ~lhs:(random_path rng labels 4) ~rhs:(random_path rng labels 4)
        in
        ignore (WU.implies ~sigma phi)
      done;
      check_int "one context for 100 goals" 1
        (Obs.Counter.value systems_compiled - before))

(* Each domain keeps its own entry: a pool alternating two Sigma over
   many tasks must answer exactly as the cold sequential run. *)
let test_memo_domains () =
  let s1 = sigma1 () and s2 = sigma2 () in
  let schema = Mschema.bib_m in
  let t1 = [ c_word "book.ref" "book" ] and t2 = [ c_bwd "book" "author" "wrote" ] in
  let typed_goals =
    Array.of_list
      (TM.random_constraints ~rng:(Random.State.make [| 14; 6 |]) ~schema
         ~count:16 ~max_len:4)
  in
  let goals = Array.of_list word_goals in
  (* task i: a word goal and a typed goal, each Sigma alternating *)
  let case i =
    ( (if i mod 2 = 0 then s1 else s2),
      goals.(i mod Array.length goals),
      (if i mod 3 = 0 then t1 else t2),
      typed_goals.(i mod Array.length typed_goals) )
  in
  let memoised i =
    let sigma, phi, typed_sigma, psi = case i in
    ( Result.get_ok (WU.implies ~sigma phi),
      checked_kind schema ~sigma:typed_sigma ~phi:psi
        (TM.decide schema ~sigma:typed_sigma ~phi:psi) )
  in
  let expected =
    Array.init 256 (fun i ->
        let sigma, phi, typed_sigma, psi = case i in
        ( cold sigma phi,
          checked_kind schema ~sigma:typed_sigma ~phi:psi
            (TM.decide_in (TM.context schema ~sigma:typed_sigma) ~phi:psi) ))
  in
  let pool = Par.create ~jobs:4 () in
  let got =
    Fun.protect ~finally:(fun () -> Par.shutdown pool) (fun () ->
        Par.run pool ~tasks:256 memoised)
  in
  check_bool "pool answers match cold sequential answers" true (got = expected)

let () =
  Alcotest.run "contexts"
    [
      ( "word",
        [
          Alcotest.test_case "context vs naive pre* and post*" `Quick
            test_word_engines;
          Alcotest.test_case "eps rules, empty and foreign goals" `Quick
            test_word_hand_cases;
          Alcotest.test_case "memoised implies vs post*" `Quick
            test_word_memo_vs_post;
          Alcotest.test_case "masked variants vs naive pre* and post*" `Quick
            test_word_masked;
          Alcotest.test_case "subsets across a block boundary" `Quick
            test_word_blocks;
          Alcotest.test_case "heap flat across contexts" `Quick
            test_word_heap_flat;
        ] );
      ( "typed",
        [
          Alcotest.test_case "memoised vs cold decide, checked" `Quick
            test_typed_memo_vs_cold;
        ] );
      ( "memo",
        [
          Alcotest.test_case "alternating Sigma" `Quick test_memo_alternation;
          Alcotest.test_case "equal but distinct Sigma" `Quick
            test_memo_equal_keys;
          Alcotest.test_case "systems_compiled per Sigma" `Quick test_counter;
          Alcotest.test_case "4 domains" `Quick test_memo_domains;
        ] );
    ]
