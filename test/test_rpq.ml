open Testutil
module Path = Pathlang.Path
module Label = Pathlang.Label
module Graph = Sgraph.Graph
module Regex = Rpq.Regex
module Rpq_ = Rpq.Eval
module NS = Graph.Node_set

(* The library's automaton of a plain term. *)
let glushkov r = Rpq.Glushkov.make (Regex.to_ast r)

let parse_result s =
  Result.map Rpq.Parser.regex_of (Rpq.Parser.parse s)

let parse s =
  match parse_result s with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %S: %s" s (Rpq.Parser.error_to_string e)

(* --- parsing / printing ---------------------------------------------------- *)

let test_parse () =
  let roundtrip s = Regex.to_string (parse s) in
  check_string "concat" "a.b" (roundtrip "a.b");
  check_string "alt" "a|b" (roundtrip "a|b");
  check_string "star" "a*" (roundtrip "a*");
  check_string "grouping" "(a|b)*.c" (roundtrip "(a|b)*.c");
  check_string "eps" "eps" (roundtrip "eps");
  check_bool "plus desugars" true
    (Regex.to_string (parse "a+") = "a.a*");
  check_bool "opt desugars" true
    (match parse "a?" with Regex.Alt (Regex.Eps, _) -> true | _ -> false);
  check_bool "unbalanced rejected" true (Result.is_error (parse_result "(a"));
  check_bool "trailing rejected" true (Result.is_error (parse_result "a)b"))

let prop_parse_roundtrip =
  let rec gen_regex depth =
    QCheck.Gen.(
      if depth = 0 then
        oneof [ return Regex.Eps; map Regex.letter gen_label ]
      else
        frequency
          [
            (2, map Regex.letter gen_label);
            (1, return Regex.Eps);
            (2, map2 Regex.concat (gen_regex (depth - 1)) (gen_regex (depth - 1)));
            (2, map2 Regex.alt (gen_regex (depth - 1)) (gen_regex (depth - 1)));
            (1, map Regex.star (gen_regex (depth - 1)));
          ])
  in
  q ~count:200 "parse . to_string = id (up to language)"
    (QCheck.make (gen_regex 3) ~print:Regex.to_string)
    (fun r ->
      match parse_result (Regex.to_string r) with
      | Ok r' -> Regex.equivalent r r'
      | Error _ -> false)

(* --- exact round-trip and the span-carrying parser (satellite) ------------- *)

(* Terms built through the smart constructors, including left-nested
   concats/alts — the shapes that exposed the printer's precedence bug
   (Concat (Concat (a, b), c) used to print as "a.b.c", which
   re-parses right-associated). *)
let gen_regex_smart depth0 =
  let rec gen depth =
    QCheck.Gen.(
      if depth = 0 then
        oneof [ return Regex.Eps; map Regex.letter gen_label ]
      else
        frequency
          [
            (2, map Regex.letter gen_label);
            (1, return Regex.Eps);
            (3, map2 Regex.concat (gen (depth - 1)) (gen (depth - 1)));
            (3, map2 Regex.alt (gen (depth - 1)) (gen (depth - 1)));
            (2, map Regex.star (gen (depth - 1)));
            (1, map Regex.plus (gen (depth - 1)));
            (1, map Regex.opt (gen (depth - 1)));
          ])
  in
  gen depth0

let prop_exact_roundtrip =
  q ~count:500 "parse (to_string r) = r structurally"
    (QCheck.make (gen_regex_smart 4) ~print:Regex.to_string)
    (fun r -> parse_result (Regex.to_string r) = Ok r)

let test_print_precedence () =
  let l n = Regex.letter (Label.make n) in
  let a = l "a" and b = l "b" and c = l "c" in
  (* raw constructors: the smart ones never left-nest on their own *)
  let left_cat = Regex.Concat (Regex.Concat (a, b), c) in
  check_string "left-nested concat parenthesizes" "(a.b).c"
    (Regex.to_string left_cat);
  check_bool "and round-trips" true
    (parse_result (Regex.to_string left_cat) = Ok left_cat);
  let left_alt = Regex.Alt (Regex.Alt (a, b), c) in
  check_string "left-nested alt parenthesizes" "(a|b)|c"
    (Regex.to_string left_alt);
  check_bool "and round-trips" true
    (parse_result (Regex.to_string left_alt) = Ok left_alt);
  (* right-nested stays clean *)
  check_string "right-nested concat" "a.b.c"
    (Regex.to_string (Regex.Concat (a, Regex.Concat (b, c))))

let test_parser_spans () =
  match Rpq.Parser.parse "book.(ref)*.author" with
  | Error e -> Alcotest.failf "parse: %s" (Rpq.Parser.error_to_string e)
  | Ok ast ->
      let spans =
        List.map
          (fun (k, sp) ->
            ( Label.to_string k,
              sp.Pathlang.Span.start_col,
              sp.Pathlang.Span.end_col ))
          (Rpq.Parser.letters ast)
      in
      Alcotest.(check (list (triple string int int)))
        "token spans are 1-based and end-exclusive"
        [ ("book", 1, 5); ("ref", 7, 10); ("author", 13, 19) ]
        spans

(* --- matching --------------------------------------------------------------- *)

let test_matches () =
  let r = parse "book.(ref)*.author" in
  check_bool "no ref" true (Regex.matches r (path "book.author"));
  check_bool "two refs" true (Regex.matches r (path "book.ref.ref.author"));
  check_bool "missing author" false (Regex.matches r (path "book.ref"));
  check_bool "eps regex" true (Regex.matches Regex.eps Path.empty);
  check_bool "alt" true (Regex.matches (parse "a|b.c") (path "b.c"))

let prop_of_path_matches =
  q ~count:100 "of_path matches exactly its path" arb_path (fun p ->
      Regex.matches (Regex.of_path p) p)

(* --- language inclusion --------------------------------------------------------- *)

let test_inclusion () =
  check_bool "a in a|b" true (Regex.included (parse "a") (parse "a|b"));
  check_bool "a.a* in a*" true (Regex.included (parse "a.a*") (parse "a*"));
  check_bool "a* not in a.a*" false (Regex.included (parse "a*") (parse "a.a*"));
  check_bool "equivalent stars" true
    (Regex.equivalent (parse "(a|b)*") (parse "(a*.b*)*"));
  check_bool "not equivalent" false (Regex.equivalent (parse "a.b") (parse "b.a"))

let prop_inclusion_sound_on_words =
  q ~count:100 "included implies membership transfer"
    QCheck.(pair arb_path arb_path)
    (fun (p1, p2) ->
      let r1 = Regex.of_path p1 in
      let r2 = Regex.alt (Regex.of_path p1) (Regex.of_path p2) in
      Regex.included r1 r2 && Regex.matches r2 p1)

let test_minimize () =
  let to_min r =
    let a, start = Rpq.Glushkov.to_nfa (glushkov (parse r)) in
    Automata.Dfa.minimize
      (Automata.Dfa.of_nfa ~alphabet:labels a ~start)
  in
  (* (a|b)* needs exactly one state (plus none dead over this alphabet
     minus c... c leads to a dead state, so two) *)
  let d = to_min "(a|b)*" in
  check_int "(a|b)* minimal size" 2 (Automata.Dfa.size d);
  (* equivalent regexes minimize to the same number of states *)
  check_int "canonical size" (Automata.Dfa.size (to_min "(a*.b*)*"))
    (Automata.Dfa.size (to_min "(a|b)*"))

let prop_minimize_preserves_language =
  q ~count:100 "minimization preserves acceptance"
    QCheck.(pair arb_path arb_path)
    (fun (p1, p2) ->
      let r = Regex.alt (Regex.of_path p1) (Regex.star (Regex.of_path p2)) in
      let a, start = Rpq.Glushkov.to_nfa (glushkov r) in
      let d = Automata.Dfa.of_nfa ~alphabet:labels a ~start in
      let m = Automata.Dfa.minimize d in
      Automata.Dfa.size m <= Automata.Dfa.size d
      && List.for_all
           (fun w ->
             Automata.Dfa.accepts d (Path.to_labels w)
             = Automata.Dfa.accepts m (Path.to_labels w))
           [ p1; p2; Path.concat p1 p2; Path.concat p2 p2; Path.empty ])

let test_example_word () =
  (match Regex.example_word (parse "a.a.b|c") with
  | Some w -> check_bool "in language" true (Regex.matches (parse "a.a.b|c") w)
  | None -> Alcotest.fail "non-empty language");
  check_bool "eps language" true (Regex.example_word Regex.eps = Some Path.empty)

(* --- graph evaluation ------------------------------------------------------------- *)

let test_eval_figure1 () =
  let g = Xmlrep.Bib.figure1 () in
  (* all books reachable through arbitrarily many refs *)
  let books = Rpq_.eval g (parse "book.(ref)*") in
  let direct = Sgraph.Eval.eval g (path "book") in
  check_bool "superset of direct" true (NS.subset direct books);
  (* authors of any (possibly cited) book are persons *)
  let authors = Rpq_.eval g (parse "book.(ref)*.author") in
  let persons = Sgraph.Eval.eval g (path "person") in
  check_bool "authors are persons" true (NS.subset authors persons)

let test_eval_cycle () =
  let g = Graph.of_edges [ (0, "a", 1); (1, "a", 0); (1, "b", 2) ] in
  let r = parse "(a)*.b" in
  check_bool "odd a-count works" true (NS.mem 2 (Rpq_.eval g r));
  check_bool "star includes eps" true (NS.mem 0 (Rpq_.eval g (parse "(a)*")))

let prop_eval_plain_path_agrees =
  q ~count:100 "RPQ evaluation of a plain path equals Eval.eval"
    QCheck.(pair arb_graph arb_path)
    (fun (g, p) ->
      NS.equal (Rpq_.eval g (Regex.of_path p)) (Sgraph.Eval.eval g p))

let prop_eval_union_is_union =
  q ~count:100 "RPQ of an alternation is the union"
    QCheck.(triple arb_graph arb_path arb_path)
    (fun (g, p1, p2) ->
      NS.equal
        (Rpq_.eval g (Regex.alt (Regex.of_path p1) (Regex.of_path p2)))
        (NS.union (Sgraph.Eval.eval g p1) (Sgraph.Eval.eval g p2)))

(* The length of a shortest word of L(r) leading from [src] to [dst],
   by layered simulation of the oracle's Thompson automaton: layer n
   holds the (node, state) pairs reached after exactly n letters.  No
   BFS, no visited set. *)
let shortest_len g src r dst =
  let a, start = Rpq_oracle.thompson r in
  let module PS = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let hit = PS.exists (fun (v, q) -> v = dst && Automata.Nfa.is_final a q) in
  let bound = Graph.node_count g * Automata.Nfa.state_count a in
  let next layer =
    PS.fold
      (fun (v, q) acc ->
        List.fold_left
          (fun acc (k, w) ->
            Automata.Nfa.State_set.fold
              (fun q' acc -> PS.add (w, q') acc)
              (Automata.Nfa.reach a q [ k ])
              acc)
          acc (Graph.succ_all g v))
      layer PS.empty
  in
  let rec go n layer =
    if hit layer then Some n
    else if n >= bound || PS.is_empty layer then None
    else go (n + 1) (next layer)
  in
  go 0
    (Automata.Nfa.State_set.fold
       (fun q acc -> PS.add (src, q) acc)
       (Automata.Nfa.eps_closure a (Automata.Nfa.State_set.singleton start))
       PS.empty)

(* A witness is a member of L(r), connects the two nodes, and is a
   shortest such member. *)
let witness_ok g src r v w =
  Regex.matches r w
  && Sgraph.Eval.holds_between g src w v
  && shortest_len g src r v = Some (Path.length w)

let test_witness () =
  let g = Xmlrep.Bib.figure1 () in
  let r = parse "book.(ref)*.author" in
  let answers = Rpq_.eval g r in
  let ws = Rpq_.witnesses g (Graph.root g) r in
  check_bool "one witness per answer" true
    (List.map fst ws = NS.elements answers);
  List.iter
    (fun (v, w) ->
      check_bool "witness in language, connects, shortest" true
        (witness_ok g 0 r v w);
      check_bool "witness agrees with the single-target call" true
        (Rpq_.witness g 0 r v = Some w);
      check_bool "witness agrees with the oracle" true
        (Rpq_oracle.witness g 0 r v = Some w))
    ws;
  let g = Graph.of_edges [ (0, "a", 1); (1, "b", 2); (0, "c", 2) ] in
  let any = parse "(a|b|c)*" in
  (match Rpq_.witness g 0 any 2 with
  | Some p -> check_int "shortest" 1 (Path.length p)
  | None -> Alcotest.fail "no witness");
  check_bool "unreachable" true (Rpq_.witness g 2 any 1 = None);
  check_bool "self" true (Rpq_.witness g 1 any 1 = Some Path.empty);
  (* nodes 1 and 2 are both reached by [a]; the word through the later
     one is the least, so a search that expands pair by pair, even in
     ascending label order, would pick a.c.d *)
  let g =
    Graph.of_edges
      [ (0, "a", 1); (0, "a", 2); (1, "c", 3); (2, "b", 4); (3, "d", 5); (4, "d", 5) ]
  in
  let r = parse "(a|b|c|d)*" in
  check_bool "least of the shortest" true (Rpq_.witness g 0 r 5 = Some (path "a.b.d"));
  check_bool "as the oracle's" true (Rpq_oracle.witness g 0 r 5 = Some (path "a.b.d"))

let prop_witness_sound =
  q ~count:100 "witness paths really connect" arb_graph (fun g ->
      let any = parse "(a|b|c)*" in
      let ws = Rpq_.witnesses g 0 any in
      List.for_all
        (fun y ->
          match List.assoc_opt y ws with
          | Some w -> witness_ok g 0 any y w
          | None -> not (NS.mem y (Sgraph.Eval.reachable g 0)))
        (Graph.nodes g))

let prop_witnesses_match_oracle =
  q ~count:100 "witnesses are shortest and match the oracle's"
    QCheck.(pair arb_graph (QCheck.make (gen_regex_smart 3) ~print:Regex.to_string))
    (fun (g, r) ->
      let ws = Rpq_.witnesses g 0 r in
      List.map fst ws = NS.elements (Rpq_oracle.eval g r)
      && List.for_all
           (fun (v, w) ->
             witness_ok g 0 r v w && Rpq_oracle.witness g 0 r v = Some w)
           ws)

(* A word runs as a chain; compiled as a general automaton it must give
   the same answers, and both must agree with the FO semantics. *)
let prop_chain_is_general =
  q ~count:100 "a word as a Chain = the word compiled = FO"
    QCheck.(pair arb_graph arb_path)
    (fun (g, p) ->
      let chain = Sgraph.Eval.run g 0 (Sgraph.Eval.chain p) in
      let general =
        Sgraph.Eval.run g 0
          (Sgraph.Eval.Nfa (Rpq.Glushkov.automaton (glushkov (Regex.of_path p))))
      in
      let fo =
        List.filter
          (fun n ->
            Sgraph.Fo_eval.eval g
              [ ("y", n) ]
              (Pathlang.Fo.of_path p ~src:Pathlang.Fo.Root
                 ~dst:(Pathlang.Fo.Var "y")))
          (Graph.nodes g)
      in
      NS.equal chain general && NS.elements chain = fo)

(* The untyped evaluator honours its interrupt hook: this is what lets
   a signal stop pathctl query eval without --schema. *)
let test_eval_interrupt () =
  let g = Graph.of_edges [ (0, "a", 1); (1, "a", 0); (1, "b", 2) ] in
  let r = parse "(a)*.b" in
  Alcotest.check_raises "untyped eval trips" Rpq_.Interrupted (fun () ->
      ignore (Rpq_.eval ~interrupt:(fun () -> true) g r));
  Alcotest.check_raises "regular constraint check trips" Rpq_.Interrupted
    (fun () ->
      ignore
        (Rpq_.holds ~interrupt:(fun () -> true) g { Rpq_.lhs = r; rhs = r }));
  check_bool "a silent hook changes nothing" true
    (NS.equal (Rpq_.eval ~interrupt:(fun () -> false) g r) (Rpq_.eval g r))

(* --- the product over the graph's runs ------------------------------------ *)

(* An M schema over the generators' labels, so typed evaluation runs
   (and prunes) on random graphs too. *)
let abc_schema =
  match
    Schema.Schema_parser.of_string
      "kind M\n\
       class C = [ a: C; b: D ]\n\
       class D = [ c: C; b: D ]\n\
       db = [ a: C; c: D ]\n"
  with
  | Ok m -> m
  | Error e -> failwith ("abc schema: " ^ e)

let typecheck r =
  match Rpq.Parser.parse (Regex.to_string r) with
  | Ok ast -> Rpq.Typecheck.run abc_schema ast
  | Error e -> Alcotest.failf "query %s: %s" (Regex.to_string r) (Rpq.Parser.error_to_string e)

let fixed_queries = List.map parse [ "(a|b|c)*"; "a.b*"; "(a.b)*.c"; "c*.a|b"; "a?.c+" ]

(* Untyped and typed answers from the root and from the newest node,
   the typed ones under the graph's own node typing. *)
let answers rs g =
  let class_of = Rpq.Typecheck.type_graph abc_schema g in
  List.concat_map
    (fun v ->
      List.concat_map
        (fun r ->
          [
            NS.elements (Rpq_.eval_from g v r);
            NS.elements (Rpq_.eval_from_typed ~class_of (typecheck r) g v);
          ])
        rs)
    [ Graph.root g; Graph.node_count g - 1 ]

(* The same edges in a fresh graph, padded with the nodes no edge
   mentions. *)
let rebuilt g =
  let h = Graph.of_edges (List.map (fun (x, k, y) -> (x, Label.to_string k, y)) (Graph.edges g)) in
  while Graph.node_count h < Graph.node_count g do
    ignore (Graph.add_node h)
  done;
  h

type op = Add of int * Label.t * int | Remove of int | Node | Copy of op list

let gen_op =
  QCheck.Gen.(
    let simple =
      frequency
        [
          (4, map3 (fun x k y -> Add (x, k, y)) nat gen_label nat);
          (2, map (fun i -> Remove i) nat);
          (1, return Node);
        ]
    in
    frequency [ (6, simple); (1, map (fun ops -> Copy ops) (list_size (int_range 1 4) simple)) ])

let rec show_op = function
  | Add (x, k, y) -> Printf.sprintf "add %d %s %d" x (Label.to_string k) y
  | Remove i -> Printf.sprintf "remove #%d" i
  | Node -> "node"
  | Copy ops -> "copy [" ^ String.concat "; " (List.map show_op ops) ^ "]"

let apply g = function
  | Add (x, k, y) ->
      let n = Graph.node_count g in
      Graph.add_edge g (x mod n) k (y mod n)
  | Remove i -> (
      match Graph.edges g with
      | [] -> ()
      | es ->
          let x, k, y = List.nth es (i mod List.length es) in
          Graph.remove_edge g x k y)
  | Node -> ignore (Graph.add_node g)
  | Copy _ -> ()

(* Every evaluation reads the graph's runs; after each mutation it must
   still answer as a graph built from scratch does, and mutating a copy
   must not reach the original's runs. *)
let prop_runs_after_mutation =
  q ~count:150 "runs answers = rebuilt graph's"
    QCheck.(
      triple arb_graph
        (QCheck.make (gen_regex_smart 3) ~print:Regex.to_string)
        (QCheck.make ~print:(QCheck.Print.list show_op) (QCheck.Gen.list_size (QCheck.Gen.int_bound 8) gen_op)))
    (fun (g, r, ops) ->
      let rs = r :: fixed_queries in
      let agrees g = answers rs g = answers rs (rebuilt g) in
      agrees g
      && List.for_all
           (fun op ->
             match op with
             | Copy ops ->
                 let before = answers rs g and h = Graph.copy g in
                 agrees h
                 && List.for_all (fun op -> apply h op; agrees h) ops
                 && answers rs g = before
             | op ->
                 apply g op;
                 agrees g)
           ops)

(* A graph that does not conform to [abc_schema]: nodes 1 and 2 are
   reached under both C and D, so they stay untyped.  The one match of
   [c*.a|b] is 0 -b-> 2, but [db] has no [b] edge, so the position of
   that [b] is never reachable over Paths(Delta): the typed answers are
   {} under each of the 720 orders the edges can be added in, while
   the untyped answers are {2}. *)
let test_typing_order_free () =
  let edges = [ (0, "b", 2); (0, "c", 2); (0, "c", 1); (1, "c", 3); (1, "c", 2); (2, "c", 1) ] in
  let r = parse "c*.a|b" in
  let tc = typecheck r in
  let rec perms = function
    | [] -> [ [] ]
    | l -> List.concat_map (fun x -> List.map (List.cons x) (perms (List.filter (( <> ) x) l))) l
  in
  let orders = perms edges in
  check_int "every order" 720 (List.length orders);
  List.iter
    (fun es ->
      let g = Graph.of_edges es in
      let class_of = Rpq.Typecheck.type_graph abc_schema g in
      check_bool "untyped {2}" true (NS.elements (Rpq_.eval g r) = [ 2 ]);
      check_bool "typed {}" true (NS.elements (Rpq_.eval_typed ~class_of tc g) = []);
      check_bool "1 and 2 untyped, 3 is C" true
        (List.map (Rpq.Typecheck.sort_of class_of) [ 1; 2; 3 ]
        = [ None; None; Some (Schema.Mtype.Class (Schema.Mtype.cname "C")) ]))
    orders

(* On graphs that need not conform to [abc_schema], the typed answers
   lie between the matches witnessed inside Paths(Delta) and the
   untyped answers: every match the oracle's graph x Thompson x schema
   search finds is a typed answer (the node typing only coarsens the
   sorts), and every typed answer is an untyped one. *)
let prop_typed_sandwich =
  q ~count:200 "oracle in Paths(Delta) <= typed <= untyped"
    QCheck.(pair arb_graph (QCheck.make (gen_regex_smart 3) ~print:Regex.to_string))
    (fun (g, r) ->
      let class_of = Rpq.Typecheck.type_graph abc_schema g in
      let typed = Rpq_.eval_typed ~class_of (typecheck r) g in
      NS.subset (Rpq_oracle.eval_in_schema abc_schema g r) typed
      && NS.subset typed (Rpq_.eval g r))

(* Marking a pair before admitting it: [admit] sees each pair at most
   once, even one it rejects, and the interrupt hook is polled once per
   admitted pair. *)
let prop_admit_once =
  q ~count:150 "admit runs at most once per pair"
    QCheck.(
      triple arb_graph (QCheck.make (gen_regex_smart 3) ~print:Regex.to_string) small_nat)
    (fun (g, r, salt) ->
      let a = Rpq.Glushkov.automaton (glushkov r) in
      let asked = Hashtbl.create 16 and admitted = ref 0 and polls = ref 0 in
      let admit v q =
        Hashtbl.replace asked (v, q) (1 + Option.value ~default:0 (Hashtbl.find_opt asked (v, q)));
        let ok = Hashtbl.hash (v, q, salt) mod 4 <> 0 in
        if ok then incr admitted;
        ok
      in
      let interrupt () = incr polls; false in
      ignore (Sgraph.Eval.run ~admit ~interrupt g 0 (Sgraph.Eval.Nfa a));
      Hashtbl.fold (fun _ n ok -> ok && n = 1) asked true && !polls = !admitted)

(* One graph evaluated from four domains at once: every domain answers
   as a sequential run on a copy does. *)
let test_shared_graph_domains () =
  let g =
    Sgraph.Gen.random ~rng:(Random.State.make [| 19 |]) ~nodes:300 ~labels
      ~edge_prob:0.003
  in
  let rs =
    List.map parse
      [ "(a|b|c)*"; "a.(b|c)*"; "(a.b)*.c"; "c*.a.b*"; "(a|b)+.c"; "b.(a.c)*"; "a*"; "c.(b|a.a)*" ]
  in
  let run g r =
    let class_of = Rpq.Typecheck.type_graph abc_schema g in
    ( NS.elements (Rpq_.eval g r),
      NS.elements (Rpq_.eval_typed ~class_of (typecheck r) g),
      Rpq_.witnesses g 0 r )
  in
  let sequential = List.map (run (Graph.copy g)) rs in
  let tasks = 4 * List.length rs in
  let pool = Par.create ~jobs:4 () in
  let parallel =
    Fun.protect ~finally:(fun () -> Par.shutdown pool) (fun () ->
        Par.run pool ~tasks (fun i -> run g (List.nth rs (i mod List.length rs))))
  in
  Array.iteri
    (fun i got ->
      let want = List.nth sequential (i mod List.length rs) in
      check_bool (Printf.sprintf "task %d answers as the sequential run" i) true (got = want))
    parallel

(* --- regular word constraints -------------------------------------------------------- *)

let test_regular_constraints () =
  let g = Xmlrep.Bib.figure1 () in
  (* the AV-style constraint: authors of transitively cited books are
     persons *)
  let c = { Rpq_.lhs = parse "book.(ref)*.author"; rhs = parse "person" } in
  check_bool "holds on figure 1" true (Rpq_.holds g c);
  check_bool "no violations" true (Rpq_.violations g c = []);
  let bad = { Rpq_.lhs = parse "person"; rhs = parse "book" } in
  check_bool "violated" false (Rpq_.holds g bad);
  check_bool "violations reported" true (Rpq_.violations g bad <> [])

let test_prune_union () =
  let q' =
    Rpq_.prune_union [ parse "a.b"; parse "a.(b|c)"; parse "a.c" ]
  in
  check_int "one survivor" 1 (List.length q');
  check_bool "the general one" true
    (Regex.equivalent (List.hd q') (parse "a.(b|c)"))

let prop_prune_preserves_answers =
  q ~count:60 "syntactic pruning preserves RPQ answers"
    QCheck.(pair arb_graph (list_of_size (QCheck.Gen.int_range 1 3) arb_path))
    (fun (g, paths) ->
      let rs = List.map Regex.of_path paths in
      let pruned = Rpq_.prune_union rs in
      let eval_union rs =
        List.fold_left (fun acc r -> NS.union acc (Rpq_.eval g r)) NS.empty rs
      in
      NS.equal (eval_union rs) (eval_union pruned))

let () =
  Alcotest.run "rpq"
    [
      ( "regex",
        [
          Alcotest.test_case "parse" `Quick test_parse;
          prop_parse_roundtrip;
          prop_exact_roundtrip;
          Alcotest.test_case "printer precedence" `Quick test_print_precedence;
          Alcotest.test_case "token spans" `Quick test_parser_spans;
          Alcotest.test_case "matches" `Quick test_matches;
          prop_of_path_matches;
        ] );
      ( "language",
        [
          Alcotest.test_case "inclusion" `Quick test_inclusion;
          prop_inclusion_sound_on_words;
          Alcotest.test_case "minimize" `Quick test_minimize;
          prop_minimize_preserves_language;
          Alcotest.test_case "example word" `Quick test_example_word;
        ] );
      ( "eval",
        [
          Alcotest.test_case "figure 1" `Quick test_eval_figure1;
          Alcotest.test_case "cycles" `Quick test_eval_cycle;
          prop_eval_plain_path_agrees;
          prop_eval_union_is_union;
          Alcotest.test_case "witness" `Quick test_witness;
          prop_witness_sound;
          prop_witnesses_match_oracle;
          prop_chain_is_general;
          Alcotest.test_case "interrupt" `Quick test_eval_interrupt;
        ] );
      ( "product",
        [
          prop_runs_after_mutation;
          prop_admit_once;
          Alcotest.test_case "typing ignores edge order" `Quick test_typing_order_free;
          prop_typed_sandwich;
          Alcotest.test_case "shared graph, four domains" `Quick
            test_shared_graph_domains;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "regular word constraints" `Quick
            test_regular_constraints;
          Alcotest.test_case "prune union" `Quick test_prune_union;
          prop_prune_preserves_answers;
        ] );
    ]
