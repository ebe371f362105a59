(* Tests of the schema-aware type-flow engine (lib/analysis/typeflow)
   and the analyzer infrastructure that ships with it: PC600/PC601
   token-level spans golden-tested in all three renderers, PC601
   cross-checked against the Table 1 classifier, the walk's flow
   cross-checked against the product with the schema automaton,
   --explain output, and
   the content-hash result cache (hits observable through counters). *)

module Diagnostic = Analysis.Diagnostic
module Classify = Analysis.Classify
module Lint = Analysis.Lint
module Typeflow = Analysis.Typeflow
module Cache = Analysis.Cache
module Parser = Pathlang.Parser
module Path = Pathlang.Path
module Label = Pathlang.Label
module Span = Pathlang.Span
module Schema_graph = Schema.Schema_graph
module Mschema = Schema.Mschema
module Mtype = Schema.Mtype
module Nfa = Automata.Nfa

let build_root = Filename.dirname (Filename.dirname Sys.executable_name)
let pathctl = Filename.concat build_root (Filename.concat "bin" "pathctl.exe")
let fixture f = Filename.concat build_root (Filename.concat "examples/data/lint" f)

let run args =
  let out_file = Filename.temp_file "pathctl_out" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote pathctl) args
      (Filename.quote out_file)
  in
  let code = Sys.command cmd in
  let out = In_channel.with_open_text out_file In_channel.input_all in
  Sys.remove out_file;
  (code, out)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_contains out sub =
  Alcotest.(check bool) (Printf.sprintf "output contains %S" sub) true
    (contains out sub)

let counter name = Obs.Counter.value (Obs.Counter.make name)

let with_metrics f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let mschema_of_string s =
  match Schema.Schema_parser.of_string s with
  | Ok m -> m
  | Error e -> Alcotest.failf "schema fixture does not parse: %s" e

let m_schema =
  "kind M\n\
   class Person = [ name: string; wrote: Book ]\n\
   class Book = [ title: string; year: int; ref: Book; author: Person ]\n\
   db = [ person: Person; book: Book ]\n"

let mplus_schema =
  "kind M+\n\
   class Person = [ name: string; wrote: {Book} ]\n\
   class Book = [ title: string; year: int; ref: Book; author: Person ]\n\
   db = [ person: Person; book: Book ]\n"

(* --- PC600: token-level spans in all three renderers ----------------------- *)

(* deadpath.constraints line 7 is "book.ref.publisher -> person":
   "publisher" occupies columns 10-18, so the span is 7:10 with
   end-exclusive column 19. *)

let test_pc600_text_golden () =
  let p = fixture "deadpath.constraints" in
  let s = fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "lint -s %s --schema %s" (Filename.quote p)
         (Filename.quote s))
  in
  Alcotest.(check int) "exit 0 (warnings only)" 0 code;
  let expected =
    p
    ^ ": info[PC100] classified: fragment P_w under schema of kind M: \
       decidable (Theorem 4.2); applicable procedure: cubic certified \
       procedure (pathctl implies-typed)\n"
    ^ p
    ^ ":7:1: warning[PC201] walks the path book.ref.publisher, which is \
       outside Paths(Delta): the schema's type graph admits no such walk \
       (the paper's standing assumption on constraints)\n"
    ^ p
    ^ ":7:1: warning[PC501] label publisher does not occur in the schema's \
       type graph\n"
    ^ p
    ^ ":7:10: warning[PC600] dead path: sort Book has no edge labeled \
       publisher, so the prefix book.ref.publisher types to the empty set \
       and the walk book.ref.publisher leaves Paths(Delta) at this token\n"
    ^ "0 error(s), 3 warning(s), 1 info, 0 hint(s)\n"
  in
  Alcotest.(check string) "golden text report" expected out

let test_pc600_json_span () =
  let p = fixture "deadpath.constraints" in
  let s = fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "lint -s %s --schema %s --format json"
         (Filename.quote p) (Filename.quote s))
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out
    "{\"code\":\"PC600\",\"severity\":\"warning\",\"file\":";
  (* the span names the offending token, not the whole constraint *)
  check_contains out "\"line\":7,\"startColumn\":10,\"endColumn\":19";
  check_contains out "leaves Paths(Delta) at this token"

let test_pc600_sarif_span () =
  let p = fixture "deadpath.constraints" in
  let s = fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "lint -s %s --schema %s --format sarif"
         (Filename.quote p) (Filename.quote s))
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out "\"ruleId\":\"PC600\"";
  check_contains out "\"startLine\":7";
  check_contains out "\"startColumn\":10";
  check_contains out "\"endColumn\":19";
  (* the PC6xx family is declared in the SARIF rules table *)
  List.iter
    (fun c -> check_contains out (Printf.sprintf "\"id\":%S" c))
    [ "PC600"; "PC601"; "PC602" ]

(* --- PC601: the M+ trigger, localized and cross-checked -------------------- *)

let test_pc601_span_and_classifier_agreement () =
  let p = fixture "deadpath.constraints" in
  (* line 8 is "person.wrote.title -> book.title": "wrote" occupies
     columns 8-12 (end-exclusive 13), and under mplus.schema it is the
     step that reaches the set type {Book} *)
  let code, out =
    run
      (Printf.sprintf "lint -s %s --schema %s --format json"
         (Filename.quote p)
         (Filename.quote (fixture "mplus.schema")))
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out "\"code\":\"PC601\"";
  check_contains out "\"line\":8,\"startColumn\":8,\"endColumn\":13";
  check_contains out "reaches the set type {Book}";
  check_contains out "(Theorem 5.2)";
  (* under the kind-M schema the very same file has no PC601 *)
  let _, out_m =
    run
      (Printf.sprintf "lint -s %s --schema %s --format json"
         (Filename.quote p)
         (Filename.quote (fixture "lint.schema")))
  in
  Alcotest.(check bool) "no PC601 under kind M" false
    (contains out_m "PC601");
  (* cross-check against the Table 1 classifier: PC601 fires exactly
     when the classifier puts the instance in the undecidable M+ cell *)
  let sigma =
    match
      Parser.constraints_of_string
        (In_channel.with_open_text (fixture "deadpath.constraints")
           In_channel.input_all)
    with
    | Ok cs -> cs
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let cell_mplus = Classify.cell_of ~schema:(mschema_of_string mplus_schema) sigma in
  let cell_m = Classify.cell_of ~schema:(mschema_of_string m_schema) sigma in
  Alcotest.(check bool) "classifier: M+ cell undecidable" false
    cell_mplus.Classify.decidable;
  Alcotest.(check bool) "classifier: M cell decidable" true
    cell_m.Classify.decidable

(* --- the flow lattice agrees with the schema automaton ---------------------- *)

(* The oracle is the reachable product of the walk's chain automaton
   with Schema_graph.automaton, projected onto chain states: state i
   gets every sort some member of Paths(Delta) reaches by the walk's
   prefix of length i. *)
let product_projection schema p =
  let labels = Path.to_labels p in
  let n = List.length labels in
  let chain = Nfa.create () in
  Nfa.ensure_states chain (n + 1);
  List.iteri (fun i k -> Nfa.add_trans chain i k (i + 1)) labels;
  Nfa.set_final chain n;
  let snfa, ssorts, sstart = Schema_graph.automaton schema in
  let _, pairs = Oracle.Nfa_product.product chain snfa ~start:(0, sstart) in
  let at = Array.make (n + 1) [] in
  Array.iter (fun (q, s) -> at.(q) <- ssorts.(s) :: at.(q)) pairs;
  (at, Array.length pairs)

let check_flow schema p =
  let name = Path.to_string p in
  let before = counter "typeflow.product.states" in
  let flow = Typeflow.of_path schema p in
  let explored = counter "typeflow.product.states" - before in
  let at, reachable = product_projection schema p in
  Alcotest.(check bool)
    (Printf.sprintf "flow(%s) alive iff in Paths(Delta)" name)
    (Schema_graph.in_paths schema p)
    (flow.Typeflow.dies_at = None);
  (* steps carry one entry per prefix, epsilon included *)
  Alcotest.(check int)
    (Printf.sprintf "steps of %s" name)
    (Path.length p + 1)
    (List.length flow.Typeflow.steps);
  List.iteri
    (fun i st ->
      let expected =
        match at.(i) with
        | [] -> None
        | [ tau ] -> Some tau
        | _ -> Alcotest.failf "product types prefix %d of %s twice" i name
      in
      Alcotest.(check bool)
        (Printf.sprintf "sort of prefix %d of %s is the projection" i name)
        true
        (Option.equal Mtype.equal expected st.Typeflow.sort))
    flow.Typeflow.steps;
  let live =
    List.length
      (List.filter (fun st -> st.Typeflow.sort <> None) flow.Typeflow.steps)
  in
  Alcotest.(check int)
    (Printf.sprintf "live steps of %s are the reachable pairs" name)
    reachable live;
  Alcotest.(check int)
    (Printf.sprintf "counter of %s counts the reachable pairs" name)
    reachable explored

(* random label sequences over the schema's labels and one foreign
   label, grown from a live path so that some walks stay alive and
   some die *)
let random_walks rng schema count =
  let alphabet =
    Array.of_list
      (Label.make "foreign"
      :: Label.Set.elements (Schema_graph.labels schema))
  in
  let live = Array.of_list (Schema_graph.paths_up_to schema 3) in
  List.init count (fun _ ->
      let base = live.(Random.State.int rng (Array.length live)) in
      let extra =
        List.init (Random.State.int rng 4) (fun _ ->
            alphabet.(Random.State.int rng (Array.length alphabet)))
      in
      Path.concat base (Path.of_labels extra))

let test_flow_agrees_with_product () =
  with_metrics @@ fun () ->
  let schema = mschema_of_string m_schema in
  let labels =
    List.map Label.make
      [ "person"; "book"; "wrote"; "title"; "author"; "ref"; "publisher" ]
  in
  let live = Schema_graph.paths_up_to schema 3 in
  Alcotest.(check bool) "some live paths" true (List.length live > 5);
  (* every schema path, and every one-label extension of it (live or
     dead) *)
  List.iter
    (fun p ->
      check_flow schema p;
      List.iter (fun l -> check_flow schema (Path.snoc p l)) labels)
    live;
  (* random walks over the shipped, the bibliography and random schemas *)
  let rng = Random.State.make [| 21 |] in
  let schemas =
    [ schema; mschema_of_string mplus_schema; Mschema.bib_m ]
    @ List.init 50 (fun _ ->
          Mschema.random_m ~rng
            ~classes:(1 + Random.State.int rng 5)
            ~fields:(1 + Random.State.int rng 3)
            ~atoms:(Random.State.int rng 3))
  in
  List.iter
    (fun s -> List.iter (check_flow s) (random_walks rng s 20))
    schemas;
  (* a flow that dies names the missing schema edge *)
  let dead = Path.of_strings [ "book"; "ref"; "publisher" ] in
  match Typeflow.missing_edge (Typeflow.of_path schema dead) with
  | Some (tau, prefix) ->
      Alcotest.(check string) "dead prefix" "book.ref.publisher"
        (Path.to_string prefix);
      Alcotest.(check string) "at the live sort" "Book"
        (Typeflow.sort_label schema tau)
  | None -> Alcotest.fail "dead flow must expose its missing edge"

(* --- PC602: --explain annotations ------------------------------------------ *)

let test_explain_annotations () =
  let p = fixture "deadpath.constraints" in
  let s = fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "lint -s %s --schema %s --explain" (Filename.quote p)
         (Filename.quote s))
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out
    "info[PC602] type flow of book.ref.publisher: db -[book]-> Book \
     -[ref]-> Book -[publisher]-> (dead)";
  check_contains out
    "info[PC602] type flow of person.wrote.title: db -[person]-> Person \
     -[wrote]-> Book -[title]-> string";
  (* without the flag, no annotations *)
  let _, quiet =
    run
      (Printf.sprintf "lint -s %s --schema %s" (Filename.quote p)
         (Filename.quote s))
  in
  Alcotest.(check bool) "no PC602 by default" false (contains quiet "PC602")

(* --- the incremental cache ------------------------------------------------- *)

let temp_dir () =
  let d = Filename.temp_file "pathctl_cache" "" in
  Sys.remove d;
  d

let test_cache_hit_skips_passes () =
  let p = fixture "deadpath.constraints" in
  let s = fixture "lint.schema" in
  let dir = temp_dir () in
  with_metrics (fun () ->
      let first =
        Lint.lint_paths ~schema_file:s ~cache_dir:dir ~sigma_file:p ()
      in
      Alcotest.(check int) "first run misses" 1 (counter "lint.cache.misses");
      Alcotest.(check int) "first run stores" 1 (counter "lint.cache.stores");
      Alcotest.(check bool) "first run executes passes" true
        (counter "lint.passes.run" > 0);
      Obs.reset ();
      let second =
        Lint.lint_paths ~schema_file:s ~cache_dir:dir ~sigma_file:p ()
      in
      Alcotest.(check int) "second run hits" 1 (counter "lint.cache.hits");
      Alcotest.(check int) "second run misses" 0 (counter "lint.cache.misses");
      Alcotest.(check int) "cache hit skips every pass" 0
        (counter "lint.passes.run");
      Alcotest.(check string) "identical reports"
        (Diagnostic.render_text first)
        (Diagnostic.render_text second);
      (* changing an input (here: the explain flag enters the key)
         invalidates the entry *)
      Obs.reset ();
      let _ =
        Lint.lint_paths ~schema_file:s ~cache_dir:dir ~explain:true
          ~sigma_file:p ()
      in
      Alcotest.(check int) "changed input misses" 1
        (counter "lint.cache.misses"))

let test_cache_corrupt_entry_is_a_miss () =
  let p = fixture "deadpath.constraints" in
  let dir = temp_dir () in
  with_metrics (fun () ->
      let first = Lint.lint_paths ~cache_dir:dir ~sigma_file:p () in
      (* smash every stored entry *)
      Array.iter
        (fun f ->
          let f = Filename.concat dir f in
          Out_channel.with_open_text f (fun oc ->
              Out_channel.output_string oc "not json {"))
        (Sys.readdir dir);
      Obs.reset ();
      let second = Lint.lint_paths ~cache_dir:dir ~sigma_file:p () in
      Alcotest.(check int) "corrupt entry is a miss, not a crash" 1
        (counter "lint.cache.misses");
      Alcotest.(check string) "recomputed report identical"
        (Diagnostic.render_text first)
        (Diagnostic.render_text second))

let test_cache_key_is_content_addressed () =
  let k1 = Cache.key ~parts:[ "a"; "b" ] in
  let k2 = Cache.key ~parts:[ "a"; "b" ] in
  let k3 = Cache.key ~parts:[ "ab"; "" ] in
  let k4 = Cache.key ~parts:[ "a"; "c" ] in
  Alcotest.(check string) "deterministic" k1 k2;
  Alcotest.(check bool) "length-framed: no concatenation collisions" false
    (k1 = k3);
  Alcotest.(check bool) "content-sensitive" false (k1 = k4)

let () =
  Alcotest.run "typeflow"
    [
      ( "pc600",
        [
          Alcotest.test_case "dead path, golden text" `Quick
            test_pc600_text_golden;
          Alcotest.test_case "token span in JSON" `Quick test_pc600_json_span;
          Alcotest.test_case "token span in SARIF" `Quick
            test_pc600_sarif_span;
        ] );
      ( "pc601",
        [
          Alcotest.test_case "M+ trigger span + classifier agreement" `Quick
            test_pc601_span_and_classifier_agreement;
        ] );
      ( "lattice",
        [
          Alcotest.test_case "flow agrees with Paths(Delta)" `Quick
            test_flow_agrees_with_product;
        ] );
      ( "explain",
        [
          Alcotest.test_case "--explain emits PC602 chains" `Quick
            test_explain_annotations;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit skips every pass" `Quick
            test_cache_hit_skips_passes;
          Alcotest.test_case "corrupt entries degrade to misses" `Quick
            test_cache_corrupt_entry_is_a_miss;
          Alcotest.test_case "keys are content-addressed" `Quick
            test_cache_key_is_content_addressed;
        ] );
    ]
