(* Tests of the typed-RPQ checker (lib/rpq/typecheck, the PC8xx pass in
   lib/analysis/querycheck) and the pathctl query subcommands: golden
   PC800-PC803 output with token-level spans in all three renderers,
   PC800/PC801 cross-checked against independent Nfa emptiness on the
   query x schema product, a seeded three-way differential (typed,
   untyped and an independent oracle) over generated
   schema/instance/query triples, budget governance of the
   typed evaluator, and the analyzer driver's cache key (every part of
   both document kinds, the querycheck pass switch and lint's goal,
   interact and budget parts included, must change the key). *)

module Diagnostic = Analysis.Diagnostic
module Querycheck = Analysis.Querycheck
module Driver = Analysis.Driver
module Lint = Analysis.Lint
module Config = Analysis.Config
module Qparser = Rpq.Parser
module Typecheck = Rpq.Typecheck
module Regex = Rpq.Regex
module Eval = Rpq.Eval
module Mschema = Schema.Mschema
module Mtype = Schema.Mtype
module Schema_graph = Schema.Schema_graph
module Instance_gen = Schema.Instance_gen
module Stypecheck = Schema.Typecheck
module Graph = Sgraph.Graph
module NS = Graph.Node_set
module Nfa = Automata.Nfa
module Label = Pathlang.Label
module Span = Pathlang.Span

let build_root = Filename.dirname (Filename.dirname Sys.executable_name)
let pathctl = Filename.concat build_root (Filename.concat "bin" "pathctl.exe")

let fixture f =
  Filename.concat build_root (Filename.concat "examples/data/query" f)

let lint_fixture f =
  Filename.concat build_root (Filename.concat "examples/data/lint" f)

let write_temp suffix contents =
  let file = Filename.temp_file "pathctl_query" suffix in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc contents);
  file

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

let check_absent out sub =
  Alcotest.(check bool) (Printf.sprintf "output lacks %S" sub) false
    (contains out sub)

let mschema_of_string s =
  match Schema.Schema_parser.of_string s with
  | Ok m -> m
  | Error e -> Alcotest.failf "schema fixture does not parse: %s" e

let m_schema =
  "kind M\n\
   class Person = [ name: string; wrote: Book ]\n\
   class Book = [ title: string; year: int; ref: Book; author: Person ]\n\
   db = [ person: Person; book: Book ]\n"

let parse_q s =
  match Qparser.parse s with
  | Ok ast -> ast
  | Error e -> Alcotest.failf "query %S: %s" s (Qparser.error_to_string e)

(* --- golden CLI output on the shipped fixtures ----------------------------- *)

let test_pc800_text_golden () =
  let p = fixture "empty.query" in
  let s = lint_fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "query lint %s --schema %s" (Filename.quote p)
         (Filename.quote s))
  in
  Alcotest.(check int) "exit 0 (warnings only)" 0 code;
  let expected =
    p
    ^ ":3:6: warning[PC800] empty query: no word of book.publisher lies in \
       Paths(Delta); sort Book has no edge labeled publisher, so every \
       candidate match dies at this token\n\
       0 error(s), 1 warning(s), 0 info, 0 hint(s)\n"
  in
  Alcotest.(check string) "exact text report" expected out

let test_pc800_json_golden () =
  let p = fixture "empty.query" in
  let s = lint_fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "query lint %s --schema %s --format json"
         (Filename.quote p) (Filename.quote s))
  in
  Alcotest.(check int) "exit 0" 0 code;
  let expected =
    Printf.sprintf
      "{\"code\":\"PC800\",\"severity\":\"warning\",\"file\":\"%s\",\"line\":3,\"startColumn\":6,\"endColumn\":15,\"message\":\"empty \
       query: no word of book.publisher lies in Paths(Delta); sort Book \
       has no edge labeled publisher, so every candidate match dies at \
       this token\"}\n"
      p
  in
  Alcotest.(check string) "exact json report" expected out

let test_pc800_sarif_golden () =
  let p = fixture "empty.query" in
  let s = lint_fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "query lint %s --schema %s --format sarif"
         (Filename.quote p) (Filename.quote s))
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out "\"ruleId\":\"PC800\"";
  (* the token-anchored region: publisher occupies columns 6-14,
     end-exclusive 15, on line 3 *)
  check_contains out
    "\"region\":{\"startLine\":3,\"startColumn\":6,\"endLine\":3,\"endColumn\":15}";
  (* the full PC8xx family ships in the rules metadata *)
  List.iter
    (fun c -> check_contains out (Printf.sprintf "\"id\":\"%s\"" c))
    [ "PC800"; "PC801"; "PC802"; "PC803" ]

let test_pc801_text_golden () =
  let p = fixture "deadbranch.query" in
  let s = lint_fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "query lint %s --schema %s" (Filename.quote p)
         (Filename.quote s))
  in
  Alcotest.(check int) "exit 0" 0 code;
  let expected =
    p
    ^ ":4:11: warning[PC801] dead subexpression: publisher contributes no \
       word of Paths(Delta); every schema-live match of \
       book.(ref|publisher)*.author avoids this branch\n\
       0 error(s), 1 warning(s), 0 info, 0 hint(s)\n"
  in
  Alcotest.(check string) "exact text report" expected out

let test_pc802_text_golden () =
  let p = fixture "illtyped.query" in
  let s = lint_fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "query lint %s --schema %s" (Filename.quote p)
         (Filename.quote s))
  in
  Alcotest.(check int) "exit 0" 0 code;
  let expected =
    p
    ^ ":5:1: warning[PC802] ill-typed regular constraint: book.author \
       types to Person but person.wrote types to Book; the answer sorts \
       are disjoint, so the inclusion can only hold vacuously\n\
       0 error(s), 1 warning(s), 0 info, 0 hint(s)\n"
  in
  Alcotest.(check string) "exact text report" expected out

let test_clean_fixture_is_clean () =
  let p = fixture "clean.query" in
  let s = lint_fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "query lint %s --schema %s" (Filename.quote p)
         (Filename.quote s))
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check string) "no diagnostics"
    "0 error(s), 0 warning(s), 0 info, 0 hint(s)\n" out

let test_pc803_explain_golden () =
  let p = fixture "clean.query" in
  let s = lint_fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "query explain %s --schema %s" (Filename.quote p)
         (Filename.quote s))
  in
  Alcotest.(check int) "exit 0" 0 code;
  let expected =
    p
    ^ ":4:1: info[PC803] type flow of book.ref*.author: db -[book]-> Book \
       -[ref]-> Book -[author]-> Person; answers: Person\n"
    ^ p
    ^ ":5:1: info[PC803] type flow of person.wrote.title: db -[person]-> \
       Person -[wrote]-> Book -[title]-> string; answers: string\n"
    ^ p
    ^ ":6:1: info[PC803] type flow of book.author: db -[book]-> Book \
       -[author]-> Person; answers: Person\n"
    ^ p
    ^ ":6:1: info[PC803] type flow of person: db -[person]-> Person; \
       answers: Person\n\
       0 error(s), 0 warning(s), 4 info, 0 hint(s)\n"
  in
  Alcotest.(check string) "exact explain report" expected out

let test_suppressed_golden () =
  let p = fixture "suppressed.query" in
  let s = lint_fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "query lint %s --schema %s" (Filename.quote p)
         (Filename.quote s))
  in
  Alcotest.(check int) "exit 0" 0 code;
  (* the PC800 is suppressed inline; the stale file-wide pragma is
     itself reported *)
  check_absent out "PC800";
  check_contains out
    ":6:1: warning[PC510] unused suppression: no PC801 diagnostic fired in \
     this file"

let test_eval_cli_typed_untyped_agree () =
  let p = fixture "clean.query" in
  let g = fixture "bibliography.graph" in
  let s = lint_fixture "lint.schema" in
  let code_t, out_t =
    run
      (Printf.sprintf "query eval %s -g %s --schema %s" (Filename.quote p)
         (Filename.quote g) (Filename.quote s))
  in
  let code_u, out_u =
    run
      (Printf.sprintf "query eval %s -g %s --untyped" (Filename.quote p)
         (Filename.quote g))
  in
  Alcotest.(check int) "typed exit 0" 0 code_t;
  Alcotest.(check int) "untyped exit 0" 0 code_u;
  Alcotest.(check string) "byte-identical answers" out_u out_t;
  check_contains out_t "book.author -> person: holds"

let test_eval_cli_budget_trip () =
  let p = fixture "clean.query" in
  let g = fixture "bibliography.graph" in
  let s = lint_fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "query eval %s -g %s --schema %s --max-steps 1"
         (Filename.quote p) (Filename.quote g) (Filename.quote s))
  in
  Alcotest.(check int) "exit 2 on budget trip" 2 code;
  check_contains out "interrupted"

let test_parse_error_span () =
  let p = write_temp ".query" "book.(ref*.author\n" in
  let s = lint_fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "query lint %s --schema %s" (Filename.quote p)
         (Filename.quote s))
  in
  Sys.remove p;
  Alcotest.(check int) "exit 1 on parse error" 1 code;
  check_contains out "error[PC001]";
  check_contains out ":1:"

(* A CRLF file lints like its LF original: every shipped constraint and
   query fixture, copied with "\r\n" line ends, gives the same exit code
   and the same text report once the copy's name is put back.  (The
   line syntaxes share one whitespace rule, which counts '\r'.) *)
let test_crlf_fixtures_lint_alike () =
  let crlf file =
    let src = In_channel.with_open_bin file In_channel.input_all in
    let copy = write_temp (Filename.extension file) "" in
    Out_channel.with_open_bin copy (fun oc ->
        String.split_on_char '\n' src
        |> String.concat "\r\n"
        |> Out_channel.output_string oc);
    copy
  in
  let replace ~sub ~by s =
    let n = String.length sub in
    let b = Buffer.create (String.length s) in
    let rec go i =
      if i >= String.length s then ()
      else if i + n <= String.length s && String.sub s i n = sub then (
        Buffer.add_string b by;
        go (i + n))
      else (
        Buffer.add_char b s.[i];
        go (i + 1))
    in
    go 0;
    Buffer.contents b
  in
  let schema = lint_fixture "lint.schema" in
  let cases =
    List.map
      (fun name ->
        let schema_args =
          match name with
          | "vacuous" | "contradictory" | "deadpath" | "core" | "interaction"
            ->
              " --schema " ^ Filename.quote schema
          | _ -> ""
        in
        ("lint -s", lint_fixture (name ^ ".constraints"), schema_args))
      [
        "contradictory"; "core"; "deadpath"; "duplicates"; "entailed";
        "interaction"; "redundant"; "subsumed"; "suppressed"; "undecidable";
        "vacuous";
      ]
    @ List.map
        (fun name ->
          ( "query lint",
            fixture (name ^ ".query"),
            " --schema " ^ Filename.quote schema ))
        [ "clean"; "deadbranch"; "empty"; "illtyped"; "suppressed" ]
  in
  List.iter
    (fun (cmd, file, args) ->
      let lint f = run (Printf.sprintf "%s %s%s" cmd (Filename.quote f) args) in
      let copy = crlf file in
      let code, out = lint file and crlf_code, crlf_out = lint copy in
      Sys.remove copy;
      Alcotest.(check int) (file ^ ": CRLF exit") code crlf_code;
      Alcotest.(check string)
        (file ^ ": CRLF report")
        out
        (replace ~sub:copy ~by:file crlf_out))
    cases

(* --- PC800/PC801 vs independent Nfa emptiness on the product --------------- *)

(* An independent emptiness oracle: the oracle's Thompson automaton
   (not the checker's Glushkov automaton) producted against the schema
   automaton; the query is schema-empty iff no accepting pair is
   reachable.  The product keeps only reachable pairs, so emptiness
   is exactly "no final state exists". *)
let product_empty schema ast =
  let a, start = Rpq_oracle.thompson (Qparser.regex_of ast) in
  let sa, _sorts, sstart = Schema_graph.automaton schema in
  let prod, _pairs = Oracle.Nfa_product.product a sa ~start:(start, sstart) in
  Nfa.State_set.is_empty (Nfa.finals prod)

let test_empty_crosscheck_deterministic () =
  let schema = mschema_of_string m_schema in
  List.iter
    (fun (src, expect_empty) ->
      let ast = parse_q src in
      let tc = Typecheck.run schema ast in
      Alcotest.(check bool)
        (Printf.sprintf "empty_query %S" src)
        expect_empty (Typecheck.empty_query tc);
      Alcotest.(check bool)
        (Printf.sprintf "Nfa oracle agrees on %S" src)
        (product_empty schema ast)
        (Typecheck.empty_query tc);
      (* first_dead is exactly the empty-query witness *)
      Alcotest.(check bool)
        (Printf.sprintf "first_dead iff empty on %S" src)
        expect_empty
        (Typecheck.first_dead tc <> None))
    [
      ("book.publisher", true);
      ("person.name.title", true);
      ("book.(ref)*.author", false);
      ("book.(ref|publisher)*.author", false);
      ("eps", false);
      ("book.author.wrote.ref*.title", false);
      ("(book|person).name", false);
      ("(book|person).publisher", true);
      ("person.name|book.publisher", false);
    ]

(* Random queries over a schema's labels (plus a foreign one, so dead
   tokens actually occur), built through the smart constructors and
   re-parsed through the span parser — the same term both ways. *)
let schema_labels schema =
  let rec of_ty acc = function
    | Mtype.Record fs ->
        List.fold_left (fun acc (l, t) -> of_ty (l :: acc) t) acc fs
    | Mtype.Set t -> of_ty acc t
    | Mtype.Atomic _ | Mtype.Class _ -> acc
  in
  let acc = of_ty [] (Mschema.dbtype schema) in
  List.sort_uniq compare
    (List.fold_left
       (fun acc (_, t) -> of_ty acc t)
       acc (Mschema.classes schema))

let rec random_regex rng labels depth =
  let letter () =
    Regex.letter (List.nth labels (Random.State.int rng (List.length labels)))
  in
  if depth = 0 then letter ()
  else
    match Random.State.int rng 6 with
    | 0 | 1 ->
        Regex.concat
          (random_regex rng labels (depth - 1))
          (random_regex rng labels (depth - 1))
    | 2 | 3 ->
        Regex.alt
          (random_regex rng labels (depth - 1))
          (random_regex rng labels (depth - 1))
    | 4 -> Regex.star (random_regex rng labels (depth - 1))
    | _ -> letter ()

let random_query rng labels =
  let r = random_regex rng labels (1 + Random.State.int rng 3) in
  parse_q (Regex.to_string r)

let random_schema rng =
  Mschema.random_m ~rng
    ~classes:(1 + Random.State.int rng 3)
    ~fields:(1 + Random.State.int rng 3)
    ~atoms:2

let test_empty_crosscheck_random () =
  let rng = Random.State.make [| 0x8A11 |] in
  let foreign = Label.make "zzz" in
  for _ = 1 to 150 do
    let schema = random_schema rng in
    let labels = foreign :: schema_labels schema in
    let ast = random_query rng labels in
    let tc = Typecheck.run schema ast in
    Alcotest.(check bool)
      (Printf.sprintf "Nfa oracle agrees on %S"
         (Regex.to_string (Qparser.regex_of ast)))
      (product_empty schema ast)
      (Typecheck.empty_query tc)
  done

(* --- attribution vs the fresh-state Thompson reference --------------------- *)

(* Random queries in the surface syntax, with every node kind the
   parser knows: [+], [?] and [eps] stay nodes of their own. *)
let rec random_surface rng labels depth =
  let letter () =
    Label.to_string (List.nth labels (Random.State.int rng (List.length labels)))
  in
  let sub () = random_surface rng labels (depth - 1) in
  if depth = 0 then if Random.State.int rng 8 = 0 then "eps" else letter ()
  else
    match Random.State.int rng 10 with
    | 0 | 1 ->
        let a = sub () in
        let b = sub () in
        Printf.sprintf "(%s.%s)" a b
    | 2 | 3 ->
        let a = sub () in
        let b = sub () in
        Printf.sprintf "(%s|%s)" a b
    | 4 -> Printf.sprintf "(%s)*" (sub ())
    | 5 -> Printf.sprintf "(%s)+" (sub ())
    | 6 -> Printf.sprintf "(%s)?" (sub ())
    | 7 -> "eps"
    | _ -> letter ()

let abc_schema =
  "kind M\n\
   class C = [ a: C; b: D ]\n\
   class D = [ c: C; b: D ]\n\
   db = [ a: C; c: D ]\n"

let rec subterms (n : Qparser.ast) =
  n
  ::
  (match n.Qparser.node with
  | Qparser.Eps | Qparser.Letter _ -> []
  | Qparser.Concat (x, y) | Qparser.Alt (x, y) -> subterms x @ subterms y
  | Qparser.Star x | Qparser.Plus x | Qparser.Opt x -> subterms x)

(* Rpq.Typecheck reads every PC8xx fact off the Glushkov automaton's
   per-node position sets; the reference projects a fresh-state
   Thompson product onto each node's own states.  Both must attribute
   every node of every query identically. *)
let test_attribution_matches_reference () =
  let rng = Random.State.make [| 0x6105 |] in
  let foreign = Label.make "zzz" in
  let sorts = Alcotest.testable (Fmt.Dump.list Mtype.pp) (List.equal Mtype.equal) in
  let chain =
    Alcotest.(list (triple string string sorts))
  in
  let show_chain =
    List.map (fun (k, sp, taus) -> (Label.to_string k, Span.to_string sp, taus))
  in
  let schemas =
    [ ("bib_m", fun () -> Mschema.bib_m); ("abc", fun () -> mschema_of_string abc_schema);
      ("random", fun () -> random_schema rng) ]
  in
  List.iter
    (fun (name, schema) ->
      for i = 1 to 150 do
        let schema = schema () in
        let labels = foreign :: schema_labels schema in
        let src = random_surface rng labels (1 + Random.State.int rng 4) in
        let ast = parse_q src in
        let tc = Typecheck.run schema ast in
        let rf = Oracle.Typecheck_reference.run schema ast in
        let what s = Printf.sprintf "%s #%d %s: %s" name i src s in
        Alcotest.(check bool) (what "empty_query")
          (Oracle.Typecheck_reference.empty_query rf) (Typecheck.empty_query tc);
        Alcotest.check sorts (what "answer_sorts")
          (Oracle.Typecheck_reference.answer_sorts rf) (Typecheck.answer_sorts tc);
        List.iter
          (fun n ->
            Alcotest.check sorts
              (what ("sorts_after " ^ Regex.to_string (Qparser.regex_of n)))
              (Oracle.Typecheck_reference.sorts_after rf n)
              (Typecheck.sorts_after tc n))
          (subterms ast);
        Alcotest.check chain (what "letter_chain")
          (show_chain (Oracle.Typecheck_reference.letter_chain rf))
          (show_chain (Typecheck.letter_chain tc));
        Alcotest.(check (option (triple string string sorts)))
          (what "first_dead")
          (Option.map (fun x -> List.hd (show_chain [ x ]))
             (Oracle.Typecheck_reference.first_dead rf))
          (Option.map (fun x -> List.hd (show_chain [ x ])) (Typecheck.first_dead tc));
        Alcotest.(check bool) (what "dead_subexprs") true
          (List.equal ( == )
             (Oracle.Typecheck_reference.dead_subexprs rf)
             (Typecheck.dead_subexprs tc))
      done)
    schemas

(* PC801 soundness: pruning the reported dead subexpressions out of the
   query preserves its answers on every schema-conforming instance
   (paths realized from the root of a conforming graph all lie in
   Paths(Delta), which is exactly what a dead branch cannot serve). *)
let prune_dead tc ast =
  let dead = Typecheck.dead_subexprs tc in
  let is_dead n = List.exists (fun d -> d == n) dead in
  let rec go (a : Qparser.ast) =
    match a.Qparser.node with
    | Qparser.Eps | Qparser.Letter _ -> Qparser.regex_of a
    | Qparser.Concat (x, y) -> Regex.concat (go x) (go y)
    | Qparser.Alt (x, y) ->
        if is_dead x then go y
        else if is_dead y then go x
        else Regex.alt (go x) (go y)
    | Qparser.Star x -> if is_dead x then Regex.eps else Regex.star (go x)
    | Qparser.Plus x -> Regex.plus (go x)
    | Qparser.Opt x -> if is_dead x then Regex.eps else Regex.opt (go x)
  in
  go ast

let test_dead_branch_prune_preserves_answers () =
  let rng = Random.State.make [| 0xDEAD |] in
  let foreign = Label.make "zzz" in
  let pruned_cases = ref 0 in
  for _ = 1 to 120 do
    let schema = random_schema rng in
    let labels = foreign :: schema_labels schema in
    let ast = random_query rng labels in
    let tc = Typecheck.run schema ast in
    if not (Typecheck.empty_query tc) then begin
      if Typecheck.dead_subexprs tc <> [] then incr pruned_cases;
      let inst = Instance_gen.random ~rng ~oids_per_class:2 schema in
      let st = Schema.Instance.to_structure inst in
      let g = st.Stypecheck.graph in
      Alcotest.(check bool)
        (Printf.sprintf "pruning %S preserves answers"
           (Regex.to_string (Qparser.regex_of ast)))
        true
        (NS.equal
           (Eval.eval g (Qparser.regex_of ast))
           (Eval.eval g (prune_dead tc ast)))
    end
  done;
  Alcotest.(check bool) "some cases actually pruned a branch" true
    (!pruned_cases > 0)

let test_dead_subexprs_deterministic () =
  let schema = mschema_of_string m_schema in
  let ast = parse_q "book.(ref|publisher)*.author" in
  let tc = Typecheck.run schema ast in
  match Typecheck.dead_subexprs tc with
  | [ d ] ->
      Alcotest.(check string) "the publisher branch" "publisher"
        (Regex.to_string (Qparser.regex_of d));
      Alcotest.(check int) "token start column" 11 d.Qparser.span.Span.start_col
  | ds -> Alcotest.failf "expected one dead subexpression, got %d" (List.length ds)

(* --- typed vs untyped evaluation, against an independent oracle ------------ *)

let test_typed_untyped_differential () =
  let rng = Random.State.make [| 0xD1FF |] in
  let foreign = Label.make "zzz" in
  for i = 1 to 200 do
    let schema = random_schema rng in
    let labels = foreign :: schema_labels schema in
    let ast = random_query rng labels in
    let inst =
      Instance_gen.random ~rng
        ~oids_per_class:(1 + Random.State.int rng 2)
        schema
    in
    let st = Schema.Instance.to_structure inst in
    let g = st.Stypecheck.graph in
    let tc = Typecheck.run schema ast in
    let class_of = Typecheck.typing_of schema g (Stypecheck.type_of st) in
    let untyped = Eval.eval g (Qparser.regex_of ast) in
    let typed = Eval.eval_typed ~class_of tc g in
    Alcotest.(check bool)
      (Printf.sprintf "case %d: typed = untyped on %S" i
         (Regex.to_string (Qparser.regex_of ast)))
      true (NS.equal untyped typed);
    (* typed and untyped now share one product BFS, so the reference is
       an independent evaluator *)
    Alcotest.(check bool)
      (Printf.sprintf "case %d: untyped = oracle" i)
      true
      (NS.equal untyped (Rpq_oracle.eval g (Qparser.regex_of ast)));
    (* with no sort information the evaluator may prune only on
       state liveness — still answer-identical *)
    let typed_nosorts = Eval.eval_typed tc g in
    Alcotest.(check bool)
      (Printf.sprintf "case %d: typed (no sorts) = untyped" i)
      true
      (NS.equal untyped typed_nosorts)
  done

let test_typed_prunes_on_sparse_schema () =
  (* the workload the bench records: a query whose continuation is dead
     from most sorts.  The typed evaluator must explore strictly fewer
     product pairs; here we just check it still answers identically on
     the shipped conforming fixture graph. *)
  let schema = mschema_of_string m_schema in
  let g =
    match
      Sgraph.Io.of_string
        (In_channel.with_open_text (fixture "bibliography.graph")
           In_channel.input_all)
    with
    | Ok g -> g
    | Error m -> Alcotest.failf "fixture graph: %s" m
  in
  let ast = parse_q "(book|person)*.wrote.title" in
  let tc = Typecheck.run schema ast in
  let class_of = Typecheck.type_graph schema g in
  Alcotest.(check bool) "answers identical" true
    (NS.equal
       (Eval.eval g (Qparser.regex_of ast))
       (Eval.eval_typed ~class_of tc g))

(* --- governance: the typed evaluator honors its budget --------------------- *)

let test_budget_trips_mid_product () =
  let schema = mschema_of_string m_schema in
  let ast = parse_q "book.(ref)*.author" in
  let tc = Typecheck.run schema ast in
  let g =
    Graph.of_edges
      [ (0, "book", 1); (1, "ref", 2); (2, "ref", 1); (1, "author", 3) ]
  in
  let budget = Core.Engine.Budget.v ~max_steps:1 () in
  let ctl = Core.Engine.start budget in
  let interrupt () = not (Core.Engine.tick ctl ()) in
  Alcotest.check_raises "typed evaluation trips its budget"
    Eval.Interrupted (fun () ->
      ignore (Eval.eval_typed ~interrupt tc g));
  (* an untripped budget changes nothing *)
  let ctl = Core.Engine.start (Core.Engine.Budget.v ~max_steps:100_000 ()) in
  let interrupt () = not (Core.Engine.tick ctl ()) in
  Alcotest.(check bool) "ample budget is invisible" true
    (NS.equal
       (Eval.eval g (Qparser.regex_of ast))
       (Eval.eval_typed ~interrupt tc g))

(* --- the cache key: one function, every part of both document kinds ------- *)

let test_cache_key_mutation () =
  let key ?(config = Config.default) ?(explain = false) ?(file = "f")
      ?(src = "book.author") ?(schema_file = "s.schema")
      ?(schema_src = m_schema) ?(config_src = "") kind =
    Driver.cache_key kind ~config ~explain ~file ~src ~schema_file
      ~schema_src ~config_src
  in
  let check_changed name k k' =
    Alcotest.(check bool) (name ^ " is a cache key part") true (k <> k')
  in
  (* the parts the driver keys for every document kind *)
  let common name kind =
    let k = key kind in
    let part p = Printf.sprintf "%s: %s" name p in
    check_changed (part "explain flag") k (key ~explain:true kind);
    check_changed (part "file path") k (key ~file:"other" kind);
    check_changed (part "file contents") k (key ~src:"book.title" kind);
    check_changed (part "schema file path") k
      (key ~schema_file:"other.schema" kind);
    check_changed (part "schema contents") k
      (key ~schema_src:(m_schema ^ "# trailing\n") kind);
    check_changed (part "config contents") k
      (key ~config_src:"[lint]\nexplain = true\n" kind);
    Alcotest.(check string) (part "key is deterministic") k (key kind)
  in
  let query = Querycheck.kind () in
  common "query" query;
  check_changed "querycheck pass switch" (key query)
    (key
       ~config:{ Config.default with passes = [ ("querycheck", false) ] }
       query);
  let lint ?phi ?budget ?(interact = false) () =
    Lint.kind ?phi ?budget ~interact ()
  in
  let k = key (lint ()) in
  common "lint" (lint ());
  check_changed "goal constraint" k (key (lint ~phi:"book -> book" ()));
  check_changed "interact flag" k (key (lint ~interact:true ()));
  let budget = Core.Engine.Budget.v ~max_steps:8 ~max_nodes:8 ~timeout:1. () in
  let kb = key (lint ~budget ()) in
  check_changed "budget" k kb;
  check_changed "budget steps" kb
    (key (lint ~budget:{ budget with max_steps = Some 9 } ()));
  check_changed "budget nodes" kb
    (key (lint ~budget:{ budget with max_nodes = Some 9 } ()));
  check_changed "budget timeout" kb
    (key (lint ~budget:{ budget with timeout = Some 2. } ()));
  check_changed "document kind" k (key query)

let counter name = Obs.Counter.value (Obs.Counter.make name)

let with_metrics f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let temp_dir () =
  let d = Filename.temp_file "pathctl_qcache" "" in
  Sys.remove d;
  d

let test_cache_hit_skips_pass () =
  let p = fixture "empty.query" in
  let s = lint_fixture "lint.schema" in
  let dir = temp_dir () in
  with_metrics (fun () ->
      let first =
        Querycheck.lint_queries ~schema_file:s ~cache_dir:dir ~query_file:p ()
      in
      Alcotest.(check int) "first run misses" 1 (counter "lint.cache.misses");
      Alcotest.(check int) "first run stores" 1 (counter "lint.cache.stores");
      Alcotest.(check bool) "first run executes the pass" true
        (counter "lint.passes.run" > 0);
      Obs.reset ();
      let second =
        Querycheck.lint_queries ~schema_file:s ~cache_dir:dir ~query_file:p ()
      in
      Alcotest.(check int) "second run hits" 1 (counter "lint.cache.hits");
      Alcotest.(check int) "cache hit skips the pass" 0
        (counter "lint.passes.run");
      Alcotest.(check string) "identical reports"
        (Diagnostic.render_text first)
        (Diagnostic.render_text second);
      (* the explain flag is a key part *)
      Obs.reset ();
      let _ =
        Querycheck.lint_queries ~schema_file:s ~cache_dir:dir ~explain:true
          ~query_file:p ()
      in
      Alcotest.(check int) "explain invalidates" 1
        (counter "lint.cache.misses"))

let test_querycheck_flag_is_cli_cache_part () =
  (* a run with the pass disabled must not poison the cache for an
     enabled run on the same inputs *)
  let p = fixture "empty.query" in
  let s = lint_fixture "lint.schema" in
  let dir = temp_dir () in
  let off = write_temp ".toml" "[passes]\nquerycheck = false\n" in
  let code, out =
    run
      (Printf.sprintf "query lint %s --schema %s --cache %s --config %s"
         (Filename.quote p) (Filename.quote s) (Filename.quote dir)
         (Filename.quote off))
  in
  Alcotest.(check int) "disabled pass exits 0" 0 code;
  check_absent out "PC800";
  let code, out =
    run
      (Printf.sprintf "query lint %s --schema %s --cache %s"
         (Filename.quote p) (Filename.quote s) (Filename.quote dir))
  in
  Sys.remove off;
  Alcotest.(check int) "enabled pass exits 0" 0 code;
  check_contains out "warning[PC800]"

(* --- suppression and configuration of the PC8xx family --------------------- *)

let test_family_pragma_suppresses () =
  let p =
    write_temp ".query" "# pathctl-disable PC8xx\nbook.publisher\n"
  in
  let s = lint_fixture "lint.schema" in
  let diags = Querycheck.lint_queries ~schema_file:s ~query_file:p () in
  Sys.remove p;
  Alcotest.(check bool) "family pragma silences PC800" true
    (not (List.exists (fun d -> d.Diagnostic.code = "PC800") diags));
  Alcotest.(check bool) "the pragma matched, so no PC510" true
    (not (List.exists (fun d -> d.Diagnostic.code = "PC510") diags))

let test_family_severity_key () =
  let p = write_temp ".query" "book.publisher\n" in
  let s = lint_fixture "lint.schema" in
  let c = write_temp ".toml" "[severity]\nPC8xx = \"info\"\n" in
  let diags =
    Querycheck.lint_queries ~schema_file:s ~config_file:c ~query_file:p ()
  in
  Sys.remove p;
  Sys.remove c;
  match List.find_opt (fun d -> d.Diagnostic.code = "PC800") diags with
  | None -> Alcotest.fail "PC800 expected"
  | Some d ->
      Alcotest.(check bool) "family key re-ranks to info" true
        (d.Diagnostic.severity = Diagnostic.Info)

let test_pass_switch_disables () =
  let p = write_temp ".query" "book.publisher\n" in
  let s = lint_fixture "lint.schema" in
  let c = write_temp ".toml" "[passes]\nquerycheck = false\n" in
  let diags =
    Querycheck.lint_queries ~schema_file:s ~config_file:c ~query_file:p ()
  in
  Sys.remove p;
  Sys.remove c;
  Alcotest.(check int) "pass off: no diagnostics" 0 (List.length diags)

let test_parallel_pass_is_deterministic () =
  let p =
    write_temp ".query"
      "book.(ref)*.author\nbook.publisher\nperson.name.title\n\
       book.author -> person.wrote\nperson.wrote.title\n"
  in
  let s = lint_fixture "lint.schema" in
  let seq = Querycheck.lint_queries ~schema_file:s ~query_file:p () in
  let par =
    Par.with_pool ~jobs:4 (fun pool ->
        Querycheck.lint_queries ?pool ~schema_file:s ~query_file:p ())
  in
  Sys.remove p;
  Alcotest.(check string) "-j 4 output is byte-identical"
    (Diagnostic.render_text seq)
    (Diagnostic.render_text par)

let () =
  Alcotest.run "querycheck"
    [
      ( "golden",
        [
          Alcotest.test_case "PC800 text" `Quick test_pc800_text_golden;
          Alcotest.test_case "PC800 json" `Quick test_pc800_json_golden;
          Alcotest.test_case "PC800 sarif" `Quick test_pc800_sarif_golden;
          Alcotest.test_case "PC801 text" `Quick test_pc801_text_golden;
          Alcotest.test_case "PC802 text" `Quick test_pc802_text_golden;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture_is_clean;
          Alcotest.test_case "PC803 explain" `Quick test_pc803_explain_golden;
          Alcotest.test_case "suppressed fixture" `Quick test_suppressed_golden;
          Alcotest.test_case "PC001 parse error span" `Quick
            test_parse_error_span;
          Alcotest.test_case "CRLF fixtures lint alike" `Quick
            test_crlf_fixtures_lint_alike;
        ] );
      ( "crosscheck",
        [
          Alcotest.test_case "emptiness: deterministic" `Quick
            test_empty_crosscheck_deterministic;
          Alcotest.test_case "emptiness: random" `Quick
            test_empty_crosscheck_random;
          Alcotest.test_case "dead-branch pruning preserves answers" `Quick
            test_dead_branch_prune_preserves_answers;
          Alcotest.test_case "dead subexpression span" `Quick
            test_dead_subexprs_deterministic;
          Alcotest.test_case "attribution = Thompson reference" `Quick
            test_attribution_matches_reference;
        ] );
      ( "eval",
        [
          Alcotest.test_case "typed vs untyped differential (200 cases)"
            `Quick test_typed_untyped_differential;
          Alcotest.test_case "sparse-schema pruning answers" `Quick
            test_typed_prunes_on_sparse_schema;
          Alcotest.test_case "budget trips mid-product" `Quick
            test_budget_trips_mid_product;
          Alcotest.test_case "CLI typed/untyped agree" `Quick
            test_eval_cli_typed_untyped_agree;
          Alcotest.test_case "CLI budget trip" `Quick test_eval_cli_budget_trip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "key mutation" `Quick test_cache_key_mutation;
          Alcotest.test_case "hit skips the pass" `Quick
            test_cache_hit_skips_pass;
          Alcotest.test_case "querycheck flag is a CLI cache part" `Quick
            test_querycheck_flag_is_cli_cache_part;
        ] );
      ( "config",
        [
          Alcotest.test_case "PC8xx pragma family" `Quick
            test_family_pragma_suppresses;
          Alcotest.test_case "PC8xx severity key" `Quick
            test_family_severity_key;
          Alcotest.test_case "querycheck pass switch" `Quick
            test_pass_switch_disables;
          Alcotest.test_case "parallel determinism" `Quick
            test_parallel_pass_is_deterministic;
        ] );
    ]
