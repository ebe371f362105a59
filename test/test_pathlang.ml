open Testutil
module Label = Pathlang.Label
module Path = Pathlang.Path
module Constr = Pathlang.Constr
module Bounded = Pathlang.Bounded
module Fragment = Pathlang.Fragment
module Parser = Pathlang.Parser
module Fo = Pathlang.Fo

(* --- labels ---------------------------------------------------------- *)

let test_label_validation () =
  check_string "roundtrip" "book" Label.(to_string (make "book"));
  List.iter
    (fun bad ->
      Alcotest.check_raises ("rejects " ^ bad) (Invalid_argument "")
        (fun () ->
          try ignore (Label.make bad)
          with Invalid_argument _ -> raise (Invalid_argument "")))
    [ ""; "a.b"; "a b"; "x:y"; "p->q"; "(z)"; "a,b" ]

(* Labels are interned: one value per name, ids in order of first
   use, order by name bytes.  The two labels below are made nowhere
   else, so the later-made "aa" name gets the larger id. *)
let test_label_interning () =
  check_bool "make interns" true (Label.make "book" == Label.make "book");
  let zz = Label.make "zz_interning_probe" in
  let aa = Label.make "aa_interning_probe" in
  check_bool "ids in order of first use" true (Label.id zz < Label.id aa);
  check_bool "compare is name order" true (Label.compare aa zz < 0 && Label.compare zz aa > 0);
  check_int "compare equal" 0 (Label.compare zz (Label.make "zz_interning_probe"));
  check_bool "polymorphic compare agrees" true (compare aa zz < 0);
  check_int "hash is the id" (Label.id aa) (Label.hash aa);
  check_bool "set elements in name order" true
    (Label.Set.elements (Label.Set.of_list [ zz; aa ]) = [ aa; zz ]);
  let g = Sgraph.Graph.create () in
  let v = Sgraph.Graph.add_node g in
  Sgraph.Graph.add_edge g 0 zz v;
  Sgraph.Graph.add_edge g 0 aa v;
  check_bool "graph runs in name order" true
    (Array.to_list (Array.map (fun (r : Sgraph.Graph.run) -> r.label) (Sgraph.Graph.out_runs g 0))
    = [ aa; zz ]);
  check_bool "edges in name order" true
    (List.map (fun (_, k, _) -> k) (Sgraph.Graph.edges g) = [ aa; zz ])

(* Interning keeps one entry per distinct name: reading the same corpus
   again adds none. *)
let test_label_table_flat () =
  let dir =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "examples/data/lint"
  in
  let parse () =
    Array.iter
      (fun f ->
        let text = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
        if Filename.check_suffix f ".constraints" then
          ignore (Parser.document_of_string text)
        else if Filename.check_suffix f ".schema" then
          ignore (Schema.Schema_parser.of_string text))
      (Sys.readdir dir)
  in
  parse ();
  let n = Label.interned () in
  check_bool "corpus interns labels" true (n > 0);
  parse ();
  check_int "second parse interns nothing" n (Label.interned ())

(* --- paths ----------------------------------------------------------- *)

let test_path_string () =
  check_string "print" "book.author" (Path.to_string (path "book.author"));
  check_string "eps" "eps" (Path.to_string Path.empty);
  Alcotest.check path_testable "parse eps" Path.empty (path "eps");
  Alcotest.check path_testable "parse empty" Path.empty (path "");
  Alcotest.check path_testable "parse" (Path.of_strings [ "a"; "b" ]) (path "a.b")

let test_path_ops () =
  let p = path "a.b.c" in
  check_int "length" 3 (Path.length p);
  Alcotest.check path_testable "concat" p (Path.concat (path "a") (path "b.c"));
  Alcotest.check path_testable "snoc" p (Path.snoc (path "a.b") (Label.make "c"));
  Alcotest.check path_testable "cons" p (Path.cons (Label.make "a") (path "b.c"));
  check_bool "prefix yes" true (Path.is_prefix (path "a.b") p);
  check_bool "prefix no" false (Path.is_prefix (path "b") p);
  check_bool "prefix eps" true (Path.is_prefix Path.empty p);
  Alcotest.check path_testable "strip"
    (path "c")
    (Option.get (Path.strip_prefix ~prefix:(path "a.b") p));
  check_bool "strip none" true (Path.strip_prefix ~prefix:(path "b") p = None);
  check_int "prefixes" 4 (List.length (Path.prefixes p));
  Alcotest.check path_testable "last prefix is self" p
    (List.nth (Path.prefixes p) 3)

let prop_concat_assoc =
  q "concat associative"
    QCheck.(triple arb_path arb_path arb_path)
    (fun (a, b, c) ->
      Path.equal
        (Path.concat a (Path.concat b c))
        (Path.concat (Path.concat a b) c))

let prop_roundtrip =
  q "of_string . to_string = id" arb_path (fun p ->
      Path.equal p (Path.of_string (Path.to_string p)))

let prop_prefix_concat =
  q "p is prefix of p.q" QCheck.(pair arb_path arb_path) (fun (p, q') ->
      Path.is_prefix p (Path.concat p q'))

let prop_strip_inverse =
  q "strip_prefix inverts concat" QCheck.(pair arb_path arb_path)
    (fun (p, q') ->
      match Path.strip_prefix ~prefix:p (Path.concat p q') with
      | Some r -> Path.equal r q'
      | None -> false)

let prop_shortlex =
  q "compare is shortlex" QCheck.(pair arb_path arb_path) (fun (p, q') ->
      let c = Path.compare p q' in
      if Path.length p < Path.length q' then c < 0
      else if Path.length p > Path.length q' then c > 0
      else true)

let prop_prefixes_ordered =
  q "prefixes listed by length" arb_path (fun p ->
      let ps = Path.prefixes p in
      List.length ps = Path.length p + 1
      && List.for_all2
           (fun pre i -> Path.length pre = i)
           ps
           (List.init (List.length ps) Fun.id))

(* --- constraints ------------------------------------------------------ *)

let test_constraint_basics () =
  let w = c_word "book.author" "person" in
  check_bool "is_word" true (Constr.is_word w);
  check_bool "word as_word" true (Constr.as_word w <> None);
  let f = c_fwd "MIT" "book.author" "person" in
  check_bool "fwd not word" false (Constr.is_word f);
  Alcotest.check path_testable "pf" (path "MIT") (Constr.pf f);
  let b = c_bwd "book" "author" "wrote" in
  check_bool "bwd kind" true (Constr.kind b = Constr.Backward)

let test_shift_unshift () =
  let f = c_fwd "book" "author" "wrote" in
  let shifted = Constr.shift (path "MIT") f in
  Alcotest.check path_testable "shifted prefix" (path "MIT.book")
    (Constr.pf shifted);
  Alcotest.check constr_testable "unshift inverts" f
    (Option.get (Constr.unshift (path "MIT") shifted));
  check_bool "unshift mismatch" true
    (Constr.unshift (path "CMU") shifted = None)

let prop_shift_unshift =
  q "unshift . shift = id" QCheck.(pair arb_path arb_constraint)
    (fun (p, c) ->
      match Constr.unshift p (Constr.shift p c) with
      | Some c' -> Constr.equal c c'
      | None -> false)

let test_paths_used () =
  let f = c_fwd "MIT" "book.author" "person" in
  Alcotest.(check (list path_testable))
    "paths_used"
    [ path "MIT"; path "MIT.book.author"; path "MIT.person" ]
    (Constr.paths_used f)

(* --- parser ----------------------------------------------------------- *)

let test_parser_forms () =
  let ok s = match Parser.constraint_of_string s with
    | Ok c -> c
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  Alcotest.check constr_testable "word" (c_word "book.author" "person")
    (ok "book.author -> person");
  Alcotest.check constr_testable "forward"
    (c_fwd "MIT" "book.author" "person")
    (ok "MIT : book.author -> person");
  Alcotest.check constr_testable "backward" (c_bwd "book" "author" "wrote")
    (ok "book : author <- wrote");
  Alcotest.check constr_testable "eps rhs" (c_word "a.b" "eps") (ok "a.b -> eps");
  Alcotest.check constr_testable "eps lhs"
    (Constr.forward ~prefix:(path "MIT") ~lhs:Path.empty ~rhs:(path "K"))
    (ok "MIT : eps -> K")

let test_parser_errors () =
  let bad s =
    match Parser.constraint_of_string s with Ok _ -> false | Error _ -> true
  in
  check_bool "no arrow" true (bad "book.author person");
  check_bool "bad label" true (bad "bo ok -> person")

let test_parser_document () =
  let doc = {|
# extent constraints
book.author -> person

book : author <- wrote
|} in
  match Parser.constraints_of_string doc with
  | Ok cs -> check_int "two constraints" 2 (List.length cs)
  | Error e -> Alcotest.fail e

let prop_parser_roundtrip =
  q "parse . print = id" arb_constraint (fun c ->
      match Parser.constraint_of_string (Constr.to_string c) with
      | Ok c' -> Constr.equal c c'
      | Error _ -> false)

(* --- bounded (Definition 2.3) ------------------------------------------ *)

let k_mit = Label.make "MIT"

let test_bounded () =
  let phi = c_fwd "MIT" "book.ref" "book" in
  check_bool "phi bounded" true
    (Bounded.is_bounded ~alpha:Path.empty ~k:k_mit phi);
  (* lhs must be non-empty *)
  check_bool "eps lhs not bounded" false
    (Bounded.is_bounded ~alpha:Path.empty ~k:k_mit
       (Constr.forward ~prefix:(path "MIT") ~lhs:Path.empty ~rhs:(path "book")));
  (* K must not be a prefix of lhs *)
  check_bool "K prefix of lhs" false
    (Bounded.is_bounded ~alpha:Path.empty ~k:k_mit
       (c_fwd "MIT" "MIT.book" "book"));
  (* backward form is not bounded *)
  check_bool "backward not bounded" false
    (Bounded.is_bounded ~alpha:Path.empty ~k:k_mit (c_bwd "MIT" "author" "wrote"))

let test_partition_sigma0 () =
  let sigma = Xmlrep.Bib.sigma0 () in
  match Bounded.partition ~alpha:Path.empty ~k:k_mit sigma with
  | Ok p ->
      check_int "sigma_k" 2 (List.length p.Bounded.sigma_k);
      check_int "sigma_r" 2 (List.length p.Bounded.sigma_r)
  | Error e -> Alcotest.fail e

let test_partition_rejects () =
  (* a constraint whose prefix starts with K inside rho' *)
  let bad = c_fwd "MIT.book" "author" "wrote" in
  match Bounded.partition ~alpha:Path.empty ~k:k_mit [ bad ] with
  | Ok _ -> Alcotest.fail "should reject: K is a prefix of rho'"
  | Error _ -> ()

let test_partition_special_form () =
  (* rho' = eps requires the special K-membership form *)
  let good =
    Constr.forward ~prefix:Path.empty ~lhs:(path "a") ~rhs:(path "MIT")
  in
  let bad = Constr.forward ~prefix:Path.empty ~lhs:(path "a") ~rhs:(path "b") in
  check_bool "special form accepted" true
    (Bounded.partition ~alpha:Path.empty ~k:k_mit [ good ] |> Result.is_ok);
  check_bool "other form rejected" true
    (Bounded.partition ~alpha:Path.empty ~k:k_mit [ bad ] |> Result.is_error)

let test_infer_bound () =
  let phi = c_fwd "MIT" "book.ref" "book" in
  match Bounded.infer_bound phi with
  | [ (alpha, k) ] ->
      Alcotest.check path_testable "alpha" Path.empty alpha;
      check_string "k" "MIT" (Label.to_string k)
  | l -> Alcotest.failf "expected one split, got %d" (List.length l)

(* --- fragments --------------------------------------------------------- *)

let test_fragments () =
  let k = Label.make "K" in
  check_bool "word in P_w(K)" true (Fragment.in_pw_k ~k (c_word "a" "b"));
  check_bool "K-prefixed in P_w(K)" true
    (Fragment.in_pw_k ~k (c_fwd "K" "a" "b"));
  check_bool "other prefix not" false (Fragment.in_pw_k ~k (c_fwd "a" "a" "b"));
  check_bool "backward not" false
    (Fragment.in_pw_k ~k (c_bwd "K" "a" "b"));
  check_bool "lift" true
    (match Fragment.lift (path "K") (c_word "a" "b") with
    | Some c -> Constr.equal c (c_fwd "K" "a" "b")
    | None -> false);
  check_bool "lift non-word" true
    (Fragment.lift (path "K") (c_bwd "x" "a" "b") = None)

(* --- first-order view --------------------------------------------------- *)

let test_fo_rendering () =
  let f = Fo.of_constraint (c_word "a.b" "c") in
  check_bool "closed" true (Fo.free_vars f = []);
  let s = Fo.to_string f in
  check_bool "mentions forall" true
    (String.length s > 0 && String.sub s 0 6 = "forall")

let test_fo_path_expansion () =
  let f = Fo.of_path (path "a.b") ~src:Fo.Root ~dst:(Fo.Var "y") in
  check_bool "one existential" true
    (match f with Fo.Exists (_, _) -> true | _ -> false);
  let empty = Fo.of_path Path.empty ~src:Fo.Root ~dst:(Fo.Var "y") in
  check_bool "empty path is equality" true
    (match empty with Fo.Eq (Fo.Root, Fo.Var "y") -> true | _ -> false)

let () =
  Alcotest.run "pathlang"
    [
      ( "label",
        [
          Alcotest.test_case "validation" `Quick test_label_validation;
          Alcotest.test_case "interning" `Quick test_label_interning;
          Alcotest.test_case "intern table flat" `Quick test_label_table_flat;
        ] );
      ( "path",
        [
          Alcotest.test_case "strings" `Quick test_path_string;
          Alcotest.test_case "operations" `Quick test_path_ops;
          prop_concat_assoc;
          prop_roundtrip;
          prop_prefix_concat;
          prop_strip_inverse;
          prop_shortlex;
          prop_prefixes_ordered;
        ] );
      ( "constraint",
        [
          Alcotest.test_case "basics" `Quick test_constraint_basics;
          Alcotest.test_case "shift/unshift" `Quick test_shift_unshift;
          Alcotest.test_case "paths_used" `Quick test_paths_used;
          prop_shift_unshift;
        ] );
      ( "parser",
        [
          Alcotest.test_case "forms" `Quick test_parser_forms;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "document" `Quick test_parser_document;
          prop_parser_roundtrip;
        ] );
      ( "bounded",
        [
          Alcotest.test_case "definition 2.3" `Quick test_bounded;
          Alcotest.test_case "partition sigma0" `Quick test_partition_sigma0;
          Alcotest.test_case "partition rejects" `Quick test_partition_rejects;
          Alcotest.test_case "special form" `Quick test_partition_special_form;
          Alcotest.test_case "infer bound" `Quick test_infer_bound;
        ] );
      ("fragment", [ Alcotest.test_case "P_w(K)" `Quick test_fragments ]);
      ( "fo",
        [
          Alcotest.test_case "rendering" `Quick test_fo_rendering;
          Alcotest.test_case "path expansion" `Quick test_fo_path_expansion;
        ] );
    ]
