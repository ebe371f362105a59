(* Regular path queries: the Abiteboul-Vianu query formalism next to
   the paper's plain-path constraints.

   The paper contrasts P_c with the constraint language of [4], whose
   paths are regular expressions, and deliberately leaves regex
   constraints out of its implication story (Section 1).  This example
   shows what the library offers on that side: RPQ evaluation, regular
   word constraints as checkable properties, and the interplay with the
   plain-path implication machinery.

   Run with:  dune exec examples/regular_paths.exe *)

module Path = Pathlang.Path
module Graph = Sgraph.Graph
module Regex = Rpq.Regex
module Eval = Rpq.Eval
module NS = Graph.Node_set

let section title = Printf.printf "\n=== %s ===\n" title

let parse s = Rpq.Parser.regex_of (Result.get_ok (Rpq.Parser.parse s))

let () =
  let g = Xmlrep.Bib.figure1 () in
  section "Regular path queries on the Figure 1 bibliography";
  List.iter
    (fun q ->
      let answers = Eval.eval g (parse q) in
      Printf.printf "  %-28s -> {%s}\n" q
        (String.concat ", " (List.map string_of_int (NS.elements answers))))
    [
      "book";
      "book.(ref)*";
      "book.(ref)*.author";
      "book.(author.wrote)*.title";
      "person|book";
    ];

  section "Witnesses";
  let r = parse "book.(ref)*.author" in
  List.iter
    (fun (v, w) -> Printf.printf "  node %d via %s\n" v (Path.to_string w))
    (Eval.witnesses g (Graph.root g) r);

  section "Regular word constraints (the [4] constraint shape), checked";
  let constraints =
    [
      ("book.(ref)*.author", "person");
      ("book.(ref)*", "book");
      ("person.(wrote.author)*", "person");
    ]
  in
  List.iter
    (fun (l, rr) ->
      let c = { Eval.lhs = parse l; rhs = parse rr } in
      Printf.printf "  %-30s -> %-8s : %b\n" l rr (Eval.holds g c))
    constraints;

  section "Language-level reasoning";
  Printf.printf "  book.author included in book.(ref)*.author : %b\n"
    (Regex.included (parse "book.author") (parse "book.(ref)*.author"));
  Printf.printf "  (a|b)* equivalent to (a*.b*)* : %b\n"
    (Regex.equivalent (parse "(a|b)*") (parse "(a*.b*)*"));
  let pruned =
    Eval.prune_union [ parse "book.author"; parse "book.(ref)*.author" ]
  in
  Printf.printf "  union pruned to: %s\n"
    (String.concat " | " (List.map Regex.to_string pruned));

  section "Where the paper's machinery takes over";
  Printf.printf
    "A *finite* family of plain-path constraints can approximate a regular\n\
     constraint: with Sigma = {book.ref -> book, book.author -> person},\n\
     PTIME implication (Thm of [4], our Word_untyped) derives every instance\n\
     book.ref^n.author -> person of the regular constraint above:\n";
  let sigma = Xmlrep.Bib.extent_constraints () in
  List.iter
    (fun n ->
      let lhs =
        Path.of_labels
          ((Pathlang.Label.make "book"
           :: List.concat (List.init n (fun _ -> [ Pathlang.Label.make "ref" ])))
          @ [ Pathlang.Label.make "author" ])
      in
      let phi = Pathlang.Constr.word ~lhs ~rhs:(Path.of_string "person") in
      Printf.printf "  n = %d : %b\n" n
        (Core.Word_untyped.implies_exn ~sigma phi))
    [ 0; 1; 2; 5; 10 ]
