open Testutil
module Path = Pathlang.Path
module Constr = Pathlang.Constr
module I = Core.Interaction
module Mschema = Schema.Mschema

let inverse_sigma =
  [ c_bwd "book" "author" "wrote"; c_bwd "person" "wrote" "author" ]

(* the paper's headline: same instance, different answers with and
   without the type system *)
let test_headline_interaction () =
  let phi = c_word "book.author.wrote" "book" in
  let r = I.compare ~schema:Mschema.bib_m ~sigma:inverse_sigma phi in
  (* untyped: refuted by the chase *)
  check_bool "untyped refuted" true (Core.Verdict.is_refuted r.I.chase);
  (* typed: implied with a certificate *)
  (match r.I.typed with
  | Some (I.M_decided (Core.Typed_m.Implied d)) ->
      check_bool "certificate" true
        (Core.Axioms.proves ~sigma:inverse_sigma ~goal:phi d)
  | _ -> Alcotest.fail "expected M_decided Implied");
  (* phi is not a word constraint set (sigma has backward constraints) *)
  check_bool "word n/a" true (r.I.word_untyped = None)

let test_word_route () =
  let sigma = Xmlrep.Bib.extent_constraints () in
  let r = I.compare ~sigma (c_word "book.ref.author" "person") in
  check_bool "word decided" true (r.I.word_untyped = Some (Some true));
  check_bool "chase agrees" true (Core.Verdict.is_implied r.I.chase)

let test_local_route () =
  let sigma = Xmlrep.Bib.sigma0 () in
  let phi = Xmlrep.Bib.phi0 () in
  let r = I.compare ~sigma phi in
  match r.I.local_extent with
  | Some (alpha, k, b) ->
      check_bool "bound inferred" true
        (Path.is_empty alpha && Pathlang.Label.to_string k = "MIT");
      check_bool "phi0 not implied" false b
  | None -> Alcotest.fail "instance is prefix-bounded"

let test_mplus_route () =
  let pres = Monoid.Examples.cyclic 2 in
  let enc = Core.Encode_mplus.encode pres in
  let phi = Core.Encode_mplus.encode_test enc (path "a", Path.empty) in
  let r =
    I.compare ~schema:enc.Core.Encode_mplus.schema
      ~search_bounds:
        { Core.Typed_search.max_per_class = 2; max_per_atom = 1; max_structures = 150_000 }
      ~sigma:enc.Core.Encode_mplus.sigma phi
  in
  (match r.I.typed with
  | Some (I.Mplus_refuted _) -> ()
  | _ -> Alcotest.fail "expected a bounded M+ refutation");
  (* and the provable instance stays open (no countermodel exists) *)
  let phi_pos = Core.Encode_mplus.encode_test enc (path "a.a", Path.empty) in
  let r_pos =
    I.compare ~schema:enc.Core.Encode_mplus.schema
      ~search_bounds:
        { Core.Typed_search.max_per_class = 2; max_per_atom = 1; max_structures = 150_000 }
      ~sigma:enc.Core.Encode_mplus.sigma phi_pos
  in
  match r_pos.I.typed with
  | Some (I.Mplus_open _) -> ()
  | _ -> Alcotest.fail "expected open"

let test_pp_smoke () =
  let r = I.compare ~sigma:inverse_sigma (c_word "book" "book") in
  let s = Format.asprintf "%a" I.pp r in
  check_bool "renders" true (String.length s > 20)

let () =
  Alcotest.run "interaction"
    [
      ( "routes",
        [
          Alcotest.test_case "headline (typed vs untyped)" `Quick
            test_headline_interaction;
          Alcotest.test_case "word route" `Quick test_word_route;
          Alcotest.test_case "local-extent route" `Quick test_local_route;
          Alcotest.test_case "M+ route" `Quick test_mplus_route;
          Alcotest.test_case "pp" `Quick test_pp_smoke;
        ] );
    ]
