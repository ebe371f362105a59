(* Tests of the constraint-interaction analyzer (PC7xx): golden CLI
   output on the shipped fixtures, pass gating (flag / config), PC7xx
   suppression and family severity, the minimality guarantee of PC700
   cores (deterministic and property-based), and the cache-key
   fingerprint satellite (mutating any rule-table row must change the
   key). *)

open Testutil
module Diagnostic = Analysis.Diagnostic
module Cache = Analysis.Cache
module Interact = Analysis.Interact
module Mschema = Schema.Mschema
module Typed_m = Core.Typed_m
module Parser = Pathlang.Parser

let build_root = Filename.dirname (Filename.dirname Sys.executable_name)
let pathctl = Filename.concat build_root (Filename.concat "bin" "pathctl.exe")

let fixture f =
  Filename.concat build_root (Filename.concat "examples/data/lint" f)

let write_temp suffix contents =
  let file = Filename.temp_file "pathctl_interact" suffix in
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

let constraints_of_string s =
  match Parser.constraints_of_string s with
  | Ok cs -> cs
  | Error e -> Alcotest.failf "constraint fixture does not parse: %s" e

(* A fresh closure: the naive congruence fixpoint that checks sorts on
   every merge. *)
let satisfiable schema sigma =
  Option.is_some (Oracle.Countermodel_reference.canonical_model schema ~sigma)

(* --- golden CLI output on the shipped fixtures --------------------------- *)

let test_golden_core () =
  let p = fixture "core.constraints" in
  let s = fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "interact -s %s --schema %s" (Filename.quote p)
         (Filename.quote s))
  in
  Alcotest.(check int) "a core is an error exit" 1 code;
  let expected =
    Printf.sprintf
      "%s:7:1: error[PC700] member of a minimal unsatisfiable core (1 \
       constraint(s)): the core is unsatisfiable over U(Delta) and dropping \
       any member makes it satisfiable\n\
       1 error(s), 0 warning(s), 0 info, 0 hint(s)\n"
      p
  in
  Alcotest.(check string) "golden text report" expected out

let test_golden_core_explain () =
  let p = fixture "core.constraints" in
  let s = fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "interact -s %s --schema %s --explain"
         (Filename.quote p) (Filename.quote s))
  in
  Alcotest.(check int) "still the error exit" 1 code;
  check_contains out
    "; the closure forces book.ref and book.author together across sorts"

let test_golden_entailed () =
  let p = fixture "entailed.constraints" in
  let code, out = run (Printf.sprintf "interact -s %s" (Filename.quote p)) in
  Alcotest.(check int) "DAG edges alone exit 0" 0 code;
  let expected =
    Printf.sprintf
      "%s:8:1: warning[PC701] entailed by the constraint(s) at line(s) 6, 7 \
       (PTIME word procedure): a minimal antecedent subset \xe2\x80\x94 \
       removing any one of them breaks the derivation\n\
       0 error(s), 1 warning(s), 0 info, 0 hint(s)\n"
      p
  in
  Alcotest.(check string) "golden text report" expected out

let test_golden_entailed_explain () =
  let p = fixture "entailed.constraints" in
  let _, out =
    run (Printf.sprintf "interact -s %s --explain" (Filename.quote p))
  in
  check_contains out "; antecedents: a.b -> c; c.d -> e"

let test_golden_interaction () =
  let p = fixture "interaction.constraints" in
  let s = fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "interact -s %s --schema %s --explain"
         (Filename.quote p) (Filename.quote s))
  in
  Alcotest.(check int) "no core, exit 0" 0 code;
  (* both constraints entail each other under typing (the typed reading
     of both is book.ref ~ book), and neither entailment survives on
     untyped data: PC701 and PC702 on each line *)
  check_contains out
    (Printf.sprintf
       "%s:6:1: warning[PC701] entailed by the constraint(s) at line(s) 7 \
        (cubic typed-M procedure, Theorem 4.2)"
       p);
  check_contains out
    (Printf.sprintf
       "%s:7:1: warning[PC701] entailed by the constraint(s) at line(s) 6 \
        (cubic typed-M procedure, Theorem 4.2)"
       p);
  check_contains out
    "info[PC702] this entailment holds over U(Delta) but provably not on \
     untyped data: it exists only through the type constraints (flipped by \
     the declaration(s) of Book along the walked paths)";
  check_contains out
    "typed reading (Lemmas 4.7/4.8): book.ref ~ book, book ~ book.ref";
  check_contains out "0 error(s), 2 warning(s), 2 info, 0 hint(s)"

let test_interact_json_and_sarif () =
  let p = fixture "interaction.constraints" in
  let s = fixture "lint.schema" in
  let _, json =
    run
      (Printf.sprintf "interact -s %s --schema %s --format json"
         (Filename.quote p) (Filename.quote s))
  in
  check_contains json "\"code\":\"PC701\"";
  check_contains json "\"code\":\"PC702\"";
  check_absent json "\"code\":\"PC300\"";
  let _, sarif =
    run
      (Printf.sprintf "interact -s %s --schema %s --format sarif"
         (Filename.quote p) (Filename.quote s))
  in
  check_contains sarif "\"$schema\"";
  check_contains sarif "PC702";
  (* the report filter keeps only the PC7xx family (plus parse errors):
     no PC300 result even though the two constraints imply each other *)
  check_absent sarif "\"ruleId\": \"PC300\""

(* --- gating: off by default, --interact flag, [passes] config ------------ *)

let test_gating () =
  let p = fixture "interaction.constraints" in
  let s = fixture "lint.schema" in
  let plain =
    Printf.sprintf "lint -s %s --schema %s" (Filename.quote p)
      (Filename.quote s)
  in
  let _, out = run plain in
  check_absent out "[PC701]";
  check_absent out "[PC702]";
  let _, out = run (plain ^ " --interact") in
  check_contains out "[PC701]";
  check_contains out "[PC702]";
  (* a config file can switch the pass on without the flag *)
  let cfg = write_temp ".toml" "[passes]\ninteract = true\n" in
  let _, out =
    run (Printf.sprintf "%s --config %s" plain (Filename.quote cfg))
  in
  Sys.remove cfg;
  check_contains out "[PC701]";
  (* ... and the explicit flag wins over a config that says false *)
  let cfg = write_temp ".toml" "[passes]\ninteract = false\n" in
  let _, out =
    run
      (Printf.sprintf "%s --interact --config %s" plain (Filename.quote cfg))
  in
  Sys.remove cfg;
  check_contains out "[PC701]"

(* --- satellite: PC7xx suppression pragmas and family severity ------------- *)

let test_family_suppression () =
  let p =
    write_temp ".constraints"
      "# pathctl-disable-file PC7xx\nbook.ref -> book\nbook -> book.ref\n"
  in
  let s = fixture "lint.schema" in
  let _, out =
    run
      (Printf.sprintf "lint -s %s --schema %s --interact" (Filename.quote p)
         (Filename.quote s))
  in
  Sys.remove p;
  check_absent out "[PC701]";
  check_absent out "[PC702]";
  (* the pragma silenced real findings, so no PC510 *)
  check_absent out "[PC510]"

let test_unused_suppression_is_pc510 () =
  (* nothing in this file ever triggers PC700, so the pragma is stale
     and must be reported *)
  let p =
    write_temp ".constraints" "# pathctl-disable-file PC700\na.b -> c\n"
  in
  let _, out =
    run (Printf.sprintf "lint -s %s --interact" (Filename.quote p))
  in
  Sys.remove p;
  check_contains out "[PC510]"

let test_family_severity_override () =
  let p = fixture "interaction.constraints" in
  let s = fixture "lint.schema" in
  (* family-wide demotion to ignore drops the whole report *)
  let cfg = write_temp ".toml" "[severity]\nPC7xx = \"ignore\"\n" in
  let code, out =
    run
      (Printf.sprintf "interact -s %s --schema %s --config %s"
         (Filename.quote p) (Filename.quote s) (Filename.quote cfg))
  in
  Sys.remove cfg;
  Alcotest.(check int) "ignored family exits 0" 0 code;
  check_absent out "[PC701]";
  check_absent out "[PC702]";
  (* escalating one code turns the DAG edge into a CI failure *)
  let cfg = write_temp ".toml" "[severity]\nPC701 = \"error\"\n" in
  let code, out =
    run
      (Printf.sprintf "interact -s %s --config %s"
         (Filename.quote (fixture "entailed.constraints"))
         (Filename.quote cfg))
  in
  Sys.remove cfg;
  Alcotest.(check int) "escalated PC701 exits 1" 1 code;
  check_contains out "error[PC701]"

(* --- PC700 minimality: deterministic and property-based ------------------- *)

let bib = Mschema.bib_m

let test_core_minimality_fixture () =
  (* both constraints are independently unsatisfiable; the core must
     be exactly one of them, the last (the one a deletion loop keeps) *)
  let cs =
    constraints_of_string "book.title -> book.year\nbook.ref -> book.author"
  in
  match Interact.unsat_core ~schema:bib cs with
  | None -> Alcotest.fail "expected an unsatisfiable core"
  | Some core ->
      Alcotest.(check (list int)) "the last clashing member" [ 1 ] core;
      let kept = List.map (List.nth cs) core in
      Alcotest.(check bool) "the core itself is unsat" false
        (satisfiable bib kept);
      (* minimality: every proper subset of the core is satisfiable
         (trivial for a singleton: the empty theory) — NOT "dropping
         the core fixes Sigma": the other constraint here is an
         independent core of its own *)
      Alcotest.(check bool) "every proper subset of the core is sat" true
        (List.for_all
           (fun i ->
             satisfiable bib
               (List.map (List.nth cs) (List.filter (fun j -> j <> i) core)))
           core);
      let rest = List.filteri (fun i _ -> not (List.mem i core)) cs in
      Alcotest.(check bool) "the remainder is independently unsat too" false
        (satisfiable bib rest)

(* [Typed_m.random_constraints] only emits individually satisfiable
   (same-sort) constraints, so unsatisfiability is planted explicitly:
   a pool of cross-sort clashes mixed into a random satisfiable base. *)
let clashers =
  [
    c_word "book.title" "book.year";
    c_word "person.name" "book.year";
    c_word "book.ref" "book.author";
  ]

let arb_planted = QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int

(* The constraint set of one seed, and the generator state after it. *)
let planted seed =
  let rng = Random.State.make [| seed |] in
  let base = Typed_m.random_constraints ~rng ~schema:bib ~count:5 ~max_len:3 in
  let planted = List.filter (fun _ -> Random.State.bool rng) clashers in
  (* splice the planted clashes at random positions *)
  let cs =
    List.fold_left
      (fun acc c ->
        let i = Random.State.int rng (List.length acc + 1) in
        List.filteri (fun j _ -> j < i) acc @ [ c ]
        @ List.filteri (fun j _ -> j >= i) acc)
      base planted
  in
  (rng, cs)

let test_core_minimality_property =
  q ~count:60 "every complete PC700 core is genuinely minimal" arb_planted
    (fun seed ->
      let _, cs = planted seed in
      match Interact.unsat_core ~schema:bib cs with
      | None -> satisfiable bib cs
      | Some core ->
          let kept = List.map (List.nth cs) core in
          (not (satisfiable bib kept))
          && List.for_all
               (fun i ->
                 satisfiable bib
                   (List.map (List.nth cs)
                      (List.filter (fun j -> j <> i) core)))
               core)

(* --- PC700 and PC401 against fresh closures of every sublist ------------- *)

let sublist cs keep = List.filteri (fun i _ -> List.mem i keep) cs

(* The deletion loop with a fresh satisfiability closure per sublist. *)
let ref_unsat_core cs =
  if satisfiable bib cs then None
  else
    let core =
      List.fold_left
        (fun core i ->
          let without = List.filter (( <> ) i) core in
          if List.length without < List.length core
             && not (satisfiable bib (sublist cs without))
          then without
          else core)
        (List.init (List.length cs) Fun.id)
        (List.init (List.length cs) Fun.id)
    in
    Some core

(* PC401's singles and pairs, each pair (i, j) with i < j, by fresh
   closures; a single is (i, i). *)
let ref_pinpointed cs =
  let n = List.length cs in
  let sat keep = satisfiable bib (sublist cs keep) in
  List.concat_map
    (fun i ->
      if not (sat [ i ]) then [ (i, i) ]
      else
        List.filter_map
          (fun j ->
            if j > i && sat [ j ] && not (sat [ i; j ]) then Some (i, j)
            else None)
          (List.init n Fun.id))
    (List.init n Fun.id)

(* The same pairs read back from PC401 diagnostics on lines 1..n. *)
let pinpointed cs =
  let spanned =
    List.mapi
      (fun i c -> (c, Pathlang.Span.v ~line:(i + 1) ~start_col:1 ~end_col:1))
      cs
  in
  List.filter_map
    (fun (d : Diagnostic.t) ->
      match (d.code, d.span) with
      | "PC401", Some span ->
          let j = span.Pathlang.Span.line - 1 in
          if contains d.message "unsatisfiable on its own" then Some (j, j)
          else
            Scanf.sscanf d.message "contradicts the constraint at line %d"
              (fun l -> Some (l - 1, j))
      | _ -> None)
    (Analysis.Passes.inconsistency ~sigma_file:"f" ~schema:bib spanned)
  |> List.sort compare

let test_core_and_pairs_differential =
  q ~count:100 "PC700 core and PC401 pairs = fresh closures per sublist"
    arb_planted
    (fun seed ->
      let rng, cs = planted seed in
      let keep =
        List.filter (fun _ -> Random.State.bool rng)
          (List.init (List.length cs) Fun.id)
      in
      (* the first clashing kept member's pair is the pair a fresh
         decision names *)
      let kept = sublist cs keep in
      let named =
        match List.find_map (Typed_m.clash bib) kept with
        | None -> satisfiable bib kept
        | Some (p, q) -> (
            match Typed_m.decide bib ~sigma:kept ~phi:(c_word "book" "book") with
            | Ok (Typed_m.Vacuous msg) ->
                String.starts_with
                  ~prefix:(Printf.sprintf "paths %s (sort " (Path.to_string p))
                  msg
                && contains msg
                     (Printf.sprintf " and %s (sort " (Path.to_string q))
            | _ -> false)
      in
      named
      && Interact.unsat_core ~schema:bib cs = ref_unsat_core cs
      && pinpointed cs = List.sort compare (ref_pinpointed cs))

(* --- closures per lint run --------------------------------------------------- *)

(* The [typed_m.closure] span count of [lint --interact --stats text]:
   satisfiability is a sort check per constraint and closes nothing, so
   an unsatisfiable file closes nothing at all and a satisfiable one
   builds the redundancy pass's and the interact pass's subset
   contexts. *)
let test_closure_count () =
  let closures f =
    let _, out =
      run
        (Printf.sprintf "lint -s %s --schema %s --interact --stats text"
           (Filename.quote (fixture f))
           (Filename.quote (fixture "lint.schema")))
    in
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | "typed_m.closure" :: n :: _ -> int_of_string_opt n
        | _ -> None)
      (String.split_on_char '\n' out)
    |> Option.value ~default:0
  in
  Alcotest.(check int) "unsatisfiable: no closure" 0
    (closures "core.constraints");
  Alcotest.(check int) "satisfiable: two subset contexts" 2
    (closures "interaction.constraints")

(* --- satellite: the cache key covers the whole rule table ------------------ *)

let test_cache_key_covers_rules () =
  let parts = [ "sigma"; "schema"; "budget" ] in
  let baseline = Cache.key ~parts in
  Alcotest.(check string) "key = key_with_rules over the live table" baseline
    (Cache.key_with_rules ~rules:Diagnostic.rules ~parts);
  let flip = function
    | Diagnostic.Error -> Diagnostic.Warning
    | Diagnostic.Warning -> Diagnostic.Info
    | Diagnostic.Info -> Diagnostic.Hint
    | Diagnostic.Hint -> Diagnostic.Error
  in
  List.iteri
    (fun i (code, _, _) ->
      let mutate f = List.mapi (fun j r -> if i = j then f r else r) in
      let resev =
        mutate (fun (c, sev, d) -> (c, flip sev, d)) Diagnostic.rules
      in
      Alcotest.(check bool)
        (Printf.sprintf "severity of %s is fingerprinted" code)
        false
        (String.equal baseline (Cache.key_with_rules ~rules:resev ~parts));
      let redesc =
        mutate (fun (c, sev, d) -> (c, sev, d ^ "!")) Diagnostic.rules
      in
      Alcotest.(check bool)
        (Printf.sprintf "description of %s is fingerprinted" code)
        false
        (String.equal baseline (Cache.key_with_rules ~rules:redesc ~parts));
      let dropped = List.filteri (fun j _ -> i <> j) Diagnostic.rules in
      Alcotest.(check bool)
        (Printf.sprintf "dropping %s changes the key" code)
        false
        (String.equal baseline (Cache.key_with_rules ~rules:dropped ~parts)))
    Diagnostic.rules

let test_interact_cache_key_part () =
  (* the interact flag is part of the lint cache key: the same file
     cached without --interact must not serve a hit for --interact *)
  let p = fixture "entailed.constraints" in
  let dir = Filename.temp_file "pathctl_cache" "" in
  Sys.remove dir;
  let _, _ =
    run
      (Printf.sprintf "lint -s %s --cache %s" (Filename.quote p)
         (Filename.quote dir))
  in
  let _, out =
    run
      (Printf.sprintf "lint -s %s --cache %s --interact" (Filename.quote p)
         (Filename.quote dir))
  in
  check_contains out "[PC701]"

let () =
  Alcotest.run "interact"
    [
      ( "golden",
        [
          Alcotest.test_case "core fixture (PC700, exit 1)" `Quick
            test_golden_core;
          Alcotest.test_case "core fixture: --explain names the clash" `Quick
            test_golden_core_explain;
          Alcotest.test_case "entailed fixture (PC701)" `Quick
            test_golden_entailed;
          Alcotest.test_case "entailed fixture: --explain antecedents" `Quick
            test_golden_entailed_explain;
          Alcotest.test_case "interaction fixture (PC701 + PC702)" `Quick
            test_golden_interaction;
          Alcotest.test_case "JSON and SARIF renderings" `Quick
            test_interact_json_and_sarif;
        ] );
      ( "gating",
        [
          Alcotest.test_case "off by default; flag and config enable" `Quick
            test_gating;
          Alcotest.test_case "interact flag is a cache key part" `Quick
            test_interact_cache_key_part;
        ] );
      ( "suppression and severity",
        [
          Alcotest.test_case "PC7xx family pragma silences the report" `Quick
            test_family_suppression;
          Alcotest.test_case "stale PC700 pragma is PC510" `Quick
            test_unused_suppression_is_pc510;
          Alcotest.test_case "family severity override (PC7xx)" `Quick
            test_family_severity_override;
        ] );
      ( "minimality",
        [
          Alcotest.test_case "two independent clashes, singleton core" `Quick
            test_core_minimality_fixture;
          test_core_minimality_property;
          test_core_and_pairs_differential;
        ] );
      ( "closures",
        [
          Alcotest.test_case "lint --interact closes only subset contexts"
            `Quick test_closure_count;
        ] );
      ( "cache",
        [
          Alcotest.test_case "mutating any rule row changes the key" `Quick
            test_cache_key_covers_rules;
        ] );
    ]
