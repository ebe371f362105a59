(* Hardening tests: (1) every text-input parser is total — adversarial
   or random bytes produce [Error _], never an exception or a hang —
   and (2) the Engine keeps its resource-governance promises (deadlines,
   cancellation, escalation). *)

open Testutil
module Engine = Core.Engine
module Verdict = Core.Verdict

(* --- parser totality -------------------------------------------------- *)

let no_raise name f input =
  match f input with
  | Ok _ | Error _ -> true
  | exception e ->
      Printf.eprintf "%s raised %s on %S\n" name (Printexc.to_string e)
        (if String.length input > 200 then String.sub input 0 200 else input);
      false

(* random bytes *)
let gen_bytes =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 64))

(* token soup: fragments of every grammar we parse, glued at random —
   much likelier to reach deep parser states than uniform bytes *)
let gen_soup =
  let tokens =
    [
      "a"; "b"; "eps"; "."; "->"; "<-"; ":"; " "; "\n"; "#"; "0"; "1"; "9999";
      "-1"; "<"; ">"; "</"; "/>"; "<a>"; "</a>"; "<word"; "lhs="; "\"a.b\"";
      "&lt;"; "&"; ";"; "<!--"; "-->"; "<?xml?>"; "="; "'";
    ]
  in
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 40) (oneofl tokens)))

let parsers =
  [
    ("Parser.constraints_of_string",
     fun s -> Result.map ignore (Pathlang.Parser.constraints_of_string s));
    ("Parser.constraint_of_string",
     fun s -> Result.map ignore (Pathlang.Parser.constraint_of_string s));
    ("Sgraph.Io.of_string", fun s -> Result.map ignore (Sgraph.Io.of_string s));
    ("Xml.parse", fun s -> Result.map ignore (Xmlrep.Xml.parse s));
    ("To_graph.graph_of_string",
     fun s -> Result.map ignore (Xmlrep.To_graph.graph_of_string s));
    ("Constraints_xml.parse",
     fun s -> Result.map ignore (Xmlrep.Constraints_xml.parse s));
  ]

let fuzz_tests gen gen_name =
  List.map
    (fun (name, f) ->
      q ~count:500
        (Printf.sprintf "%s total on %s" name gen_name)
        (QCheck.make gen)
        (fun s -> no_raise name f s))
    parsers

(* hand-picked adversarial inputs *)

let test_deep_xml_nesting () =
  (* 100k unclosed opens used to overflow the parser stack; now the
     depth cap turns it into an error *)
  let deep = String.concat "" (List.init 100_000 (fun _ -> "<a>")) in
  (match Xmlrep.Xml.parse deep with
  | Ok _ -> Alcotest.fail "unclosed nesting cannot parse"
  | Error _ -> ());
  (* properly closed but over the cap: also an error, not an overflow *)
  let n = 10_000 in
  let closed =
    String.concat "" (List.init n (fun _ -> "<a>"))
    ^ String.concat "" (List.init n (fun _ -> "</a>"))
  in
  (match Xmlrep.Xml.parse closed with
  | Ok _ -> Alcotest.fail "10k nesting must exceed the depth cap"
  | Error e -> check_bool "mentions depth" true (String.length e > 0));
  (* nesting under the cap still works *)
  let m = 100 in
  let ok_doc =
    String.concat "" (List.init m (fun _ -> "<a>"))
    ^ String.concat "" (List.init m (fun _ -> "</a>"))
  in
  match Xmlrep.Xml.parse ok_doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "100 levels must parse: %s" e

let test_huge_node_id () =
  (* used to allocate one node per id up to max_int — effectively a hang *)
  match Sgraph.Io.of_string "0 a 4611686018427387903\n" with
  | Ok _ -> Alcotest.fail "absurd node id must be rejected"
  | Error e -> check_bool "mentions the cap" true (String.length e > 0)

let test_io_still_accepts_normal () =
  match Sgraph.Io.of_string "0 a 1\n1 b 2\n# comment\n" with
  | Ok g -> check_int "nodes" 3 (Graph.node_count g)
  | Error e -> Alcotest.failf "normal edge list must parse: %s" e

(* A control character is never part of a label: Label.make rejects
   every one, and a stray one after a label (a form feed before the
   newline, a NUL) is a positioned parse error at that label, not a
   label distinct from the one it looks like.  Tab, newline and CR
   delimit tokens, so the parser never hands them to a label. *)
let test_control_chars_not_labels () =
  let controls = List.init 32 Char.chr @ [ '\127' ] in
  List.iter
    (fun c ->
      let tok = "b" ^ String.make 1 c in
      (match Label.make tok with
      | _ -> Alcotest.failf "Label.make accepted %S" tok
      | exception Invalid_argument _ -> ());
      if not (List.mem c [ '\t'; '\n'; '\r' ]) then
        match Pathlang.Parser.document_of_string ("a -> " ^ tok ^ "\n") with
        | Ok _ -> Alcotest.failf "the parser accepted the label %S" tok
        | Error e ->
            check_int (Printf.sprintf "%C: line" c) 1 e.line;
            check_int (Printf.sprintf "%C: column" c) 6 e.col;
            Alcotest.(check string) (Printf.sprintf "%C: token" c) tok e.token)
    controls;
  (* bytes above 127 (UTF-8 names) stay valid *)
  ignore (Label.make "caf\195\169");
  match Pathlang.Parser.document_of_string "a -> b\012\n" with
  | Error e ->
      Alcotest.(check string)
        "form feed message"
        "line 1, column 6: at \"b\\012\": Label.make: forbidden character \
         '\\012' in \"b\\012\""
        (Pathlang.Parser.error_to_string e)
  | Ok _ -> Alcotest.fail "a -> b<FF> must not parse"

(* truncation totality: a partial write or a [Fault.mangle]d read hands
   the parser an arbitrary prefix of a valid document; every prefix
   must come back Ok or Error, never an exception *)
let test_prefix_truncation_total () =
  let cases =
    [
      ( "Sgraph.Io.of_string",
        (fun s -> Result.map ignore (Sgraph.Io.of_string s)),
        "# graph\n0 a 1\n1 b 2\n\n2 a 10\n10 c 0\n" );
      ( "Xml.parse",
        (fun s -> Result.map ignore (Xmlrep.Xml.parse s)),
        "<?xml version=\"1.0\"?>\n<bib id=\"1\"><book year=\"99\">t&amp;s</book><!-- c --><ref/></bib>" );
      ( "Parser.constraints_of_string",
        (fun s -> Result.map ignore (Pathlang.Parser.constraints_of_string s)),
        "# sigma\nbook.author -> person\nbook : author <- wrote\n" );
    ]
  in
  List.iter
    (fun (name, f, doc) ->
      for i = 0 to String.length doc do
        match f (String.sub doc 0 i) with
        | Ok _ | Error _ -> ()
        | exception e ->
            Alcotest.failf "%s raised %s on a %d-byte prefix of %S" name
              (Printexc.to_string e) i doc
      done)
    cases

(* The same two properties for the parsers of the remaining input
   formats, over the shipped example files: every prefix and every
   one-byte mutation (a replacement or a deletion) parses to Ok or
   Error without raising, and where the error is positioned, the
   position lies inside the input. *)

let example_root =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "examples" "data")

(* Every line, schema, ODL, query and configuration parser, with its
   shipped inputs and the error texts it gives over their variants: the
   number of errors and the md5 of their {!Pathlang.Parser.error_to_string}
   texts, one per line, pinned so any change to a message, a position
   or a token shows. *)
let example_parsers =
  let err r = Result.map ignore r in
  [
    ( "Pathlang.Parser.document_of_string",
      [
        "bibliography.constraints"; "sigma0.constraints";
        "lint/contradictory.constraints"; "lint/core.constraints";
        "lint/deadpath.constraints"; "lint/duplicates.constraints";
        "lint/entailed.constraints"; "lint/interaction.constraints";
        "lint/redundant.constraints"; "lint/subsumed.constraints";
        "lint/suppressed.constraints"; "lint/undecidable.constraints";
        "lint/vacuous.constraints";
      ],
      (17401, "9e2a96508862cc9f6316d237be3a2331"),
      fun s -> err (Pathlang.Parser.document_of_string s) );
    ( "Schema_parser.of_string_spanned",
      [ "bibliography.schema"; "lint/lint.schema"; "lint/mplus.schema" ],
      (12579, "da998beaa00fca702eaf75308513e058"),
      fun s -> err (Schema.Schema_parser.of_string_spanned s) );
    ( "Odl.parse",
      [ "bibliography.odl" ],
      (6473, "99d178aa56436a27d6c730b0389941d8"),
      fun s -> err (Schema.Odl.parse s) );
    ( "Rpq.Parser.document_of_string",
      [
        "query/clean.query"; "query/deadbranch.query"; "query/empty.query";
        "query/illtyped.query"; "query/suppressed.query";
      ],
      (3806, "afb1818473e70aa7b29c152c767da5f1"),
      fun s -> err (Rpq.Parser.document_of_string s) );
    ( "Config.parse",
      [ "lint/pathctl.toml" ],
      (2385, "939e96e4b0982b5ac028655a76ead24e"),
      fun s -> err (Analysis.Config.parse s) );
  ]

(* line is 1-based over the input's lines; col is 1-based and may sit
   one past the end of its line *)
let inside input (line, col) =
  let lines = Array.of_list (String.split_on_char '\n' input) in
  line >= 1
  && line <= Array.length lines
  && col >= 1
  && col <= String.length lines.(line - 1) + 1

let mutation_bytes =
  [ '\000'; '\n'; ' '; '\t'; '['; ']'; '{'; '}'; '('; ')'; '<'; '>'; ':';
    ';'; '='; '.'; ','; '*'; '|'; '+'; '"'; '\''; '#'; '/'; 'a'; '0';
    '\255' ]

let variants doc =
  let n = String.length doc in
  let prefixes = List.init (n + 1) (fun i -> String.sub doc 0 i) in
  let deletions =
    List.init n (fun i ->
        String.sub doc 0 i ^ String.sub doc (i + 1) (n - i - 1))
  in
  let replacements =
    List.concat_map
      (fun c ->
        List.init n (fun i ->
            String.mapi (fun j d -> if j = i then c else d) doc))
      mutation_bytes
  in
  prefixes @ deletions @ replacements

let read_example file =
  In_channel.with_open_bin (Filename.concat example_root file)
    In_channel.input_all

let test_example_mutations_total () =
  List.iter
    (fun (name, files, _, parse) ->
      List.iter
        (fun file ->
          let doc = read_example file in
          (match parse doc with
          | Ok () -> ()
          | Error _ -> Alcotest.failf "%s rejects the shipped %s" name file);
          List.iter
            (fun input ->
              match parse input with
              | Ok () -> ()
              | Error (e : Pathlang.Parser.error) ->
                  (* line 0: an ODL declaration error, unpositioned *)
                  if e.line <> 0 && not (inside input (e.line, e.col)) then
                    Alcotest.failf "%s: position %d:%d outside %S" name
                      e.line e.col input
              | exception e ->
                  Alcotest.failf "%s raised %s on a variant of %s: %S" name
                    (Printexc.to_string e) file input)
            (variants doc))
        files)
    example_parsers

let test_example_error_texts_pinned () =
  List.iter
    (fun (name, files, (count, digest), parse) ->
      let buf = Buffer.create 4096 and n = ref 0 in
      List.iter
        (fun file ->
          List.iter
            (fun input ->
              match parse input with
              | Ok () -> ()
              | Error e ->
                  incr n;
                  Buffer.add_string buf (Pathlang.Parser.error_to_string e);
                  Buffer.add_char buf '\n')
            (variants (read_example file)))
        files;
      check_int (name ^ ": errors") count !n;
      Alcotest.(check string)
        (name ^ ": md5 of the error texts")
        digest
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    example_parsers

(* --- engine: deadlines ------------------------------------------------ *)

(* one forward constraint whose repair always creates a fresh node: the
   chase on it diverges, so only a budget can end the run *)
let diverging_sigma = [ c_word "a" "a.a" ]

let test_deadline_honored () =
  let budget = Engine.Budget.v ~timeout:0.3 () in
  let t0 = Engine.now_ns () in
  let v =
    Core.Semidecide.implies ~ctl:(Engine.start budget) ~enum_nodes:0
      ~sigma:diverging_sigma (c_word "a" "b")
  in
  let elapsed = Int64.to_float (Int64.sub (Engine.now_ns ()) t0) /. 1e9 in
  (match v with
  | Verdict.Unknown e ->
      check_bool "reason is Deadline" true (e.Verdict.reason = Verdict.Deadline);
      check_bool "made progress" true (e.Verdict.steps > 0)
  | _ -> Alcotest.fail "diverging sigma cannot be decided by the chase");
  check_bool "returned promptly" true (elapsed < 1.5)

let test_default_budget_has_deadline () =
  check_bool "default budget is deadline-bounded" true
    (Engine.Budget.default.Engine.Budget.timeout <> None)

(* --- engine: cancellation --------------------------------------------- *)

let test_cancel_token () =
  let cancel = Engine.Cancel.create () in
  let ctl = Engine.start (Engine.Budget.v ~cancel ()) in
  Engine.Cancel.cancel cancel;
  let v =
    Core.Semidecide.implies ~ctl ~enum_nodes:0 ~sigma:diverging_sigma
      (c_word "a" "b")
  in
  match v with
  | Verdict.Unknown e ->
      check_bool "reason is Cancelled" true
        (e.Verdict.reason = Verdict.Cancelled)
  | _ -> Alcotest.fail "a cancelled run must report Unknown"

let test_cancel_beats_steps () =
  (* trip priority: a cancelled controller never downgrades to Steps *)
  let cancel = Engine.Cancel.create () in
  let ctl = Engine.start (Engine.Budget.v ~max_steps:1 ~cancel ()) in
  ignore (Engine.tick ctl ());
  Engine.Cancel.cancel cancel;
  ignore (Engine.tick ctl ());
  ignore (Engine.tick ctl ());
  check_bool "Cancelled wins" true (Engine.tripped ctl = Some Verdict.Cancelled)

(* --- engine: step budget diagnostics ----------------------------------- *)

let test_steps_exhaustion_diagnostics () =
  let ctl = Engine.start (Engine.Budget.v ~max_steps:5 ()) in
  let v =
    Core.Chase.implies ~ctl ~sigma:diverging_sigma (c_word "a" "b")
  in
  match v with
  | Verdict.Unknown e ->
      check_bool "reason is Steps" true (e.Verdict.reason = Verdict.Steps);
      check_int "spent exactly the budget + 1" 6 e.Verdict.steps
  | _ -> Alcotest.fail "5 steps cannot settle a diverging chase"

(* --- engine: escalation ----------------------------------------------- *)

(* The Lemma 4.5 encoding of a free-commutative word problem: proving
   a^9.b^9 = b^9.a^9 takes the chase ~180 repair steps, so a fixed
   100-step budget gives up where escalation's growing ladder (64, 256,
   ...) succeeds — a real witness that escalation converts Unknown into
   a verdict. *)
let hard_positive_instance () =
  let pres = Monoid.Examples.free_commutative2 in
  let rep s n = String.concat "." (List.init n (fun _ -> s)) in
  let u = path (rep "a" 9 ^ "." ^ rep "b" 9)
  and v = path (rep "b" 9 ^ "." ^ rep "a" 9) in
  let sigma = Core.Encode_pwk.encode pres in
  let phi1, _ = Core.Encode_pwk.encode_test (u, v) in
  (sigma, phi1)

let test_escalation_resolves () =
  let sigma, phi = hard_positive_instance () in
  (* a small fixed budget gives up... *)
  (match
     Core.Semidecide.implies
       ~ctl:(Engine.start (Engine.Budget.steps_nodes 100 100))
       ~enum_nodes:0 ~sigma phi
   with
  | Verdict.Unknown e ->
      check_bool "fixed budget trips on steps or nodes" true
        (e.Verdict.reason = Verdict.Steps || e.Verdict.reason = Verdict.Nodes)
  | _ -> Alcotest.fail "100 steps should not settle this encoding");
  (* ...iterative deepening does not *)
  match Core.Semidecide.implies_escalating ~enum_nodes:0 ~sigma phi with
  | Verdict.Implied -> ()
  | v ->
      Alcotest.failf "escalation must prove the positive instance, got %a"
        (fun ppf -> Verdict.pp ppf) v

let test_escalation_reports_rounds () =
  let v =
    Core.Semidecide.implies_escalating ~base_steps:4 ~base_nodes:4 ~factor:2
      ~max_rounds:3 ~enum_nodes:0 ~sigma:diverging_sigma (c_word "a" "b")
  in
  match v with
  | Verdict.Unknown e ->
      check_int "all rounds ran" 3 e.Verdict.rounds;
      check_bool "steps accumulate across rounds" true (e.Verdict.steps > 4)
  | _ -> Alcotest.fail "a diverging instance stays Unknown under escalation"

let test_escalation_stops_at_deadline () =
  let t0 = Engine.now_ns () in
  let v =
    Core.Semidecide.implies_escalating ~timeout:0.3 ~max_rounds:1000
      ~enum_nodes:0 ~sigma:diverging_sigma (c_word "a" "b")
  in
  let elapsed = Int64.to_float (Int64.sub (Engine.now_ns ()) t0) /. 1e9 in
  (match v with
  | Verdict.Unknown e ->
      check_bool "deadline aborts the ladder" true
        (e.Verdict.reason = Verdict.Deadline)
  | _ -> Alcotest.fail "diverging sigma stays Unknown");
  check_bool "ladder honors the shared deadline" true (elapsed < 1.5)

(* --- semidecide: the enumeration clamp is reported --------------------- *)

let test_enum_clamp_reported () =
  (* 3 labels in play and enum_nodes = 3 requested: the cap must drop to
     2 and say so in the diagnostics *)
  let sigma = [ c_word "a" "b"; c_word "b" "c" ] in
  let phi = c_word "c" "a.b.c.a.b.c" in
  let ctl = Engine.start (Engine.Budget.v ~max_steps:1 ~max_nodes:1 ()) in
  match Core.Semidecide.implies ~ctl ~enum_nodes:3 ~sigma phi with
  | Verdict.Refuted _ -> ()
  | Verdict.Unknown e ->
      check_bool "clamp note present" true
        (List.exists
           (fun n ->
             let has sub =
               let rec go i =
                 i + String.length sub <= String.length n
                 && (String.sub n i (String.length sub) = sub || go (i + 1))
               in
               go 0
             in
             has "clamped")
           e.Verdict.notes)
  | Verdict.Implied -> Alcotest.fail "1 step cannot prove this instance"

let () =
  Alcotest.run "hardening"
    [
      ( "parser totality",
        fuzz_tests gen_bytes "random bytes"
        @ fuzz_tests gen_soup "token soup"
        @ [
            Alcotest.test_case "deep XML nesting" `Quick test_deep_xml_nesting;
            Alcotest.test_case "huge node id" `Quick test_huge_node_id;
            Alcotest.test_case "normal edge list still parses" `Quick
              test_io_still_accepts_normal;
            Alcotest.test_case "prefix truncation total" `Quick
              test_prefix_truncation_total;
            Alcotest.test_case "control characters are not labels" `Quick
              test_control_chars_not_labels;
            Alcotest.test_case "example mutations total, positions inside"
              `Quick test_example_mutations_total;
            Alcotest.test_case "example error texts pinned" `Quick
              test_example_error_texts_pinned;
          ] );
      ( "engine governance",
        [
          Alcotest.test_case "deadline honored" `Quick test_deadline_honored;
          Alcotest.test_case "default budget has deadline" `Quick
            test_default_budget_has_deadline;
          Alcotest.test_case "cancel token" `Quick test_cancel_token;
          Alcotest.test_case "cancel beats steps" `Quick test_cancel_beats_steps;
          Alcotest.test_case "steps diagnostics" `Quick
            test_steps_exhaustion_diagnostics;
          Alcotest.test_case "escalation resolves cyclic-3" `Quick
            test_escalation_resolves;
          Alcotest.test_case "escalation reports rounds" `Quick
            test_escalation_reports_rounds;
          Alcotest.test_case "escalation stops at deadline" `Quick
            test_escalation_stops_at_deadline;
          Alcotest.test_case "enumeration clamp reported" `Quick
            test_enum_clamp_reported;
        ] );
    ]
