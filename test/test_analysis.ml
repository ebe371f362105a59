(* Tests of the static-analysis library (lib/analysis) and the pathctl
   lint subcommand: golden outputs per pass in text and JSON form, SARIF
   structure, redundancy cross-checked against the decision procedures,
   and budget hardening. *)

module Diagnostic = Analysis.Diagnostic
module Classify = Analysis.Classify
module Lint = Analysis.Lint
module Parser = Pathlang.Parser
module Fragment = Pathlang.Fragment
module Span = Pathlang.Span

(* The test executable lives at _build/default/test/..., so the CLI
   binary and the copied examples tree are under the sibling build
   root. *)
let build_root = Filename.dirname (Filename.dirname Sys.executable_name)
let pathctl = Filename.concat build_root (Filename.concat "bin" "pathctl.exe")
let fixture f = Filename.concat build_root (Filename.concat "examples/data/lint" f)
let example f = Filename.concat build_root (Filename.concat "examples/data" f)

let write_temp suffix contents =
  let file = Filename.temp_file "pathctl_lint" suffix in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc contents);
  file

let run ?cwd args =
  let out_file = Filename.temp_file "pathctl_out" ".txt" in
  let cmd =
    Printf.sprintf "%s%s %s > %s 2>&1"
      (match cwd with None -> "" | Some d -> "cd " ^ Filename.quote d ^ " && ")
      (Filename.quote pathctl) args (Filename.quote out_file)
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

(* occurrences of each diagnostic code in a rendered report *)
let code_counts out =
  let codes =
    [ "PC001"; "PC002"; "PC003"; "PC100"; "PC101"; "PC102"; "PC103";
      "PC200"; "PC201"; "PC300"; "PC301"; "PC302"; "PC400"; "PC401";
      "PC500"; "PC501"; "PC502"; "PC503"; "PC504"; "PC505"; "PC510";
      "PC600"; "PC601"; "PC602"; "PC700"; "PC701"; "PC702"; "PC703";
      "PC800"; "PC801"; "PC802"; "PC803" ]
  in
  List.filter_map
    (fun code ->
      let tag = "[" ^ code ^ "]" in
      let n = String.length out and m = String.length tag in
      let rec count i acc =
        if i + m > n then acc
        else if String.sub out i m = tag then count (i + 1) (acc + 1)
        else count (i + 1) acc
      in
      match count 0 0 with 0 -> None | k -> Some (code, k))
    codes

let check_codes name out expected =
  Alcotest.(check (list (pair string int))) name expected (code_counts out)

let mschema_of_string s =
  match Schema.Schema_parser.of_string s with
  | Ok m -> m
  | Error e -> Alcotest.failf "schema fixture does not parse: %s" e

let constraints_of_string s =
  match Parser.constraints_of_string s with
  | Ok cs -> cs
  | Error e -> Alcotest.failf "constraint fixture does not parse: %s" e

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

(* --- satellite: parser errors carry line / column / token ---------------- *)

(* each constraint of a document with the span of its text *)
let spanned_of_string src =
  match Parser.document_of_string src with
  | Ok doc ->
      List.map
        (fun (l : Parser.located) -> (l.constr, l.span))
        doc.Parser.constraints
  | Error e -> Alcotest.failf "parse: %s" (Parser.error_to_string e)

let test_parser_error_spans () =
  (match Parser.document_of_string "book..author -> person" with
  | Ok _ -> Alcotest.fail "empty label should not parse"
  | Error e ->
      Alcotest.(check int) "line" 1 e.Parser.line;
      Alcotest.(check int) "col" 6 e.Parser.col);
  (match Parser.document_of_string "a.b -> c\n\nx : y -> z ->" with
  | Ok _ -> Alcotest.fail "double arrow should not parse"
  | Error e ->
      Alcotest.(check int) "error on line 3" 3 e.Parser.line;
      Alcotest.(check bool) "column is positive" true (e.Parser.col >= 1));
  match Parser.constraint_of_string "book..author -> person" with
  | Ok _ -> Alcotest.fail "empty label should not parse"
  | Error msg ->
      Alcotest.(check bool) "legacy message names the column" true
        (contains msg "column 6")

let test_schema_parser_error_spans () =
  match Schema.Schema_parser.of_string_spanned
          "kind M\nclass Person = [ name string ]\ndb = [ p: Person ]\n"
  with
  | Ok _ -> Alcotest.fail "missing colon should not parse"
  | Error e ->
      Alcotest.(check int) "line" 2 e.Parser.line;
      Alcotest.(check bool) "column is positive" true (e.Parser.col >= 1);
      Alcotest.(check bool) "token is reported" true
        (String.length e.Parser.token > 0)

let test_spanned_parse_roundtrip () =
  let spanned =
    spanned_of_string
      "# comment\nbook.author -> person\n\nperson : wrote <- author\n"
  in
  Alcotest.(check int) "two constraints" 2 (List.length spanned);
  let lines = List.map (fun (_, s) -> s.Span.line) spanned in
  Alcotest.(check (list int)) "1-based physical lines" [ 2; 4 ] lines

(* --- satellite: Fragment.errors_all -------------------------------------- *)

let test_errors_all () =
  let sigma =
    constraints_of_string
      "book.author -> person\nbook : author <- wrote\nperson : wrote <- author\n"
  in
  (match Fragment.errors_all Fragment.in_pw sigma with
  | Ok () -> Alcotest.fail "backward constraints are not in P_w"
  | Error offenders ->
      Alcotest.(check int) "both offenders returned" 2 (List.length offenders));
  let words = constraints_of_string "book.author -> person\n" in
  match Fragment.errors_all Fragment.in_pw words with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "word constraints are in P_w"

(* --- classifier: the Table 1 matrix -------------------------------------- *)

let test_classifier_cells () =
  let module D = Core.Decide in
  let words = constraints_of_string "book.author -> person\nperson.wrote -> book\n" in
  let full =
    constraints_of_string
      "book.author -> person\nbook : author <- wrote\nperson : wrote <- author\n"
  in
  let off_paths =
    constraints_of_string
      "book.author -> person\nbook : author <- wrote\nWarner.person : wrote <- author\n"
  in
  let m = mschema_of_string m_schema in
  let mplus = mschema_of_string mplus_schema in
  let cell = D.cell words in
  Alcotest.(check bool) "P_w / untyped decidable" true cell.D.decidable;
  Alcotest.(check bool) "word fragment" true (cell.D.fragment = D.P_w);
  Alcotest.(check bool) "PTIME word procedure" true
    (cell.D.procedure = D.Ptime_word);
  let cell = D.cell full in
  Alcotest.(check bool) "full P_c / untyped undecidable" false
    cell.D.decidable;
  let cell = D.cell ~schema:m full in
  Alcotest.(check bool) "full P_c / M decidable" true cell.D.decidable;
  Alcotest.(check bool) "cubic procedure" true
    (cell.D.procedure = D.Cubic_m);
  (* off Paths(Delta) the cubic procedure does not apply: the untyped
     route runs, sound only *)
  let cell = D.cell ~schema:m off_paths in
  Alcotest.(check bool) "off Paths(Delta) / M: the chase, not exact" true
    (cell.D.decidable && cell.D.procedure = D.Semidecision
    && cell.D.route = D.Chase && not cell.D.exact);
  let cell = D.cell ~schema:mplus words in
  Alcotest.(check bool) "P_w / M+ undecidable" false cell.D.decidable;
  (* the Section 2.2 instance is prefix-bounded, hence decidable *)
  let sigma0 =
    constraints_of_string
      "MIT : book.author -> person\nMIT : person.wrote -> book\n\
       Warner.book : author <- wrote\nWarner.person : wrote <- author\n"
  in
  let phi =
    match Parser.constraint_of_string "MIT : book.ref -> book" with
    | Ok c -> c
    | Error e -> Alcotest.failf "phi: %s" e
  in
  let cell = D.cell ~phi sigma0 in
  Alcotest.(check bool) "prefix-bounded decidable (Theorem 5.1)" true
    cell.D.decidable;
  match cell.D.fragment with
  | D.Prefix_bounded _ -> ()
  | _ -> Alcotest.fail "expected prefix-bounded"

(* --- golden outputs per pass --------------------------------------------- *)

let test_golden_redundant_text () =
  let p = fixture "redundant.constraints" in
  let code, out = run (Printf.sprintf "lint -s %s" (Filename.quote p)) in
  Alcotest.(check int) "exit 0 (warnings only)" 0 code;
  let expected =
    p
    ^ ": info[PC100] classified: fragment P_w under untyped \
       (semistructured): decidable (Abiteboul-Vianu, restated in Section \
       4.2); applicable procedure: PTIME word procedure (pathctl implies)\n"
    ^ p
    ^ ": info[PC301] a minimal cover keeps 2 of 3 constraint(s): \
       book.author -> person; person.wrote -> book\n"
    ^ p
    ^ ":6:1: warning[PC300] implied by the rest of Sigma (PTIME word \
       procedure): removing it preserves the constraint theory\n"
    ^ "0 error(s), 1 warning(s), 2 info, 0 hint(s)\n"
  in
  Alcotest.(check string) "golden text report" expected out

let test_golden_redundant_json () =
  let p = fixture "redundant.constraints" in
  let code, out =
    run (Printf.sprintf "lint -s %s --format json" (Filename.quote p))
  in
  Alcotest.(check int) "exit 0" 0 code;
  let expected =
    Printf.sprintf
      "{\"code\":\"PC100\",\"severity\":\"info\",\"file\":%S,\"message\":\"classified: \
       fragment P_w under untyped (semistructured): decidable \
       (Abiteboul-Vianu, restated in Section 4.2); applicable procedure: \
       PTIME word procedure (pathctl implies)\"}\n\
       {\"code\":\"PC301\",\"severity\":\"info\",\"file\":%S,\"message\":\"a minimal \
       cover keeps 2 of 3 constraint(s): book.author -> person; \
       person.wrote -> book\"}\n\
       {\"code\":\"PC300\",\"severity\":\"warning\",\"file\":%S,\"line\":6,\"startColumn\":1,\"endColumn\":26,\"message\":\"implied \
       by the rest of Sigma (PTIME word procedure): removing it preserves \
       the constraint theory\"}\n"
      p p p
  in
  Alcotest.(check string) "golden JSON lines" expected out

let test_golden_contradictory_text () =
  let p = fixture "contradictory.constraints" in
  let s = fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "lint -s %s --schema %s" (Filename.quote p)
         (Filename.quote s))
  in
  Alcotest.(check int) "exit 1 (errors fired)" 1 code;
  let expected =
    p
    ^ ": info[PC100] classified: fragment P_w under schema of kind M: \
       decidable (Theorem 4.2); applicable procedure: cubic certified \
       procedure (pathctl implies-typed)\n"
    ^ p
    ^ ": error[PC400] Sigma is unsatisfiable over U(Delta): the congruence \
       closure forces two paths of different sorts together; every \
       implication from it holds vacuously\n"
    ^ p
    ^ ":4:1: error[PC401] unsatisfiable on its own: it forces two paths of \
       different sorts to meet\n"
    ^ "2 error(s), 0 warning(s), 1 info, 0 hint(s)\n"
  in
  Alcotest.(check string) "golden text report" expected out

(* Past 50 constraints PC401 still pinpoints the clashing member, and
   PC400 carries no "too many constraints" suffix: the check is one sort
   lookup per constraint. *)
let test_inconsistency_past_50 () =
  let p =
    write_temp ".constraints"
      (String.concat ""
         (List.init 60 (fun i ->
              if i = 30 then "book.title -> book.year\n"
              else
                Printf.sprintf "book%s -> book\n"
                  (String.concat "" (List.init (i + 1) (fun _ -> ".ref"))))))
  in
  let code, out =
    run
      (Printf.sprintf "lint -s %s --schema %s" (Filename.quote p)
         (Filename.quote (fixture "lint.schema")))
  in
  Sys.remove p;
  Alcotest.(check int) "exit 1 (errors fired)" 1 code;
  let expected =
    p
    ^ ": info[PC100] classified: fragment P_w under schema of kind M: \
       decidable (Theorem 4.2); applicable procedure: cubic certified \
       procedure (pathctl implies-typed)\n"
    ^ p
    ^ ": error[PC400] Sigma is unsatisfiable over U(Delta): the congruence \
       closure forces two paths of different sorts together; every \
       implication from it holds vacuously\n"
    ^ p
    ^ ":31:1: error[PC401] unsatisfiable on its own: it forces two paths of \
       different sorts to meet\n"
    ^ "2 error(s), 0 warning(s), 1 info, 0 hint(s)\n"
  in
  Alcotest.(check string) "60 constraints, one clash at line 31" expected out

let test_vacuity_codes () =
  let p = fixture "vacuous.constraints" in
  let s = fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "lint -s %s --schema %s" (Filename.quote p)
         (Filename.quote s))
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_codes "vacuity + hygiene codes" out
    [ ("PC100", 1); ("PC200", 1); ("PC201", 1); ("PC501", 1); ("PC600", 3) ]

let test_duplicates_codes () =
  let p = fixture "duplicates.constraints" in
  let code, out = run (Printf.sprintf "lint -s %s" (Filename.quote p)) in
  Alcotest.(check int) "exit 0" 0 code;
  check_codes "hygiene codes" out
    [ ("PC100", 1); ("PC300", 3); ("PC301", 1); ("PC500", 1); ("PC503", 1);
      ("PC504", 1) ];
  check_contains out "duplicate of the constraint at line 4"

let test_undecidable_codes () =
  let p = fixture "undecidable.constraints" in
  let code, out = run (Printf.sprintf "lint -s %s" (Filename.quote p)) in
  Alcotest.(check int) "exit 0 (undecidability is a warning)" 0 code;
  check_contains out "[PC101]";
  check_contains out "undecidable (Theorem 4.1)";
  check_contains out "[PC103]";
  check_contains out "supplying a schema of kind M"

let test_mplus_codes () =
  let p = fixture "redundant.constraints" in
  let s = fixture "mplus.schema" in
  let code, out =
    run
      (Printf.sprintf "lint -s %s --schema %s" (Filename.quote p)
         (Filename.quote s))
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out "[PC102]";
  check_contains out "(Theorem 5.2)";
  check_contains out "[PC103]";
  check_contains out "drop the set type at class Person"

(* --- SARIF ---------------------------------------------------------------- *)

let test_sarif_structure () =
  let p = fixture "contradictory.constraints" in
  let s = fixture "lint.schema" in
  let code, out =
    run
      (Printf.sprintf "lint -s %s --schema %s --format sarif"
         (Filename.quote p) (Filename.quote s))
  in
  Alcotest.(check int) "exit 1 in sarif mode too" 1 code;
  check_contains out "\"version\":\"2.1.0\"";
  check_contains out "https://json.schemastore.org/sarif-2.1.0.json";
  check_contains out "\"name\":\"pathctl\"";
  check_contains out "\"ruleId\":\"PC400\"";
  check_contains out "\"ruleId\":\"PC401\"";
  check_contains out "\"level\":\"error\"";
  check_contains out "\"startLine\":4";
  check_contains out "physicalLocation";
  (* every rule of the table is declared exactly once in the driver *)
  List.iter
    (fun (code, _, _) -> check_contains out (Printf.sprintf "\"id\":%S" code))
    Diagnostic.rules

(* Byte-exact reports: every lint fixture, with the schema the fixture
   README runs it with, in each output format.  The expected bytes are
   under test/golden/lint, named <fixture>[.<schema>].<format>.  The run
   starts in the build root and names its inputs relatively, so the
   reports carry the same paths wherever the tree is built. *)
let golden_cases =
  [
    ("undecidable", None, 0);
    ("vacuous", Some "lint", 0);
    ("redundant", None, 0);
    ("redundant", Some "mplus", 0);
    ("contradictory", Some "lint", 1);
    ("duplicates", None, 0);
    ("subsumed", None, 0);
    ("suppressed", None, 0);
    ("deadpath", Some "lint", 0);
    ("deadpath", Some "mplus", 0);
    ("core", Some "lint", 1);
    ("entailed", None, 0);
    ("interaction", Some "lint", 0);
  ]

let test_renderer_goldens () =
  List.iter
    (fun (fixture, schema, exit) ->
      let name, schema_arg =
        match schema with
        | None -> (fixture, "")
        | Some s -> (fixture ^ "." ^ s, " --schema examples/data/lint/" ^ s ^ ".schema")
      in
      List.iter
        (fun format ->
          let code, out =
            run ~cwd:build_root
              (Printf.sprintf "lint -s examples/data/lint/%s.constraints%s --format %s"
                 fixture schema_arg format)
          in
          let golden = Printf.sprintf "test/golden/lint/%s.%s" name format in
          Alcotest.(check int) (golden ^ ": exit") exit code;
          Alcotest.(check string) golden
            (In_channel.with_open_bin (Filename.concat build_root golden)
               In_channel.input_all)
            out)
        [ "text"; "json"; "sarif" ])
    golden_cases

(* In-process renders of a spanless diagnostic whose message and file
   hold every character JSON must escape: both documents re-parse to the
   original strings.  Backspace and form feed take their short escapes
   ([\b], [\f]), other control characters [\u00XX]. *)
let test_render_escapes () =
  let message = "quote \" backslash \\ newline \n tab \t bs \b ff \012 soh \001" in
  let d =
    Diagnostic.make ~code:"PC100" ~severity:Diagnostic.Info ~file:"a\"b.c" message
  in
  let module Json = Obs.Json in
  let parse what s =
    match Json.parse s with
    | Ok v -> v
    | Error m -> Alcotest.failf "%s does not re-parse: %s" what m
  in
  let str v k = Option.bind (Json.member k v) Json.as_string in
  let json = Diagnostic.render_json [ d ] in
  Alcotest.(check bool) "one line" true
    (String.index_opt json '\n' = Some (String.length json - 1));
  let v = parse "JSON line" (String.trim json) in
  Alcotest.(check (option string)) "JSON message" (Some message) (str v "message");
  Alcotest.(check (option string)) "JSON file" (Some "a\"b.c") (str v "file");
  Alcotest.(check bool) "spanless: no line" true (Json.member "line" v = None);
  check_contains json {|bs \b ff \f soh \u0001"|};
  let sarif = Diagnostic.render_sarif [ d ] in
  let doc = parse "SARIF" sarif in
  let result =
    match
      Option.bind (Json.member "runs" doc) Json.as_list
      |> Option.map (List.map (fun run -> Json.member "results" run))
    with
    | Some [ Some (Json.List [ r ]) ] -> r
    | _ -> Alcotest.fail "SARIF: expected one run with one result"
  in
  Alcotest.(check (option string)) "SARIF message" (Some message)
    (Option.bind (Json.member "message" result) (fun m -> str m "text"));
  let location =
    match Option.bind (Json.member "locations" result) Json.as_list with
    | Some [ l ] -> Option.get (Json.member "physicalLocation" l)
    | _ -> Alcotest.fail "SARIF: expected one location"
  in
  Alcotest.(check (option string)) "SARIF uri" (Some "a\"b.c")
    (Option.bind (Json.member "artifactLocation" location) (fun a -> str a "uri"));
  Alcotest.(check bool) "spanless: no region" true
    (Json.member "region" location = None);
  check_contains sarif {|bs \b ff \f soh \u0001"|};
  (* no results: the constant head and tail alone still form a document *)
  ignore (parse "empty SARIF" (Diagnostic.render_sarif []))

let test_sarif_via_output_flag () =
  let p = fixture "redundant.constraints" in
  let out_file = Filename.temp_file "lint" ".sarif" in
  let code, stdout_text =
    run
      (Printf.sprintf "lint -s %s --format sarif -o %s" (Filename.quote p)
         (Filename.quote out_file))
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check string) "nothing on stdout" "" stdout_text;
  let out = In_channel.with_open_text out_file In_channel.input_all in
  Sys.remove out_file;
  check_contains out "\"ruleId\":\"PC300\"";
  check_contains out "\"level\":\"warning\""

(* --- redundancy cross-checked against the decision procedures ------------- *)

let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let pc300_lines diags =
  List.filter_map
    (fun d ->
      if d.Diagnostic.code = "PC300" then
        Option.map (fun s -> s.Span.line) d.Diagnostic.span
      else None)
    diags

let test_redundancy_cross_check_untyped () =
  let p = fixture "redundant.constraints" in
  let diags = Lint.lint_paths ~sigma_file:p () in
  let flagged = pc300_lines diags in
  Alcotest.(check (list int)) "exactly line 6 flagged" [ 6 ] flagged;
  let spanned =
    spanned_of_string (In_channel.with_open_text p In_channel.input_all)
  in
  (* every flagged constraint really is implied by the others, per the
     independent PTIME word procedure *)
  List.iter
    (fun line ->
      let i =
        match
          List.find_index (fun (_, s) -> s.Span.line = line) spanned
        with
        | Some i -> i
        | None -> Alcotest.failf "no constraint on line %d" line
      in
      let phi = fst (List.nth spanned i) in
      let rest = List.map fst (drop_nth i spanned) in
      match Core.Word_untyped.implies ~sigma:rest phi with
      | Ok true -> ()
      | Ok false ->
          Alcotest.failf "line %d flagged but not implied" line
      | Error _ -> Alcotest.fail "not a word instance")
    flagged;
  (* and the unflagged ones are not removable *)
  List.iteri
    (fun i (phi, s) ->
      if not (List.mem s.Span.line flagged) then
        match
          Core.Word_untyped.implies ~sigma:(List.map fst (drop_nth i spanned))
            phi
        with
        | Ok false -> ()
        | Ok true -> Alcotest.failf "line %d removable but not flagged" s.Span.line
        | Error _ -> Alcotest.fail "not a word instance")
    spanned

let test_redundancy_cross_check_typed () =
  (* the bibliography instance under its M schema: lint's typed
     redundancy verdicts must agree with Core.Typed_m.implies *)
  let p = example "bibliography.constraints" in
  let s = example "bibliography.schema" in
  let diags = Lint.lint_paths ~schema_file:s ~sigma_file:p () in
  let flagged = pc300_lines diags in
  Alcotest.(check bool) "some redundancy found" true (flagged <> []);
  let schema =
    mschema_of_string (In_channel.with_open_text s In_channel.input_all)
  in
  let spanned =
    spanned_of_string (In_channel.with_open_text p In_channel.input_all)
  in
  List.iteri
    (fun i (phi, sp) ->
      let rest = List.map fst (drop_nth i spanned) in
      match Core.Typed_m.implies schema ~sigma:rest ~phi with
      | Ok expected ->
          Alcotest.(check bool)
            (Printf.sprintf "line %d agrees with Typed_m" sp.Span.line)
            expected
            (List.mem sp.Span.line flagged)
      | Error e -> Alcotest.failf "Typed_m: %s" e)
    spanned

(* --- hardening: lint respects its budget ---------------------------------- *)

let test_timeout_respected () =
  (* a full-P_c instance (backward constraints force the budgeted chase
     for redundancy) with a tiny deadline: lint must return promptly and
     cleanly rather than chase to completion *)
  let lines =
    List.init 8 (fun i ->
        Printf.sprintf "book%d.author -> person%d\nbook%d : author <- wrote\n"
          i i i)
  in
  let sigma = write_temp ".constraints" (String.concat "" lines) in
  let t0 = Core.Engine.now_ns () in
  let code, out =
    run
      (Printf.sprintf "lint -s %s --timeout 0.2 --max-steps 64"
         (Filename.quote sigma))
  in
  let elapsed_s =
    Int64.to_float (Int64.sub (Core.Engine.now_ns ()) t0) /. 1e9
  in
  Sys.remove sigma;
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out "[PC100]";
  (* generous bound: well under the unbudgeted cost of 16 chase calls,
     but tolerant of slow CI machines *)
  Alcotest.(check bool)
    (Printf.sprintf "terminates promptly (%.1fs)" elapsed_s)
    true (elapsed_s < 30.)

(* --- parse errors surface as diagnostics ---------------------------------- *)

let test_parse_error_diagnostics () =
  let bad = write_temp ".constraints" "book..author -> person\n" in
  let code, out = run (Printf.sprintf "lint -s %s" (Filename.quote bad)) in
  Alcotest.(check int) "exit 1" 1 code;
  check_contains out ":1:6: error[PC001]";
  let code, out =
    run (Printf.sprintf "lint -s %s --format json" (Filename.quote bad))
  in
  Alcotest.(check int) "exit 1 in json mode" 1 code;
  check_contains out "\"code\":\"PC001\"";
  check_contains out "\"severity\":\"error\"";
  Sys.remove bad;
  let bad_schema = write_temp ".schema" "kind Q\nclass A = [ x: int ]\n" in
  let good = write_temp ".constraints" "a.b -> c\n" in
  let code, out =
    run
      (Printf.sprintf "lint -s %s --schema %s" (Filename.quote good)
         (Filename.quote bad_schema))
  in
  Alcotest.(check int) "schema error exits 1" 1 code;
  check_contains out "[PC002]";
  Sys.remove bad_schema;
  Sys.remove good

(* --- acceptance: clean on the pre-existing example inputs ------------------ *)

let test_clean_on_existing_examples () =
  let check_clean args =
    let code, out = run ("lint " ^ args) in
    Alcotest.(check int) (Printf.sprintf "lint %s exits 0" args) 0 code;
    check_contains out "0 error(s)"
  in
  check_clean (Printf.sprintf "-s %s" (Filename.quote (example "bibliography.constraints")));
  check_clean
    (Printf.sprintf "-s %s --schema %s"
       (Filename.quote (example "bibliography.constraints"))
       (Filename.quote (example "bibliography.schema")));
  check_clean (Printf.sprintf "-s %s" (Filename.quote (example "sigma0.constraints")));
  check_clean (Printf.sprintf "-s %s" (Filename.quote (example "constraints.xml")))

(* --- PC505: prefix subsumption, cross-checked against the procedures ------ *)

let test_subsumed_fixture () =
  let p = fixture "subsumed.constraints" in
  let code, out = run (Printf.sprintf "lint -s %s" (Filename.quote p)) in
  Alcotest.(check int) "exit 0" 0 code;
  check_codes "subsumption codes" out
    [ ("PC100", 1); ("PC300", 1); ("PC301", 1); ("PC505", 1) ];
  check_contains out "appending wrote to both of its paths";
  check_contains out "(right congruence)";
  (* soundness: the flagged constraint really is implied by the rest,
     per the independent PTIME word procedure *)
  let spanned =
    spanned_of_string (In_channel.with_open_text p In_channel.input_all)
  in
  let flagged =
    List.filter_map
      (fun d ->
        if d.Diagnostic.code = "PC505" then
          Option.map (fun s -> s.Span.line) d.Diagnostic.span
        else None)
      (Lint.lint_paths ~sigma_file:p ())
  in
  Alcotest.(check (list int)) "PC505 on line 5" [ 5 ] flagged;
  List.iter
    (fun line ->
      let i =
        match List.find_index (fun (_, s) -> s.Span.line = line) spanned with
        | Some i -> i
        | None -> Alcotest.failf "no constraint on line %d" line
      in
      let phi = fst (List.nth spanned i) in
      let rest = List.map fst (drop_nth i spanned) in
      match Core.Word_untyped.implies ~sigma:rest phi with
      | Ok true -> ()
      | Ok false -> Alcotest.failf "line %d flagged but not implied" line
      | Error _ -> Alcotest.fail "not a word instance")
    flagged

(* --- suppression pragmas and PC510 ----------------------------------------- *)

let test_suppression_pragmas () =
  let p = fixture "suppressed.constraints" in
  let code, out = run (Printf.sprintf "lint -s %s" (Filename.quote p)) in
  Alcotest.(check int) "exit 0" 0 code;
  (* the duplicate's PC500 is suppressed by the line pragma; the
     file-wide PC400 pragma never matches and becomes PC510 *)
  Alcotest.(check bool) "PC500 suppressed" false (contains out "PC500");
  check_contains out ":7:1: warning[PC510] unused suppression: no PC400 \
                      diagnostic fired in this file";
  (* a family pattern suppresses every code with that prefix *)
  let sigma =
    write_temp ".constraints"
      "# pathctl-disable-file PC3xx, PC5xx\n\
       book.author -> person\n\
       book.author -> person\n"
  in
  let _, out = run (Printf.sprintf "lint -s %s" (Filename.quote sigma)) in
  Sys.remove sigma;
  Alcotest.(check bool) "PC300 family suppressed" false (contains out "PC300");
  Alcotest.(check bool) "PC500 family suppressed" false (contains out "PC500");
  check_contains out "[PC100]"

(* --- configuration: severity overrides, pass gating, PC003 ----------------- *)

let test_config_file () =
  let p = fixture "subsumed.constraints" in
  (* the shipped config ignores PC301 and keeps everything else *)
  let code, out =
    run
      (Printf.sprintf "lint -s %s --config %s" (Filename.quote p)
         (Filename.quote (fixture "pathctl.toml")))
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "PC301 ignored by config" false
    (contains out "PC301");
  check_contains out "[PC505]";
  (* pass selection: disabling redundancy drops PC300/PC301 but not
     the hygiene-pass PC505 *)
  let cfg = write_temp ".toml" "[passes]\nredundancy = false\n" in
  let _, out =
    run
      (Printf.sprintf "lint -s %s --config %s" (Filename.quote p)
         (Filename.quote cfg))
  in
  Sys.remove cfg;
  Alcotest.(check bool) "redundancy pass disabled" false
    (contains out "PC300");
  check_contains out "[PC505]";
  (* a severity override can escalate a warning into a CI failure *)
  let cfg = write_temp ".toml" "[severity]\nPC505 = \"error\"\n" in
  let code, out =
    run
      (Printf.sprintf "lint -s %s --config %s" (Filename.quote p)
         (Filename.quote cfg))
  in
  Sys.remove cfg;
  Alcotest.(check int) "escalated severity exits 1" 1 code;
  check_contains out "error[PC505]";
  (* a config that does not parse is PC003, an error, positioned at
     the line it stops at, in text and in SARIF *)
  let cfg = write_temp ".toml" "[passes]\nredundancy = maybe\n" in
  let code, out =
    run
      (Printf.sprintf "lint -s %s --config %s" (Filename.quote p)
         (Filename.quote cfg))
  in
  Alcotest.(check int) "bad config exits 1" 1 code;
  check_contains out (cfg ^ ":2:1: error[PC003] bad boolean");
  let cfg3 = write_temp ".toml" "[lint]\nexplain = true\nbogus = 1\n" in
  let _, out =
    run
      (Printf.sprintf "lint -s %s --config %s" (Filename.quote p)
         (Filename.quote cfg3))
  in
  check_contains out
    (cfg3 ^ ":3:1: error[PC003] unknown key \"bogus\" in [lint]");
  let _, sarif =
    run
      (Printf.sprintf "lint -s %s --config %s --format sarif" (Filename.quote p)
         (Filename.quote cfg3))
  in
  Sys.remove cfg;
  Sys.remove cfg3;
  check_contains sarif "\"ruleId\":\"PC003\"";
  check_contains sarif "\"region\":{\"startLine\":3"

(* --- --max-warnings: the severity-threshold exit policy -------------------- *)

let test_max_warnings () =
  let p = fixture "subsumed.constraints" in
  (* the fixture yields exactly 2 warnings (PC300 + PC505) *)
  let code, _ =
    run (Printf.sprintf "lint -s %s --max-warnings 2" (Filename.quote p))
  in
  Alcotest.(check int) "at the threshold: 0" 0 code;
  let code, _ =
    run (Printf.sprintf "lint -s %s --max-warnings 1" (Filename.quote p))
  in
  Alcotest.(check int) "over the threshold: 1" 1 code;
  (* the config file supplies the default; the flag wins *)
  let cfg = write_temp ".toml" "[lint]\nmax-warnings = 0\n" in
  let code, _ =
    run
      (Printf.sprintf "lint -s %s --config %s" (Filename.quote p)
         (Filename.quote cfg))
  in
  Alcotest.(check int) "config threshold applies" 1 code;
  let code, _ =
    run
      (Printf.sprintf "lint -s %s --config %s --max-warnings 99"
         (Filename.quote p) (Filename.quote cfg))
  in
  Sys.remove cfg;
  Alcotest.(check int) "explicit flag beats the config" 0 code;
  (* library-level policy *)
  let warn msg =
    Diagnostic.make ~code:"PC300" ~severity:Diagnostic.Warning ~file:"f" msg
  in
  Alcotest.(check int) "no threshold" 0 (Lint.exit_code [ warn "a"; warn "b" ]);
  Alcotest.(check int) "under" 0
    (Lint.exit_code ~max_warnings:2 [ warn "a"; warn "b" ]);
  Alcotest.(check int) "over" 1
    (Lint.exit_code ~max_warnings:1 [ warn "a"; warn "b" ])

(* --- --fix: safe autofixes, idempotent ------------------------------------- *)

let test_fix_idempotent () =
  let check_fixture name expect_fixed =
    let src =
      In_channel.with_open_text (fixture name) In_channel.input_all
    in
    let tmp = write_temp ".constraints" src in
    let code, out =
      run (Printf.sprintf "lint -s %s --fix" (Filename.quote tmp))
    in
    Alcotest.(check int) (name ^ ": exit 0 after fixing") 0 code;
    check_contains out
      (Printf.sprintf "applied %d autofix(es)" expect_fixed);
    let once = In_channel.with_open_text tmp In_channel.input_all in
    Alcotest.(check bool) (name ^ ": file changed") false (once = src);
    (* a second pass finds nothing to fix and leaves the file alone *)
    let _, out2 =
      run (Printf.sprintf "lint -s %s --fix" (Filename.quote tmp))
    in
    Alcotest.(check bool) (name ^ ": second pass applies nothing") false
      (contains out2 "autofix");
    let twice = In_channel.with_open_text tmp In_channel.input_all in
    Sys.remove tmp;
    Alcotest.(check string) (name ^ ": idempotent") once twice
  in
  (* duplicates: delete the PC500 duplicate and the PC504 tautology,
     comment out the PC503 eps-EGD *)
  check_fixture "duplicates.constraints" 3;
  (* subsumed: delete the PC505 line *)
  check_fixture "subsumed.constraints" 1;
  (* the PC503 comment-out marker survives in the fixed file *)
  let src =
    In_channel.with_open_text (fixture "duplicates.constraints")
      In_channel.input_all
  in
  let tmp = write_temp ".constraints" src in
  let _ = run (Printf.sprintf "lint -s %s --fix" (Filename.quote tmp)) in
  let fixed = In_channel.with_open_text tmp In_channel.input_all in
  Sys.remove tmp;
  check_contains fixed "# pathctl-fix(PC503) disabled: book.ref.ref -> eps";
  (* XML inputs are refused: the fixes are line-oriented *)
  let xml = write_temp ".xml" "<constraints><word lhs=\"a\" rhs=\"b\"/></constraints>" in
  let code, out = run (Printf.sprintf "lint -s %s --fix" (Filename.quote xml)) in
  Sys.remove xml;
  Alcotest.(check int) "XML refused with exit 2" 2 code;
  check_contains out "line DSL only"

(* --- XML constraint files carry element-level spans ------------------------ *)

let test_xml_constraint_spans () =
  let src =
    In_channel.with_open_text (example "constraints.xml") In_channel.input_all
  in
  let spanned =
    match Xmlrep.Constraints_xml.parse_spanned src with
    | Ok cs -> cs
    | Error e -> Alcotest.failf "parse_spanned: %s" e
  in
  Alcotest.(check int) "five constraints" 5 (List.length spanned);
  (* one element per line in the fixture, lines 2-6 *)
  Alcotest.(check (list int)) "element lines" [ 2; 3; 4; 5; 6 ]
    (List.map (fun (_, s) -> s.Span.line) spanned);
  List.iter
    (fun (_, s) ->
      Alcotest.(check bool) "span is inside the line" true
        (s.Span.start_col >= 1 && s.Span.end_col > s.Span.start_col))
    spanned;
  (* agreement with the unspanned parser *)
  let plain =
    match Xmlrep.Constraints_xml.parse src with
    | Ok cs -> cs
    | Error e -> Alcotest.failf "parse: %s" e
  in
  Alcotest.(check bool) "same constraints as parse" true
    (List.for_all2
       (fun c (c', _) -> Pathlang.Constr.equal c c')
       plain spanned);
  (* and the lint driver attaches those spans to diagnostics *)
  let bad =
    write_temp ".xml"
      "<constraints>\n  <word lhs=\"a\" rhs=\"b\"/>\n  <word lhs=\"a\" \
       rhs=\"b\"/>\n</constraints>\n"
  in
  let code, out = run (Printf.sprintf "lint -s %s" (Filename.quote bad)) in
  Sys.remove bad;
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out ":3:3: warning[PC500]"

(* --- the rules table is the single source of truth ------------------------- *)

let test_rules_exhaustive () =
  let expected =
    [ "PC001"; "PC002"; "PC003"; "PC100"; "PC101"; "PC102"; "PC103";
      "PC200"; "PC201"; "PC300"; "PC301"; "PC302"; "PC400"; "PC401";
      "PC500"; "PC501"; "PC502"; "PC503"; "PC504"; "PC505"; "PC510";
      "PC600"; "PC601"; "PC602"; "PC700"; "PC701"; "PC702"; "PC703";
      "PC800"; "PC801"; "PC802"; "PC803" ]
  in
  let codes = List.map (fun (c, _, _) -> c) Diagnostic.rules in
  Alcotest.(check (list string)) "every stable code is declared, in order"
    expected (List.sort compare codes);
  Alcotest.(check int) "no duplicate codes"
    (List.length codes)
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun (code, _, doc) ->
      Alcotest.(check bool) (code ^ " has documentation") true
        (String.length doc > 0);
      Alcotest.(check bool) (code ^ " is well-formed") true
        (String.length code = 5
        && String.sub code 0 2 = "PC"
        && String.for_all
             (fun c -> c >= '0' && c <= '9')
             (String.sub code 2 3)))
    Diagnostic.rules;
  (* reserved / conditional codes: emitted only under special
     circumstances, hence absent from the fixture goldens by design *)
  let reserved = [ "PC302" (* budget truncation *) ] in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " is a declared rule") true
        (List.mem c codes))
    reserved

(* --- diagnostics core ------------------------------------------------------ *)

let test_render_ordering_and_summary () =
  let d1 =
    Diagnostic.make ~code:"PC300" ~severity:Diagnostic.Warning ~file:"f"
      ~span:(Span.v ~line:3 ~start_col:1 ~end_col:5)
      "later line"
  in
  let d2 =
    Diagnostic.make ~code:"PC100" ~severity:Diagnostic.Info ~file:"f"
      "file-level first"
  in
  let d3 =
    Diagnostic.make ~code:"PC500" ~severity:Diagnostic.Warning ~file:"f"
      ~span:(Span.v ~line:2 ~start_col:4 ~end_col:9)
      "earlier line"
  in
  let expected =
    "f: info[PC100] file-level first\n\
     f:2:4: warning[PC500] earlier line\n\
     f:3:1: warning[PC300] later line\n\
     0 error(s), 2 warning(s), 1 info, 0 hint(s)\n"
  in
  Alcotest.(check string) "sorted text render" expected
    (Diagnostic.render_text [ d1; d2; d3 ]);
  Alcotest.(check bool) "no errors" false
    (Diagnostic.has_errors [ d1; d2; d3 ]);
  let json = Diagnostic.render_json [ d3 ] in
  Alcotest.(check string) "json line"
    "{\"code\":\"PC500\",\"severity\":\"warning\",\"file\":\"f\",\"line\":2,\"startColumn\":4,\"endColumn\":9,\"message\":\"earlier line\"}\n"
    json;
  Alcotest.check_raises "unknown codes are rejected"
    (Invalid_argument "Diagnostic.make: unknown code PC999") (fun () ->
      ignore
        (Diagnostic.make ~code:"PC999" ~severity:Diagnostic.Error ~file:"f"
           "nope"))

let () =
  Alcotest.run "analysis"
    [
      ( "spans",
        [
          Alcotest.test_case "parser errors carry line/col/token" `Quick
            test_parser_error_spans;
          Alcotest.test_case "schema parser errors carry line/col/token" `Quick
            test_schema_parser_error_spans;
          Alcotest.test_case "spanned parse keeps physical lines" `Quick
            test_spanned_parse_roundtrip;
        ] );
      ( "fragment",
        [
          Alcotest.test_case "errors_all returns every offender" `Quick
            test_errors_all;
          Alcotest.test_case "Table 1 cells" `Quick test_classifier_cells;
        ] );
      ( "golden",
        [
          Alcotest.test_case "redundant fixture, text" `Quick
            test_golden_redundant_text;
          Alcotest.test_case "redundant fixture, json" `Quick
            test_golden_redundant_json;
          Alcotest.test_case "contradictory fixture, text" `Quick
            test_golden_contradictory_text;
          Alcotest.test_case "PC400 and PC401 past 50 constraints" `Quick
            test_inconsistency_past_50;
          Alcotest.test_case "vacuous fixture codes" `Quick test_vacuity_codes;
          Alcotest.test_case "duplicates fixture codes" `Quick
            test_duplicates_codes;
          Alcotest.test_case "undecidable fixture codes" `Quick
            test_undecidable_codes;
          Alcotest.test_case "M+ fixture codes" `Quick test_mplus_codes;
        ] );
      ( "sarif",
        [
          Alcotest.test_case "document structure" `Quick test_sarif_structure;
          Alcotest.test_case "byte-exact text, JSON and SARIF goldens" `Quick
            test_renderer_goldens;
          Alcotest.test_case "escapes re-parse" `Quick test_render_escapes;
          Alcotest.test_case "-o writes the report" `Quick
            test_sarif_via_output_flag;
        ] );
      ( "redundancy",
        [
          Alcotest.test_case "cross-check vs word procedure" `Quick
            test_redundancy_cross_check_untyped;
          Alcotest.test_case "cross-check vs typed-M procedure" `Quick
            test_redundancy_cross_check_typed;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "lint respects --timeout" `Quick
            test_timeout_respected;
          Alcotest.test_case "parse errors become diagnostics" `Quick
            test_parse_error_diagnostics;
          Alcotest.test_case "clean on the shipped examples" `Quick
            test_clean_on_existing_examples;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "PC505 subsumption, cross-checked" `Quick
            test_subsumed_fixture;
          Alcotest.test_case "suppression pragmas and PC510" `Quick
            test_suppression_pragmas;
          Alcotest.test_case "config: severity, passes, PC003" `Quick
            test_config_file;
          Alcotest.test_case "--max-warnings exit policy" `Quick
            test_max_warnings;
          Alcotest.test_case "--fix is safe and idempotent" `Quick
            test_fix_idempotent;
          Alcotest.test_case "XML constraints carry element spans" `Quick
            test_xml_constraint_spans;
          Alcotest.test_case "rules table is exhaustive" `Quick
            test_rules_exhaustive;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "ordering, summary, json, validation" `Quick
            test_render_ordering_and_summary;
        ] );
    ]
