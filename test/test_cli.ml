(* End-to-end tests of the pathctl binary.

   The test executable runs from _build/default/test, so the CLI binary
   is at ../bin/pathctl.exe (declared as a dune dependency). *)

open Testutil

(* The test executable lives at _build/default/test/test_cli.exe, so the
   CLI binary (a declared dune dependency) is in the sibling bin/
   directory, regardless of the working directory dune chose. *)
let pathctl =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "pathctl.exe")

let write_temp suffix contents =
  let file = Filename.temp_file "pathctl_test" suffix in
  Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc contents);
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
  (code, String.trim out)

let sigma_words =
  write_temp ".constraints"
    "book.author -> person\nperson.wrote -> book\nbook.ref -> book\n"

let sigma_inverse =
  write_temp ".constraints" "book : author <- wrote\nperson : wrote <- author\n"

let sigma_xml =
  write_temp ".xml"
    {|<constraints>
        <word lhs="book.author" rhs="person"/>
        <word lhs="book.ref" rhs="book"/>
      </constraints>|}

let schema_file =
  write_temp ".schema"
    "kind M\n\
     class Person = [ name: string; SSN: string; wrote: Book ]\n\
     class Book = [ title: string; year: int; ref: Book; author: Person ]\n\
     db = [ person: Person; book: Book ]\n"

let graph_file = write_temp ".graph" "0 book 1\n1 author 2\n2 wrote 1\n0 person 2\n"

let pres_file = write_temp ".pres" "gens a\na.a.a = eps\n"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_implies () =
  let code, out = run (Printf.sprintf "implies -s %s \"book.ref.author -> person\"" sigma_words) in
  check_int "exit" 0 code;
  check_string "answer" "true" out;
  let code, out = run (Printf.sprintf "implies -s %s \"person -> book\"" sigma_words) in
  check_int "exit" 0 code;
  check_string "answer" "false" out

let test_implies_proof () =
  let code, out =
    run (Printf.sprintf "implies --proof -s %s \"book.ref.ref.author -> person\"" sigma_words)
  in
  check_int "exit" 0 code;
  check_bool "prints derivation" true (contains out "transitivity")

let test_implies_xml_sigma () =
  let code, out = run (Printf.sprintf "implies -s %s \"book.ref.author -> person\"" sigma_xml) in
  check_int "exit" 0 code;
  check_string "answer" "true" out

let test_implies_rejects_non_word () =
  let code, _ = run (Printf.sprintf "implies -s %s \"book -> person\"" sigma_inverse) in
  check_bool "nonzero exit" true (code <> 0)

let test_implies_typed_and_check_proof () =
  let cert = Filename.temp_file "cert" ".sexp" in
  let code, out =
    run
      (Printf.sprintf
         "implies-typed -s %s --schema %s --emit-cert %s \"book.author.wrote -> book\""
         sigma_inverse schema_file cert)
  in
  check_int "exit" 0 code;
  check_string "answer" "true" out;
  let code, out =
    run
      (Printf.sprintf "check-proof -s %s --proof %s \"book.author.wrote -> book\""
         sigma_inverse cert)
  in
  check_int "verifier exit" 0 code;
  check_bool "verifier accepts" true (contains out "certificate OK");
  (* wrong goal is rejected *)
  let code, _ =
    run
      (Printf.sprintf "check-proof -s %s --proof %s \"book -> person\""
         sigma_inverse cert)
  in
  check_bool "verifier rejects" true (code <> 0);
  Sys.remove cert

let test_implies_local () =
  let sigma0 =
    write_temp ".constraints"
      "MIT : book.author -> person\n\
       MIT : person.wrote -> book\n\
       Warner.book : author <- wrote\n\
       Warner.person : wrote <- author\n"
  in
  let code, out =
    run
      (Printf.sprintf "implies-local -s %s -k MIT \"MIT : book.ref -> book\"" sigma0)
  in
  check_int "exit" 0 code;
  check_string "answer" "false" out;
  let code, out =
    run
      (Printf.sprintf
         "implies-local -s %s -k MIT \"MIT : book.author -> person\"" sigma0)
  in
  check_int "exit" 0 code;
  check_string "answer" "true" out;
  Sys.remove sigma0

let test_chase () =
  let code, out =
    run (Printf.sprintf "chase -s %s \"book : author <- wrote\"" sigma_inverse)
  in
  check_int "exit" 0 code;
  check_string "answer" "implied" out;
  let code, out =
    run (Printf.sprintf "chase -s %s \"book.author.wrote -> book\"" sigma_inverse)
  in
  check_int "refuted exits 1" 1 code;
  check_bool "refuted with witness" true (contains out "refuted")

(* a one-constraint set whose chase diverges (every repair creates a
   fresh a-successor), so only the deadline can stop it *)
let sigma_diverging = write_temp ".constraints" "a -> a.a\n"

let test_chase_timeout () =
  (* raise the step/node caps so only the wall clock can stop the run;
     after a deadline trip the enumeration fallback is skipped, so the
     verdict is Unknown {reason = Deadline} and the exit code is 2 *)
  let t0 = Core.Engine.now_ns () in
  let code, out =
    run
      (Printf.sprintf
         "chase -s %s --timeout 1 --max-steps 100000000 --max-nodes \
          100000000 \"a -> b\""
         sigma_diverging)
  in
  let elapsed_s =
    Int64.to_float (Int64.sub (Core.Engine.now_ns ()) t0) /. 1e9
  in
  check_int "deadline exits 2" 2 code;
  check_bool "reports the deadline" true (contains out "deadline");
  check_bool "honors the deadline promptly" true (elapsed_s < 1.5)

let test_chase_escalate () =
  (* under --escalate the diverging instance is still settled: round 1's
     enumeration fallback finds the one-node countermodel *)
  let code, out =
    run (Printf.sprintf "chase -s %s --escalate \"a -> b\"" sigma_diverging)
  in
  check_int "escalate refutes" 1 code;
  check_bool "countermodel printed" true (contains out "refuted")

let test_chase_sigint () =
  (* start a chase that can only end by deadline (60 s away), interrupt
     it after 0.3 s: partial diagnostics, exit 130 *)
  let out_file = Filename.temp_file "pathctl_sigint" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf
         "%s chase -s %s --timeout 60 --max-steps 100000000 --max-nodes \
          100000000 \"a -> b\" > %s 2>&1 & pid=$!; sleep 0.3; kill -INT \
          $pid; wait $pid"
         (Filename.quote pathctl)
         (Filename.quote sigma_diverging)
         (Filename.quote out_file))
  in
  let out = In_channel.with_open_text out_file In_channel.input_all in
  Sys.remove out_file;
  check_int "SIGINT exits 130" 130 code;
  check_bool "partial diagnostics" true (contains out "cancelled")

let test_check_violation_tail () =
  let g = write_temp ".graph" "0 a 1\n0 a 2\n0 a 3\n0 a 4\n" in
  let s = write_temp ".constraints" "a -> b\n" in
  let code, out = run (Printf.sprintf "check -g %s -s %s" g s) in
  check_bool "check fails" true (code <> 0);
  check_bool "default tail" true (contains out "and 1 more");
  let code, out =
    run (Printf.sprintf "check -g %s -s %s --max-violations 1" g s)
  in
  check_bool "check fails" true (code <> 0);
  check_bool "custom tail" true (contains out "and 3 more");
  Sys.remove g;
  Sys.remove s

let test_check_and_dot () =
  let code, out = run (Printf.sprintf "check -g %s -s %s" graph_file sigma_words) in
  ignore out;
  check_int "constraints hold on the little graph" 0 code;
  let code, out = run (Printf.sprintf "dot -g %s" graph_file) in
  check_int "dot exit" 0 code;
  check_bool "digraph output" true (contains out "digraph")

let test_encode_and_word_problem () =
  let code, out = run (Printf.sprintf "encode --presentation %s --reduction pwk" pres_file) in
  check_int "exit" 0 code;
  check_bool "has K constraints" true (contains out "K");
  let code, out = run (Printf.sprintf "word-problem --presentation %s \"a.a.a = eps\"" pres_file) in
  check_int "exit" 0 code;
  check_bool "equal" true (contains out "equal");
  let code, out = run (Printf.sprintf "word-problem --presentation %s \"a = eps\"" pres_file) in
  check_int "exit" 0 code;
  check_bool "separated" true (contains out "separated")

let test_rpq_on_xml () =
  let xml =
    write_temp ".xml"
      {|<bib>
          <book id="b1" ref="#b2"><title>t1</title></book>
          <book id="b2"><title>t2</title></book>
        </bib>|}
  in
  let code, out = run (Printf.sprintf "rpq -g %s \"book.(ref)*.title\"" xml) in
  check_int "exit" 0 code;
  check_int "two titles" 2
    (List.length (String.split_on_char '\n' out |> List.filter (( <> ) "")));
  Sys.remove xml

let test_compare () =
  let code, out =
    run
      (Printf.sprintf "compare -s %s --schema %s \"book.author.wrote -> book\""
         sigma_inverse schema_file)
  in
  check_int "exit" 0 code;
  check_bool "chase row" true (contains out "refuted");
  check_bool "typed row" true (contains out "implied")

let test_odl () =
  let odl =
    write_temp ".odl"
      "interface Book (extent book) {\n\
      \  attribute String title;\n\
      \  relationship set<Person> author inverse Person::wrote;\n\
       };\n\
       interface Person (extent person) {\n\
      \  attribute String name;\n\
      \  relationship set<Book> wrote inverse Book::author;\n\
       };\n"
  in
  let code, out = run (Printf.sprintf "odl --odl %s" odl) in
  check_int "exit" 0 code;
  check_bool "schema part" true (contains out "kind M+");
  check_bool "extent part" true (contains out "book.*.author.* -> person.*");
  check_bool "inverse part" true (contains out "book.* : author.* <- wrote.*");
  Sys.remove odl

let test_index () =
  let code, out = run (Printf.sprintf "index -g %s" graph_file) in
  check_int "exit" 0 code;
  check_bool "quotient row" true (contains out "bisimulation quotient");
  check_bool "dataguide row" true (contains out "dataguide")

(* -j N is a throughput knob only: the whole rendered report (stdout +
   stderr, exit code included) must be byte-identical at every job
   count, for both the lint fan-out and the chase's enumeration
   fallback *)
let test_lint_jobs_identical () =
  let run_at jobs =
    run
      (Printf.sprintf "lint -s %s --schema %s --format json -j %d" sigma_words
         schema_file jobs)
  in
  let code1, out1 = run_at 1 in
  List.iter
    (fun jobs ->
      let code, out = run_at jobs in
      check_int (Printf.sprintf "exit at -j %d" jobs) code1 code;
      check_string (Printf.sprintf "report at -j %d" jobs) out1 out)
    [ 2; 4 ]

let test_chase_jobs_identical () =
  (* a diverging sigma with a refutable goal: the verdict (and the
     printed countermodel) comes from the pooled enumeration fallback *)
  let sigma = write_temp ".constraints" "a -> a.b\n" in
  let run_at jobs =
    run
      (Printf.sprintf
         "chase -s %s \"a -> c\" --max-steps 64 --max-nodes 64 -j %d" sigma
         jobs)
  in
  let code1, out1 = run_at 1 in
  check_int "refuted at -j 1" 1 code1;
  List.iter
    (fun jobs ->
      let code, out = run_at jobs in
      check_int (Printf.sprintf "exit at -j %d" jobs) code1 code;
      check_string (Printf.sprintf "countermodel at -j %d" jobs) out1 out)
    [ 2; 4 ];
  Sys.remove sigma

(* PATHCTL_JOBS is the flag's default: a parallel run driven purely by
   the environment must match -j 1 output too *)
let test_jobs_env_default () =
  let code1, out1 =
    run (Printf.sprintf "lint -s %s --format json -j 1" sigma_words)
  in
  (* Sys.command runs through /bin/sh, so the env prefix form works *)
  let out_file = Filename.temp_file "pathctl_out" ".txt" in
  let cmd =
    Printf.sprintf "PATHCTL_JOBS=4 %s lint -s %s --format json > %s 2>&1"
      (Filename.quote pathctl) (Filename.quote sigma_words)
      (Filename.quote out_file)
  in
  let code_env = Sys.command cmd in
  let out_env =
    String.trim (In_channel.with_open_text out_file In_channel.input_all)
  in
  Sys.remove out_file;
  check_int "exit under PATHCTL_JOBS=4" code1 code_env;
  check_string "report under PATHCTL_JOBS=4" out1 out_env

let test_profile_jobs_sweep () =
  let code, out =
    run
      (Printf.sprintf
         "profile -s %s --workload lint -n 1 -j 2 --format text" sigma_words)
  in
  check_int "exit" 0 code;
  check_bool "prints the sweep table" true (contains out "jobs sweep");
  check_bool "has the 2-domain row" true (contains out "speedup")

let test_optimize () =
  let code, out =
    run (Printf.sprintf "optimize -s %s \"book.ref.author,person\"" sigma_words)
  in
  check_int "exit" 0 code;
  check_string "pruned" "person" out

(* --- the analyzer front end: lint and query lint share one driver ------- *)

let data_fixture f =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "examples/data" f)

(* --fix lints through the caller's own lint call: --interact, --cache
   and -j reach it exactly as they reach a plain run *)
let test_lint_fix_keeps_options () =
  let src =
    In_channel.with_open_text (data_fixture "lint/core.constraints")
      In_channel.input_all
  in
  let copy = write_temp ".constraints" src in
  let schema = data_fixture "lint/lint.schema" in
  let args extra =
    Printf.sprintf "lint -s %s --schema %s --interact%s" (Filename.quote copy)
      (Filename.quote schema) extra
  in
  let code_plain, plain = run (args "") in
  let dir = Filename.temp_file "pathctl_fixcache" "" in
  Sys.remove dir;
  let code_fix, fixed =
    run (args (Printf.sprintf " --fix --cache %s" (Filename.quote dir)))
  in
  check_bool "--fix --interact still reports PC700" true
    (contains fixed "error[PC700]");
  (* nothing in the core fixture is fixable, so both branches print the
     same report *)
  check_int "same exit" code_plain code_fix;
  check_string "same report" plain fixed;
  check_bool "--fix --cache stores an entry" true
    (Sys.file_exists dir && Array.length (Sys.readdir dir) > 0);
  let _, stats = run (args " --fix -j 2 --stats json") in
  check_bool "--fix -j 2 fans out on the pool" true
    (contains stats "par.tasks");
  Sys.remove copy

(* a malformed schema is reported at the offending token by both
   commands: the same line:col, the same message *)
let test_schema_error_position_parity () =
  let schema = write_temp ".schema" "kind M\nclass Book { title: string }\n" in
  let expected =
    schema ^ ":2:12: error[PC002] at \"{\": expected '='"
  in
  let first_line out = List.hd (String.split_on_char '\n' out) in
  let code_l, out_l =
    run
      (Printf.sprintf "lint -s %s --schema %s"
         (Filename.quote (data_fixture "sigma0.constraints"))
         (Filename.quote schema))
  in
  let code_q, out_q =
    run
      (Printf.sprintf "query lint %s --schema %s"
         (Filename.quote (data_fixture "query/clean.query"))
         (Filename.quote schema))
  in
  Sys.remove schema;
  check_int "lint exits 1" 1 code_l;
  check_int "query lint exits 1" 1 code_q;
  check_string "lint: token-anchored PC002" expected (first_line out_l);
  check_string "query lint: token-anchored PC002" expected (first_line out_q)

(* analyzer inputs are read through the cli.read fault site: an injected
   read failure is a PC001 diagnostic with exit 1, not an exception *)
let test_cli_read_fault_is_pc001 () =
  let fault args =
    let out_file = Filename.temp_file "pathctl_out" ".txt" in
    let code =
      Sys.command
        (Printf.sprintf "PATHCTL_FAULT=cli.read:1:io %s %s > %s 2>&1"
           (Filename.quote pathctl) args (Filename.quote out_file))
    in
    let out = In_channel.with_open_text out_file In_channel.input_all in
    Sys.remove out_file;
    (code, out)
  in
  List.iter
    (fun (name, file, args) ->
      let code, out = fault args in
      check_int (name ^ ": exit 1") 1 code;
      check_string (name ^ ": PC001 report")
        (file
       ^ ":1:1: error[PC001] injected I/O failure at cli.read\n\
          1 error(s), 0 warning(s), 0 info, 0 hint(s)\n")
        out)
    [
      ( "lint",
        data_fixture "bibliography.constraints",
        "lint -s " ^ Filename.quote (data_fixture "bibliography.constraints") );
      ( "query lint",
        data_fixture "query/clean.query",
        "query lint " ^ Filename.quote (data_fixture "query/clean.query") );
    ]

let () =
  Alcotest.run "cli"
    [
      ( "pathctl",
        [
          Alcotest.test_case "implies" `Quick test_implies;
          Alcotest.test_case "implies --proof" `Quick test_implies_proof;
          Alcotest.test_case "implies (xml sigma)" `Quick test_implies_xml_sigma;
          Alcotest.test_case "implies rejects non-word" `Quick
            test_implies_rejects_non_word;
          Alcotest.test_case "implies-typed + check-proof" `Quick
            test_implies_typed_and_check_proof;
          Alcotest.test_case "implies-local" `Quick test_implies_local;
          Alcotest.test_case "chase" `Quick test_chase;
          Alcotest.test_case "chase --timeout" `Quick test_chase_timeout;
          Alcotest.test_case "chase --escalate" `Quick test_chase_escalate;
          Alcotest.test_case "chase SIGINT" `Quick test_chase_sigint;
          Alcotest.test_case "check --max-violations" `Quick
            test_check_violation_tail;
          Alcotest.test_case "check + dot" `Quick test_check_and_dot;
          Alcotest.test_case "encode + word-problem" `Quick
            test_encode_and_word_problem;
          Alcotest.test_case "rpq on xml" `Quick test_rpq_on_xml;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "index" `Quick test_index;
          Alcotest.test_case "odl" `Quick test_odl;
          Alcotest.test_case "optimize" `Quick test_optimize;
          Alcotest.test_case "lint -j byte-identical" `Quick
            test_lint_jobs_identical;
          Alcotest.test_case "chase -j byte-identical" `Quick
            test_chase_jobs_identical;
          Alcotest.test_case "PATHCTL_JOBS default" `Quick
            test_jobs_env_default;
          Alcotest.test_case "profile --jobs sweep" `Quick
            test_profile_jobs_sweep;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "lint --fix keeps --interact/--cache/-j" `Quick
            test_lint_fix_keeps_options;
          Alcotest.test_case "PC002 position: lint = query lint" `Quick
            test_schema_error_position_parity;
          Alcotest.test_case "cli.read fault is PC001" `Quick
            test_cli_read_fault_is_pc001;
        ] );
    ]
