(* The observability layer: span nesting, counter semantics, Chrome
   trace export, the disabled-mode no-op guarantee, golden --stats json
   and --metrics fixtures for a small chase and a lint run through the
   CLI (layer spans included), and one audit record per decision
   route. *)

open Testutil

let pathctl =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "pathctl.exe")

let write_temp suffix contents =
  let file = Filename.temp_file "obs_test" suffix in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc contents);
  file

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* run a little work so spans have non-zero width *)
let spin () =
  let acc = ref 0 in
  for i = 1 to 10_000 do
    acc := !acc + i
  done;
  ignore (Sys.opaque_identity !acc)

(* --- spans ----------------------------------------------------------- *)

let test_span_nesting () =
  Obs.enable ();
  Obs.reset ();
  Obs.Span.with_ "outer" (fun () ->
      spin ();
      Obs.Span.with_ "inner" (fun () -> spin ());
      Obs.Span.with_ "inner" (fun () -> spin ()));
  check_int "balanced afterwards" 0 (Obs.Span.depth ());
  let spans = Obs.Stats.spans () in
  let stat name = List.assoc name spans in
  let outer = stat "outer" and inner = stat "inner" in
  check_int "outer ran once" 1 outer.Obs.Stats.count;
  check_int "inner ran twice" 2 inner.Obs.Stats.count;
  check_bool "totals are positive" true (outer.Obs.Stats.total_ns > 0L);
  check_bool "outer contains inner" true
    (outer.Obs.Stats.total_ns >= inner.Obs.Stats.total_ns);
  (* self = total - child time, so outer.self < outer.total strictly
     once the children have width *)
  check_bool "outer self excludes child time" true
    (outer.Obs.Stats.self_ns
     <= Int64.sub outer.Obs.Stats.total_ns inner.Obs.Stats.total_ns);
  (* a leaf's self time is its total *)
  check_bool "leaf self = total" true
    (inner.Obs.Stats.self_ns = inner.Obs.Stats.total_ns);
  Obs.disable ()

let test_span_auto_close () =
  Obs.enable_tracing ();
  Obs.reset ();
  let a = Obs.Span.start "a" in
  let _b = Obs.Span.start "b" in
  let _c = Obs.Span.start "c" in
  check_int "three open" 3 (Obs.Span.depth ());
  (* stopping the outermost unwinds (auto-closes) b and c first *)
  Obs.Span.stop a;
  check_int "all closed" 0 (Obs.Span.depth ());
  let spans = Obs.Stats.spans () in
  List.iter
    (fun name ->
      check_int (name ^ " closed once") 1
        (List.assoc name spans).Obs.Stats.count)
    [ "a"; "b"; "c" ];
  (* double stop is a no-op *)
  Obs.Span.stop a;
  check_int "a still closed once" 1
    (List.assoc "a" (Obs.Stats.spans ())).Obs.Stats.count;
  Obs.disable ()

let test_span_exception_safety () =
  Obs.enable ();
  Obs.reset ();
  (try Obs.Span.with_ "boom" (fun () -> failwith "no") with Failure _ -> ());
  check_int "balanced after raise" 0 (Obs.Span.depth ());
  check_int "span still aggregated" 1
    (List.assoc "boom" (Obs.Stats.spans ())).Obs.Stats.count;
  Obs.disable ()

(* --- counters --------------------------------------------------------- *)

let test_counter_monotonic () =
  Obs.enable ();
  Obs.reset ();
  let c = Obs.Counter.make ~unit_:"things" "test.monotonic" in
  check_int "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  check_int "incr + add" 5 (Obs.Counter.value c);
  Obs.Counter.add c (-3);
  check_int "negative add ignored" 5 (Obs.Counter.value c);
  Obs.Counter.set_max c 2;
  check_int "set_max below keeps the max" 5 (Obs.Counter.value c);
  Obs.Counter.set_max c 9;
  check_int "set_max above raises" 9 (Obs.Counter.value c);
  (* make is idempotent: same registry slot by name *)
  let c' = Obs.Counter.make "test.monotonic" in
  Obs.Counter.incr c';
  check_int "same counter by name" 10 (Obs.Counter.value c);
  (* snapshot lists non-zero counters sorted by name *)
  let c2 = Obs.Counter.make "test.another" in
  Obs.Counter.incr c2;
  ignore (Obs.Counter.make "test.zero");
  let snap = Obs.Counter.snapshot () in
  check_bool "zero counters omitted" false
    (List.mem_assoc "test.zero" snap);
  check_int "snapshot value" 10 (List.assoc "test.monotonic" snap);
  let names = List.map fst snap in
  check_bool "snapshot sorted" true (List.sort compare names = names);
  Obs.disable ()

let test_histogram () =
  Obs.enable ();
  Obs.reset ();
  let h = Obs.Histogram.make ~unit_:"ms" "test.hist" in
  List.iter (Obs.Histogram.observe h) [ 1.; 2.; 3.; 4. ];
  check_int "count" 4 (Obs.Histogram.count h);
  check_bool "sum" true (Obs.Histogram.sum h = 10.);
  check_bool "mean" true (Obs.Histogram.mean h = 2.5);
  check_bool "median in range" true
    (let m = Obs.Histogram.percentile h 0.5 in
     m >= 2. && m <= 3.);
  Obs.disable ()

(* --- Chrome trace export ---------------------------------------------- *)

(* Replay the B/E events against a stack: names must match LIFO and
   timestamps must be monotone. *)
let validate_chrome_doc json =
  let events =
    match Option.bind (Obs.Json.member "traceEvents" json) Obs.Json.as_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  check_bool "trace has events" true (events <> []);
  let stack = ref [] in
  let last_ts = ref neg_infinity in
  List.iter
    (fun e ->
      let f name as_ty =
        match Option.bind (Obs.Json.member name e) as_ty with
        | Some v -> v
        | None -> Alcotest.fail ("event missing field " ^ name)
      in
      let name = f "name" Obs.Json.as_string in
      let ph = f "ph" Obs.Json.as_string in
      let ts = f "ts" Obs.Json.as_float in
      ignore (f "pid" Obs.Json.as_int);
      ignore (f "tid" Obs.Json.as_int);
      check_bool "timestamps monotone" true (ts >= !last_ts);
      last_ts := ts;
      match ph with
      | "B" -> stack := name :: !stack
      | "E" -> (
          match !stack with
          | top :: rest ->
              check_string "E matches innermost B" top name;
              stack := rest
          | [] -> Alcotest.fail "E event with empty stack")
      | "i" -> ()
      | _ -> Alcotest.fail ("unexpected phase " ^ ph))
    events;
  check_bool "all spans closed" true (!stack = [])

let test_chrome_roundtrip () =
  Obs.enable_tracing ();
  Obs.reset ();
  Obs.Span.with_ "outer" (fun () ->
      Obs.Span.event ~args:[ ("k", "v") ] "tick";
      Obs.Span.with_ "inner" (fun () -> spin ()));
  (* an open span at export time gets a synthetic end *)
  let dangling = Obs.Span.start "dangling" in
  let doc = Obs.Trace.to_chrome_json () in
  Obs.Span.stop dangling;
  (match Obs.Json.parse doc with
  | Ok json -> validate_chrome_doc json
  | Error m -> Alcotest.fail ("chrome json does not parse: " ^ m));
  Obs.disable ()

let test_chrome_via_chase () =
  Obs.enable_tracing ();
  Obs.reset ();
  let sigma = [ c_bwd "eps" "a" "b"; c_bwd "eps" "b" "a" ] in
  let phi = c_word "a.b" "eps" in
  ignore (Core.Semidecide.implies ~sigma phi);
  (match Obs.Json.parse (Obs.Trace.to_chrome_json ()) with
  | Ok json -> validate_chrome_doc json
  | Error m -> Alcotest.fail ("chrome json does not parse: " ^ m));
  (* the solver spans are in the stream *)
  let names = List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events ()) in
  check_bool "chase span present" true (List.mem "chase.implies" names);
  check_bool "semidecide span present" true
    (List.mem "semidecide.implies" names);
  Obs.disable ()

(* --- disabled mode is side-effect-free -------------------------------- *)

let test_disabled_noop () =
  Obs.disable ();
  Obs.reset ();
  let sigma = [ c_bwd "eps" "a" "b" ] in
  ignore (Core.Semidecide.implies ~sigma (c_word "a.b" "eps"));
  let s = Obs.Span.start "ignored" in
  Obs.Span.stop s;
  Obs.Span.event "ignored";
  let c = Obs.Counter.make "test.disabled" in
  Obs.Counter.incr c;
  check_bool "no counters recorded" true (Obs.Counter.snapshot () = []);
  check_bool "no events buffered" true (Obs.Trace.events () = []);
  check_bool "no span aggregates" true (Obs.Stats.spans () = []);
  check_int "no open spans" 0 (Obs.Span.depth ())

(* --- golden --stats json fixture through the CLI ----------------------- *)

let run_stderr args =
  let out_file = Filename.temp_file "obs_cli_out" ".txt" in
  let err_file = Filename.temp_file "obs_cli_err" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote pathctl) args
      (Filename.quote out_file) (Filename.quote err_file)
  in
  let code = Sys.command cmd in
  let err = In_channel.with_open_text err_file In_channel.input_all in
  Sys.remove out_file;
  Sys.remove err_file;
  (code, err)

let lint_fixture name =
  Filename.quote
    (Filename.concat
       (Filename.dirname (Filename.dirname Sys.executable_name))
       (Filename.concat "examples"
          (Filename.concat "data" (Filename.concat "lint" name))))

let test_golden_stats_json () =
  let sigma =
    write_temp ".constraints"
      "book : author <- wrote\nperson : wrote <- author\n"
  in
  let code, err =
    run_stderr
      (Printf.sprintf "chase -s %s \"book.author.wrote -> book\" --stats json"
         sigma)
  in
  Sys.remove sigma;
  check_int "refuted exits 1" 1 code;
  let json =
    match Obs.Json.parse (String.trim err) with
    | Ok j -> j
    | Error m -> Alcotest.fail ("--stats json does not parse: " ^ m)
  in
  (* the chase on this fixture is deterministic: one TGD repair builds
     the countermodel, minimization then model-checks candidates *)
  let counters =
    match Option.bind (Obs.Json.member "counters" json) Obs.Json.as_obj with
    | Some o -> o
    | None -> Alcotest.fail "no counters object"
  in
  List.iter
    (fun (name, expected) ->
      match List.assoc_opt name counters with
      | Some (Obs.Json.Int v) -> check_int name expected v
      | _ -> Alcotest.fail ("missing counter " ^ name))
    [
      ("chase.steps", 1);
      ("chase.tgd_firings", 1);
      (* 25 model checks from minimization + 2 chase checks: the
         violation index scans each constraint once, when it is first
         asked, and answers later asks from the repairs' delta edges *)
      ("check.constraint_checks", 27);
      ("engine.peak_nodes", 4);
      ("engine.ticks", 2);
    ];
  (* span attribution covers the whole command under one root *)
  let spans =
    match Option.bind (Obs.Json.member "spans" json) Obs.Json.as_obj with
    | Some o -> o
    | None -> Alcotest.fail "no spans object"
  in
  check_bool "root span present" true (List.mem_assoc "pathctl.chase" spans);
  check_bool "solver span present" true
    (List.mem_assoc "semidecide.implies" spans);
  (* the chase route's store pre-filter is timed on its own *)
  check_bool "pre-filter span present" true
    (List.mem_assoc "decide.prefilter" spans);
  (* the inputs are parsed inside the bracket, once *)
  (match List.assoc_opt "layer.parse" spans with
  | Some s ->
      check_bool "one layer.parse" true
        (Obs.Json.member "count" s = Some (Obs.Json.Int 1))
  | None -> Alcotest.fail "no layer.parse span");
  (* an analyzer command also attributes its report *)
  let code, err =
    run_stderr
      (Printf.sprintf "lint -s %s --stats json" (lint_fixture "redundant.constraints"))
  in
  check_int "lint: warnings only, exit 0" 0 code;
  let spans =
    match Obs.Json.parse (String.trim err) with
    | Ok j -> (
        match Option.bind (Obs.Json.member "spans" j) Obs.Json.as_obj with
        | Some o -> o
        | None -> Alcotest.fail "lint: no spans object")
    | Error m -> Alcotest.fail ("lint --stats json does not parse: " ^ m)
  in
  List.iter
    (fun name ->
      check_bool ("lint: " ^ name ^ " span present") true
        (List.mem_assoc name spans))
    [ "pathctl.lint"; "layer.parse"; "layer.render" ]

let test_trace_flag_writes_valid_file () =
  let sigma =
    write_temp ".constraints"
      "book : author <- wrote\nperson : wrote <- author\n"
  in
  let trace_file = Filename.temp_file "obs_trace" ".json" in
  let code, _ =
    run_stderr
      (Printf.sprintf "chase -s %s \"book : author <- wrote\" --trace %s"
         sigma (Filename.quote trace_file))
  in
  Sys.remove sigma;
  check_int "implied exits 0" 0 code;
  let doc = In_channel.with_open_text trace_file In_channel.input_all in
  Sys.remove trace_file;
  (match Obs.Json.parse doc with
  | Ok json -> validate_chrome_doc json
  | Error m -> Alcotest.fail ("trace file does not parse: " ^ m));
  check_bool "root span in file" true (contains doc "pathctl.chase")

(* --- OpenMetrics exposition through the CLI ---------------------------- *)

(* Structural validity: every line is a comment, a sample
   ('name[{labels}] value'), or blank; the document ends with '# EOF'. *)
let validate_openmetrics doc =
  let lines = String.split_on_char '\n' doc in
  let rec last_nonempty acc = function
    | [] -> acc
    | "" :: rest -> last_nonempty acc rest
    | l :: rest -> last_nonempty l rest
  in
  check_string "ends with # EOF" "# EOF" (last_nonempty "" lines);
  List.iter
    (fun l ->
      if l <> "" && not (String.length l >= 1 && l.[0] = '#') then begin
        (* sample line: metric name, optional label set, numeric value *)
        match String.rindex_opt l ' ' with
        | None -> Alcotest.fail ("no value separator in: " ^ l)
        | Some i ->
            let v = String.sub l (i + 1) (String.length l - i - 1) in
            (match float_of_string_opt v with
            | Some _ -> ()
            | None -> Alcotest.fail ("non-numeric sample value in: " ^ l));
            let name = String.sub l 0 i in
            check_bool
              ("metric is namespaced: " ^ l)
              true
              (String.length name > 9 && String.sub name 0 9 = "pathcons_")
      end)
    lines

let test_golden_openmetrics () =
  let sigma =
    write_temp ".constraints"
      "book : author <- wrote\nperson : wrote <- author\n"
  in
  let metrics_file = Filename.temp_file "obs_metrics" ".txt" in
  let code, _ =
    run_stderr
      (Printf.sprintf
         "chase -s %s \"book.author.wrote -> book\" --metrics %s" sigma
         (Filename.quote metrics_file))
  in
  Sys.remove sigma;
  check_int "refuted exits 1" 1 code;
  let doc = In_channel.with_open_text metrics_file In_channel.input_all in
  Sys.remove metrics_file;
  validate_openmetrics doc;
  (* the same deterministic fixture as the --stats golden: one TGD
     repair, decided on the chase route after a store-prefilter miss *)
  List.iter
    (fun line -> check_bool ("contains " ^ line) true (contains doc line))
    [
      "pathcons_chase_steps_total 1";
      "pathcons_chase_tgd_firings_total 1";
      "pathcons_decision_route_total{route=\"chase\"} 1";
      "pathcons_semidecide_prefilter_misses_total 1";
      "pathcons_decision_latency_ns_count{route=\"chase\"} 1";
      "pathcons_span_calls_total{span=\"pathctl.chase\"} 1";
      "pathcons_span_calls_total{span=\"decide.prefilter\"} 1";
      "pathcons_span_calls_total{span=\"layer.parse\"} 1";
      "# TYPE pathcons_decision_latency_ns histogram";
      "# TYPE pathcons_store_paths gauge";
    ];
  (* an analyzer command exposes its parse and render layers too *)
  let metrics_file = Filename.temp_file "obs_metrics" ".txt" in
  let code, _ =
    run_stderr
      (Printf.sprintf "lint -s %s --metrics %s"
         (lint_fixture "redundant.constraints")
         (Filename.quote metrics_file))
  in
  check_int "lint: warnings only, exit 0" 0 code;
  let doc = In_channel.with_open_text metrics_file In_channel.input_all in
  Sys.remove metrics_file;
  validate_openmetrics doc;
  List.iter
    (fun span ->
      let prefix = Printf.sprintf "pathcons_span_calls_total{span=%S} " span in
      check_bool ("lint: exposes " ^ span) true
        (List.exists (String.starts_with ~prefix)
           (String.split_on_char '\n' doc)))
    [ "pathctl.lint"; "layer.parse"; "layer.render" ]

(* --- audit journal through the CLI ------------------------------------- *)

let test_audit_roundtrip () =
  let sigma =
    write_temp ".constraints"
      "book : author <- wrote\nperson : wrote <- author\n"
  in
  let audit_file = Filename.temp_file "obs_audit" ".jsonl" in
  let code, _ =
    run_stderr
      (Printf.sprintf "chase -s %s \"book.author.wrote -> book\" --audit %s"
         sigma (Filename.quote audit_file))
  in
  Sys.remove sigma;
  check_int "refuted exits 1" 1 code;
  let doc = In_channel.with_open_text audit_file In_channel.input_all in
  Sys.remove audit_file;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' doc)
  in
  check_bool "journal is non-empty" true (lines <> []);
  let records =
    List.map
      (fun l ->
        match Obs.Json.parse l with
        | Ok j -> j
        | Error m -> Alcotest.fail ("audit line does not parse: " ^ m))
      lines
  in
  List.iter
    (fun r ->
      match Obs.Audit.validate r with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("audit record invalid: " ^ m))
    records;
  (* exactly one decision on this fixture, refuted via the chase route
     after a prefilter miss *)
  let decisions =
    List.filter
      (fun r ->
        Option.bind (Obs.Json.member "event" r) Obs.Json.as_string
        = Some "decision")
      records
  in
  check_int "one decision record" 1 (List.length decisions);
  let d = List.hd decisions in
  let field name =
    match Option.bind (Obs.Json.member name d) Obs.Json.as_string with
    | Some s -> s
    | None -> Alcotest.fail ("decision record missing " ^ name)
  in
  check_string "route" "chase" (field "route");
  check_string "prefilter" "miss" (field "prefilter");
  check_string "verdict" "refuted" (field "verdict")

(* Every decision of a lint run is one audit record and one count in the
   route family, in a single record shape. *)
let test_lint_decisions_match_routes () =
  let fixture = lint_fixture in
  List.iter
    (fun schema ->
      let audit_file = Filename.temp_file "obs_lint_audit" ".jsonl" in
      let metrics_file = Filename.temp_file "obs_lint_metrics" ".txt" in
      let code, _ =
        run_stderr
          (Printf.sprintf "lint -s %s%s --audit %s --metrics %s"
             (fixture "redundant.constraints")
             (match schema with
             | None -> ""
             | Some s -> " --schema " ^ fixture s)
             (Filename.quote audit_file)
             (Filename.quote metrics_file))
      in
      let audit = In_channel.with_open_text audit_file In_channel.input_all in
      let metrics =
        In_channel.with_open_text metrics_file In_channel.input_all
      in
      Sys.remove audit_file;
      Sys.remove metrics_file;
      let what = Option.value schema ~default:"untyped" in
      check_int (what ^ ": warnings only, exit 0") 0 code;
      let decisions =
        List.filter
          (fun l -> contains l "\"event\":\"decision\"")
          (String.split_on_char '\n' audit)
      in
      check_bool (what ^ ": some decisions") true (decisions <> []);
      List.iter
        (fun l ->
          check_bool (what ^ ": no n/a field in " ^ l) false (contains l "n/a");
          match Obs.Json.parse l with
          | Ok r -> (
              match Obs.Audit.validate r with
              | Ok () -> ()
              | Error m -> Alcotest.fail ("decision record invalid: " ^ m))
          | Error m -> Alcotest.fail ("audit line does not parse: " ^ m))
        decisions;
      let prefix = "pathcons_decision_route_total{" in
      let routed =
        List.fold_left
          (fun acc l ->
            if String.starts_with ~prefix l then
              acc
              + int_of_string
                  (String.sub l
                     (String.rindex l ' ' + 1)
                     (String.length l - String.rindex l ' ' - 1))
            else acc)
          0
          (String.split_on_char '\n' metrics)
      in
      check_int (what ^ ": one record per routed decision") routed
        (List.length decisions))
    [ None; Some "lint.schema" ]

(* --- one audit record per route ------------------------------------------ *)

(* Each of the six routes [Decide] records is pinned by one decision:
   the record passes the schema check and names its route, its
   pre-filter outcome and its verdict. *)
let test_audit_every_route () =
  let module D = Core.Decide in
  let budget =
    Core.Engine.Budget.v ~max_steps:100 ~max_nodes:100 ~timeout:10. ()
  in
  let ctl () = Core.Engine.start budget in
  let bib = Schema.Mschema.bib_m in
  let cases =
    [
      ( "store-prefilter",
        (fun () ->
          ignore
            (D.chase ~ctl:(ctl ())
               ~sigma:[ c_word "a" "b"; c_word "b" "c" ]
               (c_word "a" "c"))),
        "hit",
        "implied" );
      ( "word",
        (fun () ->
          ignore (D.word ~sigma:[ c_word "a" "b" ] (c_word "a.c" "b.c"))),
        "skipped",
        "implied" );
      ( "typed-m",
        (fun () ->
          ignore (D.typed_m bib ~sigma:[] (c_word "book" "book.ref"))),
        "skipped",
        "refuted" );
      ( "chase",
        (fun () ->
          ignore
            (D.chase ~ctl:(ctl ())
               ~sigma:
                 [
                   c_bwd "book" "author" "wrote"; c_bwd "person" "wrote" "author";
                 ]
               (c_word "book.author.wrote" "book"))),
        "miss",
        "refuted" );
      (* the chase of a -> a.a never ends; a two-node enumeration
         refutes *)
      ( "enum",
        (fun () ->
          ignore
            (D.chase ~ctl:(ctl ()) ~sigma:[ c_word "a" "a.a" ]
               (c_word "a" "b"))),
        "miss",
        "refuted" );
      ( "typed-search",
        (fun () ->
          ignore
            (D.typed_search ~ctl:(ctl ()) bib ~sigma:[]
               (c_word "book" "book.ref"))),
        "skipped",
        "refuted" );
    ]
  in
  Obs.Audit.enable ();
  List.iter
    (fun (route, decide, prefilter, verdict) ->
      Obs.reset ();
      decide ();
      let decisions =
        List.filter
          (fun r ->
            Option.bind (Obs.Json.member "event" r) Obs.Json.as_string
            = Some "decision")
          (Obs.Audit.records ())
      in
      check_int (route ^ ": one decision record") 1 (List.length decisions);
      let d = List.hd decisions in
      (match Obs.Audit.validate d with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: record invalid: %s" route m);
      let field name =
        match Option.bind (Obs.Json.member name d) Obs.Json.as_string with
        | Some s -> s
        | None -> Alcotest.failf "%s: record has no %s" route name
      in
      check_string (route ^ ": route") route (field "route");
      check_string (route ^ ": prefilter") prefilter (field "prefilter");
      check_string (route ^ ": verdict") verdict (field "verdict"))
    cases;
  Obs.Audit.disable ();
  Obs.reset ()

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting + aggregates" `Quick test_span_nesting;
          Alcotest.test_case "auto-close unwinding" `Quick
            test_span_auto_close;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter monotonicity" `Quick
            test_counter_monotonic;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome round-trip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "chrome via chase" `Quick test_chrome_via_chase;
        ] );
      ( "modes",
        [ Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop ] );
      ( "cli",
        [
          Alcotest.test_case "golden --stats json" `Quick
            test_golden_stats_json;
          Alcotest.test_case "--trace writes valid chrome json" `Quick
            test_trace_flag_writes_valid_file;
          Alcotest.test_case "golden --metrics openmetrics" `Quick
            test_golden_openmetrics;
          Alcotest.test_case "--audit journal round-trip" `Quick
            test_audit_roundtrip;
          Alcotest.test_case "lint decisions match the route family" `Quick
            test_lint_decisions_match_routes;
        ] );
      ( "audit",
        [
          Alcotest.test_case "one decision record per route" `Quick
            test_audit_every_route;
        ] );
    ]
