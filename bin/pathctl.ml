(* pathctl: command-line front end for the path/type constraint
   reasoner.

   Subcommands:
     check          model-check constraints against a graph
     implies        word constraint implication (untyped, PTIME)
     implies-local  local extent constraint implication (Theorem 5.1)
     implies-typed  P_c implication under an M schema (Theorem 4.2)
     check-proof    verify an I_r certificate
     chase          semi-decide general P_c implication (untyped)
     compare        one instance through every applicable procedure
     encode         print the monoid reductions (Theorems 4.3 / 5.2 / 6.1)
     word-problem   attack a monoid word problem instance
     optimize       prune and rewrite a union-of-paths query
     consequences   sample paths implied from a starting path
     rpq            evaluate a regular path query on a graph
     dot            render a graph file as DOT
     index          sizes of the bisimulation 1-index and DataGuide
     validate       check a typed graph against a schema
     odl            split an ODL declaration into type and path constraints
     lint           static analysis of a constraint file (PC0xx-PC7xx)
     interact       the constraint-interaction report (PC7xx)
     query          typed RPQ files: lint, eval, explain (PC8xx)

   The instrumented commands take the observability flags as one term
   ([obs_term]) and parse, decide and render inside one bracket
   ([with_obs]); lint, interact and query lint/explain share the report
   term ([report_term]) and the one analyzer driver (Analysis.Driver). *)

open Cmdliner

let die fmt = Format.kasprintf (fun s -> `Error (false, s)) fmt

(* Every file the CLI writes (--trace, --metrics, --audit, lint -o,
   --emit-cert) goes through [write_file]: an unwritable path is one
   line on stderr, the other outputs are still attempted, and the run
   exits at least 124 — the status [die] gives — so a verdict's 0, 1 or
   2 becomes 124 while an internal error (125) or a signal (130, 143)
   keeps its own.  [exit] is shadowed so that every exit path says
   so. *)
let write_failed = ref false

let write_file path contents =
  try
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc contents)
  with Sys_error m ->
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix m then
        String.sub m (String.length prefix)
          (String.length m - String.length prefix)
      else m
    in
    Printf.eprintf "pathctl: cannot write %s: %s\n%!" path reason;
    write_failed := true

let exit code = exit (if !write_failed then max code 124 else code)

(* Every CLI input read goes through the fault-injectable I/O layer, so
   torn/truncated reads can be rehearsed end-to-end ([cli.read] site);
   disarmed, this is a plain file read.  The analyzer driver reads its
   inputs through the same function. *)
let read_file = Analysis.Driver.read_file

(* the layer spans of --stats, shared with the analyzer driver *)
let parsing = Analysis.Driver.parsing

(* Machine-readable diagnostic on stderr for snapshot degradation:
   operators grep these out of service logs. *)
let snapshot_diag event file reason =
  prerr_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("event", Obs.Json.String event);
            ("file", Obs.Json.String file);
            ("reason", Obs.Json.String reason);
          ]))

(* Constraint files: line-oriented DSL, or the XML syntax when the
   content starts with '<'. *)
let load_constraints path =
  match read_file path with
  | Error m -> Error m
  | Ok s ->
      let t = String.trim s in
      if String.length t > 0 && t.[0] = '<' then Xmlrep.Constraints_xml.parse s
      else Pathlang.Parser.constraints_of_string s

(* Graph files: edge-list text, or an XML document when the content
   starts with '<'. *)
let load_graph path =
  match read_file path with
  | Error m -> Error m
  | Ok s ->
      let t = String.trim s in
      if String.length t > 0 && t.[0] = '<' then
        Result.map fst (Xmlrep.To_graph.graph_of_string s)
      else Sgraph.Io.of_string s

let parse_constraint s = Pathlang.Parser.constraint_of_string s

(* --- observability ---------------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON trace of this run to $(docv); \
           load it in chrome://tracing or Perfetto (ui.perfetto.dev).")

let stats_arg =
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
        ~vopt:(Some `Text)
    & info [ "stats" ] ~docv:"FMT"
        ~doc:
          "Print counters and per-span timing to standard error after the \
           run: an aligned $(b,text) table (the default) or one $(b,json) \
           object.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write every counter, gauge, histogram and span aggregate as an \
           OpenMetrics/Prometheus text exposition to $(docv) after the run \
           (scrape it, or diff it across runs).")

let audit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "audit" ] ~docv:"FILE"
        ~doc:
          "Write a decision audit journal to $(docv) as JSON lines: one \
           record per implication decision (route taken, store prefilter \
           outcome, budgets spent, verdict) plus snapshot park/resume \
           events.")

(* The four observability flags, as the one argument every instrumented
   command takes. *)
type obs = {
  trace : string option;
  stats : [ `Text | `Json ] option;
  metrics : string option;
  audit : string option;
}

let obs_term =
  Term.(
    const (fun trace stats metrics audit -> { trace; stats; metrics; audit })
    $ trace_arg $ stats_arg $ metrics_arg $ audit_arg)

(* Instrumentation bracket: enable the requested observability, run [f]
   under a root span, then write the trace file, the OpenMetrics
   exposition and the audit journal and print the stats before handing
   back [f]'s result.  [f] loads and parses its inputs itself, under
   [layer.parse], so the root span's self time is what no layer
   claims.  Commands that want a non-zero exit status return it from
   [f] — calling [exit] inside would skip the flush.  [always] keeps
   counters on even without --stats, so that exhaustion diagnostics
   can report what the budget was spent on.  An exception from [f] is
   re-raised as it was, whatever the flush does. *)
let with_obs ~cmd ?(always = false) { trace; stats; metrics; audit } f =
  if trace <> None then Obs.enable_tracing ()
  else if always || stats <> None || metrics <> None then Obs.enable ();
  if audit <> None then Obs.Audit.enable ();
  let finish () =
    Option.iter
      (fun file -> write_file file (Obs.Trace.to_chrome_json () ^ "\n"))
      trace;
    Option.iter (fun file -> write_file file (Obs.Openmetrics.render ())) metrics;
    Option.iter (fun file -> write_file file (Obs.Audit.to_jsonl ())) audit;
    match stats with
    | Some `Text -> prerr_string (Obs.Stats.to_text ())
    | Some `Json -> prerr_endline (Obs.Json.to_string (Obs.Stats.to_json ()))
    | None -> ()
  in
  match Obs.Span.with_ ("pathctl." ^ cmd) f with
  | v ->
      finish ();
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try finish () with _ -> ());
      Printexc.raise_with_backtrace e bt

(* --- common arguments ------------------------------------------------ *)

(* -j N fans the embarrassingly-parallel phases (countermodel
   enumeration, lint passes) across a domain pool; every pool-aware
   entry point guarantees byte-identical output at any job count, so
   this is purely a throughput knob. *)
let jobs_arg =
  Arg.(
    value
    & opt int (Par.jobs_of_env ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel phases (countermodel \
           enumeration, lint passes).  Defaults to the \
           $(b,PATHCTL_JOBS) environment variable when set, else 1.  \
           Results are byte-identical at any job count.")

let graph_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "g"; "graph" ] ~docv:"FILE"
        ~doc:"Graph file: one edge per line, 'src label dst'; node 0 is the root.")

let sigma_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "s"; "sigma" ] ~docv:"FILE"
        ~doc:"Constraint file, one P_c constraint per line.")

let phi_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PHI" ~doc:"The test constraint, in concrete syntax.")

(* --- check ------------------------------------------------------------ *)

let check_cmd =
  let max_violations_arg =
    Arg.(
      value & opt int 3
      & info [ "max-violations" ] ~docv:"N"
          ~doc:"Print at most $(docv) violating pairs per failing constraint.")
  in
  let run graph_file sigma_file max_violations obs =
    with_obs ~cmd:"check" obs (fun () ->
        match
          parsing (fun () -> (load_graph graph_file, load_constraints sigma_file))
        with
        | Error m, _ | _, Error m -> die "%s" m
        | Ok g, Ok sigma ->
            let ok = ref true in
            List.iter
              (fun c ->
                let holds = Sgraph.Check.holds g c in
                if not holds then ok := false;
                Printf.printf "%-50s %s\n" (Pathlang.Constr.to_string c)
                  (if holds then "holds" else "FAILS");
                if not holds then begin
                  let violations = Sgraph.Check.violations g c in
                  List.iteri
                    (fun i (x, y) ->
                      if i < max_violations then
                        Printf.printf "    violated at (x=%d, y=%d)\n" x y)
                    violations;
                  let total = List.length violations in
                  if total > max_violations then
                    Printf.printf "    (… and %d more)\n"
                      (total - max_violations)
                end)
              sigma;
            if !ok then `Ok () else `Error (false, "some constraints fail"))
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Model-check constraints against a graph")
    Term.(
      ret
        (const run $ graph_arg $ sigma_arg $ max_violations_arg $ obs_term))

(* --- implies (word, untyped) ------------------------------------------- *)

(* the word procedure's one input error, shared by implies and optimize *)
let not_word (Core.Word_untyped.Not_word_constraint c) =
  die "not a word constraint: %a (use 'chase' for general P_c)"
    Pathlang.Constr.pp c

let implies_cmd =
  let proof_arg =
    Arg.(
      value & flag
      & info [ "proof" ]
          ~doc:
            "Print a derivation in the three complete rules (reflexivity, \
             transitivity, right-congruence) when implied.")
  in
  let run sigma_file phi proof =
    match (load_constraints sigma_file, parse_constraint phi) with
    | Error m, _ | _, Error m -> die "%s" m
    | Ok sigma, Ok phi -> (
        match Core.Word_untyped.implies ~sigma phi with
        | Ok b ->
            Printf.printf "%b\n" b;
            if b && proof then (
              match Core.Word_untyped.derivation ~sigma phi with
              | Ok (Ok d) -> Format.printf "%a@." Core.Axioms.pp d
              | Ok (Error m) -> Printf.printf "(no certificate: %s)\n" m
              | Error _ -> ());
            `Ok ()
        | Error e -> not_word e)
  in
  Cmd.v
    (Cmd.info "implies"
       ~doc:
         "Decide word constraint implication on semistructured data (PTIME, \
          implication = finite implication)")
    Term.(ret (const run $ sigma_arg $ phi_arg $ proof_arg))

(* --- implies-local -------------------------------------------------------- *)

let implies_local_cmd =
  let alpha_arg =
    Arg.(
      value
      & opt string "eps"
      & info [ "alpha" ] ~docv:"PATH" ~doc:"The common prefix path (default eps).")
  in
  let k_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "k"; "bound" ] ~docv:"LABEL"
          ~doc:"The bounding label K of Definition 2.3.")
  in
  let run sigma_file phi alpha k =
    match (load_constraints sigma_file, parse_constraint phi) with
    | Error m, _ | _, Error m -> die "%s" m
    | Ok sigma, Ok phi -> (
        match
          Core.Local_extent.implies
            ~alpha:(Pathlang.Path.of_string alpha)
            ~k:(Pathlang.Label.make k) ~sigma ~phi
        with
        | Ok b ->
            Printf.printf "%b\n" b;
            `Ok ()
        | Error m -> die "%s" m)
  in
  Cmd.v
    (Cmd.info "implies-local"
       ~doc:
         "Decide implication of local extent constraints on semistructured \
          data (Theorem 5.1, PTIME)")
    Term.(ret (const run $ sigma_arg $ phi_arg $ alpha_arg $ k_arg))

(* --- implies-typed ----------------------------------------------------------- *)

let schema_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "schema" ] ~docv:"FILE" ~doc:"Schema file (see docs for syntax).")

let implies_typed_cmd =
  let proof_arg =
    Arg.(value & flag & info [ "proof" ] ~doc:"Print the I_r derivation.")
  in
  let cert_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-cert" ] ~docv:"FILE"
          ~doc:"Write the I_r certificate as an s-expression to FILE \
                (verify later with check-proof).")
  in
  let run sigma_file phi schema_file proof cert =
    match
      ( load_constraints sigma_file,
        parse_constraint phi,
        Schema.Schema_parser.load schema_file )
    with
    | Error m, _, _ | _, Error m, _ | _, _, Error m -> die "%s" m
    | Ok sigma, Ok phi, Ok schema -> (
        match Core.Typed_m.decide schema ~sigma ~phi with
        | Error m -> die "%s" m
        | Ok (Core.Typed_m.Implied d) ->
            Printf.printf "true\n";
            if proof then Format.printf "%a@." Core.Axioms.pp d;
            Option.iter
              (fun file -> write_file file (Core.Axioms.to_sexp d ^ "\n"))
              cert;
            `Ok ()
        | Ok (Core.Typed_m.Vacuous m) ->
            Printf.printf "true (vacuously: %s)\n" m;
            `Ok ()
        | Ok (Core.Typed_m.Not_implied t) ->
            Printf.printf "false\n";
            if proof then
              Printf.printf "countermodel:\n%s"
                (Sgraph.Io.to_string t.Schema.Typecheck.graph);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "implies-typed"
       ~doc:
         "Decide P_c implication under an M schema (Theorem 4.2: cubic time, \
          finitely axiomatizable; --proof prints the I_r certificate)")
    Term.(ret (const run $ sigma_arg $ phi_arg $ schema_arg $ proof_arg $ cert_arg))

(* --- check-proof ------------------------------------------------------------------ *)

let check_proof_cmd =
  let proof_file_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "proof" ] ~docv:"FILE" ~doc:"Certificate file (s-expression).")
  in
  let run sigma_file phi proof_file =
    match
      (load_constraints sigma_file, parse_constraint phi, read_file proof_file)
    with
    | Error m, _, _ | _, Error m, _ | _, _, Error m -> die "%s" m
    | Ok sigma, Ok phi, Ok src -> (
        match Core.Axioms.of_sexp src with
        | Error m -> die "malformed certificate: %s" m
        | Ok d ->
            if Core.Axioms.proves ~sigma ~goal:phi d then begin
              Printf.printf "certificate OK: proves %s from sigma\n"
                (Pathlang.Constr.to_string phi);
              `Ok ()
            end
            else
              `Error
                ( false,
                  "certificate does NOT prove the goal from the given sigma" ))
  in
  Cmd.v
    (Cmd.info "check-proof"
       ~doc:
         "Independently verify an I_r certificate against a constraint set \
          and a goal")
    Term.(ret (const run $ sigma_arg $ phi_arg $ proof_file_arg))

(* --- chase ---------------------------------------------------------------------- *)

let chase_cmd =
  let steps_arg =
    Arg.(
      value & opt int 2000
      & info [ "max-steps"; "steps" ] ~docv:"N" ~doc:"Chase step budget.")
  in
  let nodes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"Node cap for the chased model (default: the step budget).")
  in
  let timeout_arg =
    Arg.(
      value & opt float 10.
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:"Wall-clock deadline in seconds (default 10).")
  in
  let escalate_arg =
    Arg.(
      value & flag
      & info [ "escalate" ]
          ~doc:
            "Iterative deepening: retry under geometrically growing \
             step/node budgets (64, 256, ... up to ~1M) instead of one \
             fixed shot; all rounds share the deadline.")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Park the chase state to $(docv) when the run stops without a \
             verdict (budget exhaustion, SIGINT, SIGTERM, injected crash); \
             written atomically, resumable with $(b,--resume).  Removed \
             when the run reaches a verdict.")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume a chase parked with $(b,--snapshot).  A corrupt, \
             truncated, version-skewed or mismatched snapshot logs a \
             structured diagnostic on stderr and falls back to a cold \
             start.")
  in
  let fault_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-spec" ] ~docv:"SPEC"
          ~doc:
            "Arm the deterministic fault injector (testing): \
             comma-separated SITE:HIT[:KIND] clauses plus optional seed=N, \
             e.g. 'chase.repair:3:crash'.  Overrides \\$PATHCTL_FAULT.")
  in
  let run sigma_file phi steps nodes timeout escalate snapshot resume fault
      jobs obs =
    let fault_err =
      match fault with
      | None -> None
      | Some spec -> (
          match Fault.spec_of_string spec with
          | Ok spec ->
              Fault.arm spec;
              None
          | Error m -> Some m)
    in
    match fault_err with
    | Some m -> die "bad --fault-spec: %s" m
    | None -> (
        if escalate && (snapshot <> None || resume <> None) then
          die
            "--escalate cannot be combined with --snapshot/--resume: \
             escalation restarts the chase from scratch each round, so \
             there is no single resumable state"
        else
          (* counters stay on even without --stats so an Unknown verdict
             can say what the budget was spent on *)
          let outcome =
            with_obs ~cmd:"chase" ~always:true obs (fun () ->
                match
                  parsing (fun () ->
                      (load_constraints sigma_file, parse_constraint phi))
                with
                | Error m, _ | _, Error m -> Error m
                | Ok sigma, Ok phi ->
                    let cancel = Core.Engine.Cancel.create () in
                    (* A bad resume file degrades to a cold start: a parked
                       snapshot is an optimization, never a correctness
                       requirement. *)
                    let resume_snap =
                      match resume with
                      | None -> None
                      | Some file -> (
                          match Core.Chase.Snapshot.load file with
                          | Ok s when
                              Core.Chase.Snapshot.matches_implies s ~sigma phi
                            ->
                              Printf.eprintf
                                "pathctl: resuming from %s (%d repairs done, \
                                 %d live nodes)\n\
                                 %!"
                                file
                                (Core.Chase.Snapshot.repairs s)
                                (Core.Chase.Snapshot.live_nodes s);
                              Some s
                          | Ok _ ->
                              snapshot_diag "snapshot.fallback" file
                                "fingerprint mismatch: snapshot was parked \
                                 for a different sigma/phi; cold start";
                              None
                          | Error m ->
                              snapshot_diag "snapshot.fallback" file
                                (m ^ "; cold start");
                              None)
                    in
                    let parked = ref None in
                    let park =
                      Option.map
                        (fun file s -> parked := Some (file, s))
                        snapshot
                    in
                    let verdict =
                      Par.with_pool ~jobs (fun pool ->
                          Core.Engine.Cancel.with_sigint cancel (fun () ->
                              if escalate then
                                Core.Decide.chase_escalating ~timeout
                                  ~cancel ?pool ~sigma phi
                              else
                                let budget =
                                  Core.Engine.Budget.v ~max_steps:steps
                                    ~max_nodes:
                                      (Option.value nodes ~default:steps)
                                    ~timeout ~cancel ()
                                in
                                let ctl =
                                  match resume_snap with
                                  | None -> Core.Engine.start budget
                                  | Some s ->
                                      Core.Engine.start
                                        ~spent_steps:
                                          (Core.Chase.Snapshot.engine_steps s)
                                        ~spent_peak_nodes:
                                          (Core.Chase.Snapshot
                                           .engine_peak_nodes s)
                                        budget
                                in
                                Core.Decide.chase ~ctl ?pool ?park
                                  ?resume:resume_snap ~sigma phi))
                    in
                    (match (!parked, snapshot) with
                    | Some (file, s), _ -> (
                        match Core.Chase.Snapshot.save ~path:file s with
                        | Ok () ->
                            Printf.eprintf
                              "pathctl: chase state parked to %s (resume \
                               with --resume %s)\n\
                               %!"
                              file file
                        | Error m -> snapshot_diag "snapshot.write_failed" file m
                        | exception Fault.Crash site ->
                            snapshot_diag "snapshot.write_crashed" file
                              ("injected crash at fault site " ^ site
                             ^ "; previous snapshot, if any, left intact"))
                    | None, Some file ->
                        (* decisive verdict: a stale park would only confuse
                           the next resume *)
                        if Sys.file_exists file then (
                          try Sys.remove file with Sys_error _ -> ())
                    | None, None -> ());
                    (* exit codes: 0 implied, 1 refuted, 2 unknown/exhausted
                       (also after an injected crash), 130 SIGINT (128+2),
                       143 SIGTERM (128+15) *)
                    Ok
                      (match verdict with
                      | Core.Verdict.Implied ->
                          print_endline "implied";
                          0
                      | Core.Verdict.Refuted g ->
                          let g = Core.Minimize.countermodel g ~sigma ~phi in
                          Printf.printf "refuted; minimal countermodel:\n%s"
                            (Sgraph.Io.to_string g);
                          1
                      | Core.Verdict.Unknown e -> (
                          Format.printf "unknown: %a@."
                            Core.Verdict.pp_exhaustion e;
                          match e.Core.Verdict.reason with
                          | Core.Verdict.Cancelled -> (
                              match Core.Engine.Cancel.cause cancel with
                              | Some Core.Engine.Cancel.Sigterm -> 143
                              | _ -> 130)
                          | _ -> 2)))
          in
          match outcome with Error m -> die "%s" m | Ok code -> exit code)
  in
  Cmd.v
    (Cmd.info "chase"
       ~doc:
         "Semi-decide general P_c implication on semistructured data \
          (undecidable in general, Theorem 4.1; sound verdicts only). \
          Exits 0 when implied, 1 when refuted, 2 when the budget was \
          exhausted (also after an injected crash parked a snapshot), \
          130 on SIGINT, 143 on SIGTERM.  --snapshot/--resume park and \
          continue long runs across interruptions.")
    Term.(
      ret
        (const run $ sigma_arg $ phi_arg $ steps_arg $ nodes_arg $ timeout_arg
       $ escalate_arg $ snapshot_arg $ resume_arg $ fault_arg $ jobs_arg
       $ obs_term))

(* --- encode ---------------------------------------------------------------------- *)

let encode_cmd =
  let pres_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "presentation" ] ~docv:"FILE"
          ~doc:"Monoid presentation ('gens a b' then 'u = v' lines).")
  in
  let which_arg =
    Arg.(
      value
      & opt (enum [ ("pwk", `Pwk); ("mplus", `Mplus); ("pwalpha", `Pwalpha) ]) `Pwk
      & info [ "reduction" ] ~docv:"KIND"
          ~doc:"Which reduction: pwk (Thm 4.3), mplus (Thm 5.2), pwalpha (Thm 6.1).")
  in
  let run pres_file which =
    match read_file pres_file with
    | Error m -> die "%s" m
    | Ok src -> (
        match Monoid.Presentation.parse src with
        | Error m -> die "%s" m
        | Ok pres ->
            (match which with
            | `Pwk ->
                List.iter
                  (fun c -> print_endline (Pathlang.Constr.to_string c))
                  (Core.Encode_pwk.encode pres)
            | `Mplus ->
                let enc = Core.Encode_mplus.encode pres in
                print_string (Schema.Schema_parser.to_string enc.Core.Encode_mplus.schema);
                print_endline "# constraints:";
                List.iter
                  (fun c -> print_endline (Pathlang.Constr.to_string c))
                  enc.Core.Encode_mplus.sigma
            | `Pwalpha ->
                let enc = Core.Encode_pwalpha.encode pres in
                print_string (Schema.Schema_parser.to_string enc.Core.Encode_pwalpha.schema);
                print_endline "# constraints:";
                List.iter
                  (fun c -> print_endline (Pathlang.Constr.to_string c))
                  enc.Core.Encode_pwalpha.sigma);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "encode"
       ~doc:
         "Print the undecidability reductions from the monoid word problem \
          (Sections 4.1 and 5.2)")
    Term.(ret (const run $ pres_arg $ which_arg))

(* --- dot ------------------------------------------------------------------------- *)

let dot_cmd =
  let run graph_file =
    match load_graph graph_file with
    | Error m -> die "%s" m
    | Ok g ->
        print_string (Sgraph.Dot.to_dot g);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render a graph file as Graphviz DOT")
    Term.(ret (const run $ graph_arg))

(* --- validate -------------------------------------------------------------------- *)

let validate_cmd =
  let types_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "types" ] ~docv:"FILE"
          ~doc:"Sort assignment: one 'node sort' pair per line.")
  in
  let run graph_file schema_file types_file =
    match
      ( load_graph graph_file,
        Schema.Schema_parser.load schema_file,
        read_file types_file )
    with
    | Error m, _, _ | _, Error m, _ | _, _, Error m -> die "%s" m
    | Ok g, Ok schema, Ok types_src -> (
        (* parse 'node sort-name' lines; sort names as in the schema
           syntax: class name, atomic name, db *)
        let lines =
          String.split_on_char '\n' types_src
          |> List.map String.trim
          |> List.filter (fun l -> l <> "" && l.[0] <> '#')
        in
        let parse_sort s =
          if s = "db" then Ok (Schema.Mschema.dbtype schema)
          else if
            List.exists
              (fun (c, _) -> Schema.Mtype.cname_name c = s)
              (Schema.Mschema.classes schema)
          then Ok (Schema.Mtype.Class (Schema.Mtype.cname s))
          else Ok (Schema.Mtype.Atomic (Schema.Mtype.atomic s))
        in
        let rec parse_assignments acc = function
          | [] -> Ok (List.rev acc)
          | l :: rest -> (
              match String.split_on_char ' ' l |> List.filter (( <> ) "") with
              | [ n; sort ] -> (
                  match (int_of_string_opt n, parse_sort sort) with
                  | Some n, Ok s -> parse_assignments ((n, s) :: acc) rest
                  | None, _ -> Error ("bad node id in: " ^ l)
                  | _, Error m -> Error m)
              | _ -> Error ("expected 'node sort': " ^ l))
        in
        match parse_assignments [] lines with
        | Error m -> die "%s" m
        | Ok assignments -> (
            let t = Schema.Typecheck.make g assignments in
            match Schema.Typecheck.validate schema t with
            | Ok () ->
                Printf.printf "valid: the structure is in U_f(Delta)\n";
                `Ok ()
            | Error es ->
                List.iter (Printf.printf "  %s\n") es;
                `Error (false, "type constraint Phi(Delta) violated")))
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check a sorted graph against a schema's type constraint Phi(Delta)")
    Term.(ret (const run $ graph_arg $ schema_arg $ types_arg))

(* --- optimize -------------------------------------------------------------------- *)

let optimize_cmd =
  let query_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:"Union of root-anchored paths, comma-separated (a.b,c.d).")
  in
  let run sigma_file query =
    match load_constraints sigma_file with
    | Error m -> die "%s" m
    | Ok sigma -> (
        match
          ( Core.Word_untyped.check_word sigma,
            List.map Pathlang.Path.of_string (String.split_on_char ',' query)
          )
        with
        | exception Invalid_argument m -> die "%s" m
        | Error e, _ -> not_word e
        | Ok (), paths ->
            let pruned = Core.Query.prune_union ~sigma paths in
            let best =
              List.map (Core.Query.cheapest_equivalent ~sigma) pruned
            in
            Printf.printf "%s\n"
              (String.concat ","
                 (List.map Pathlang.Path.to_string best));
            `Ok ())
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Optimize a union-of-paths query under word constraints: prune \
          contained disjuncts, substitute cheapest equivalent access paths")
    Term.(ret (const run $ sigma_arg $ query_arg))

(* --- consequences ----------------------------------------------------------------- *)

let consequences_cmd =
  let from_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH" ~doc:"Starting path.")
  in
  let steps_arg =
    Arg.(value & opt int 50 & info [ "steps" ] ~docv:"N" ~doc:"Sample size.")
  in
  let run sigma_file from steps =
    match load_constraints sigma_file with
    | Error m -> die "%s" m
    | Ok sigma ->
        List.iter
          (fun c -> print_endline (Pathlang.Path.to_string c))
          (Core.Word_untyped.consequences_sample ~sigma
             ~from:(Pathlang.Path.of_string from) ~max_steps:steps);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "consequences"
       ~doc:"Sample paths derivably implied from a starting path")
    Term.(ret (const run $ sigma_arg $ from_arg $ steps_arg))

(* --- word-problem ----------------------------------------------------------------- *)

let word_problem_cmd =
  let pres_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "presentation" ] ~docv:"FILE" ~doc:"Monoid presentation file.")
  in
  let eq_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EQUATION" ~doc:"Test equation, e.g. 'a.a.a = eps'.")
  in
  let run pres_file eq =
    match read_file pres_file with
    | Error m -> die "%s" m
    | Ok src -> (
        match Monoid.Presentation.parse src with
        | Error m -> die "%s" m
        | Ok pres -> (
            match String.index_opt eq '=' with
            | None -> die "expected 'u = v'"
            | Some i -> (
                let u =
                  Pathlang.Path.of_string (String.trim (String.sub eq 0 i))
                in
                let v =
                  Pathlang.Path.of_string
                    (String.trim
                       (String.sub eq (i + 1) (String.length eq - i - 1)))
                in
                match Monoid.Word_problem.decide pres (u, v) with
                | Monoid.Word_problem.Equal ->
                    print_endline "equal (provable)";
                    `Ok ()
                | Monoid.Word_problem.Separated h ->
                    Format.printf "separated: %a@." Monoid.Hom.pp h;
                    `Ok ()
                | Monoid.Word_problem.Distinct ->
                    print_endline
                      "distinct (by convergent normal forms; no finite \
                       separating monoid found)";
                    `Ok ()
                | Monoid.Word_problem.Unknown ->
                    print_endline "unknown (undecidable in general)";
                    `Ok ())))
  in
  Cmd.v
    (Cmd.info "word-problem"
       ~doc:
         "Attack a monoid word problem instance (completion, equational \
          search, separating homomorphisms)")
    Term.(ret (const run $ pres_arg $ eq_arg))

(* --- compare ---------------------------------------------------------------------- *)

let compare_cmd =
  let schema_opt_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "schema" ] ~docv:"FILE"
          ~doc:"Optional schema; M schemas get the cubic procedure, M+ \
                schemas bounded refutation.")
  in
  let run sigma_file phi schema_file =
    match (load_constraints sigma_file, parse_constraint phi) with
    | Error m, _ | _, Error m -> die "%s" m
    | Ok sigma, Ok phi -> (
        let with_schema k =
          match schema_file with
          | None -> k None
          | Some f -> (
              match Schema.Schema_parser.load f with
              | Ok s -> k (Some s)
              | Error m -> die "%s" m)
        in
        with_schema (fun schema ->
            let report = Core.Interaction.compare ?schema ~sigma phi in
            Format.printf "%a@." Core.Interaction.pp report;
            `Ok ()))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Run one implication instance through every applicable context \
          (untyped word / local extent / chase, and the typed procedures) \
          and report the interaction")
    Term.(ret (const run $ sigma_arg $ phi_arg $ schema_opt_arg))

(* --- rpq ------------------------------------------------------------------------- *)

let rpq_cmd =
  let regex_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REGEX"
          ~doc:"Regular path query, e.g. 'book.(ref)*.author'.")
  in
  let witness_arg =
    Arg.(value & flag & info [ "witness" ] ~doc:"Print a witness path per answer.")
  in
  let run graph_file regex witness =
    let parsed =
      Result.map_error Rpq.Parser.error_to_string (Rpq.Parser.parse regex)
    in
    match (load_graph graph_file, parsed) with
    | Error m, _ | _, Error m -> die "%s" m
    | Ok g, Ok ast ->
        let r = Rpq.Parser.regex_of ast in
        if witness then
          List.iter
            (fun (v, w) ->
              Printf.printf "%d\tvia %s\n" v (Pathlang.Path.to_string w))
            (Rpq.Eval.witnesses g (Sgraph.Graph.root g) r)
        else
          Sgraph.Graph.Node_set.iter (Printf.printf "%d\n") (Rpq.Eval.eval g r);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "rpq"
       ~doc:"Evaluate a regular path query on a graph (answers from the root)")
    Term.(ret (const run $ graph_arg $ regex_arg $ witness_arg))

(* --- odl ------------------------------------------------------------------------- *)

let odl_cmd =
  let odl_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "odl" ] ~docv:"FILE" ~doc:"ODL interface declarations.")
  in
  let run odl_file =
    match read_file odl_file with
    | Error m -> die "%s" m
    | Ok src -> (
        match Schema.Odl.parse src with
        | Error e -> die "%s" (Pathlang.Parser.error_to_string e)
        | Ok spec ->
            print_endline "# type constraint (the schema, in pathcons syntax):";
            print_string (Schema.Schema_parser.to_string spec.Schema.Odl.schema);
            print_endline "# extent constraints:";
            List.iter
              (fun c -> print_endline (Pathlang.Constr.to_string c))
              spec.Schema.Odl.extent_constraints;
            print_endline "# inverse constraints:";
            List.iter
              (fun c -> print_endline (Pathlang.Constr.to_string c))
              spec.Schema.Odl.inverse_constraints;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "odl"
       ~doc:
         "Separate an ODL declaration into its type constraint and its path \
          constraints (the Section 1 retrospective)")
    Term.(ret (const run $ odl_arg))

(* --- index ------------------------------------------------------------------------ *)

let index_cmd =
  let run graph_file =
    match load_graph graph_file with
    | Error m -> die "%s" m
    | Ok g ->
        Printf.printf "data graph: %d nodes, %d edges\n"
          (Sgraph.Graph.node_count g) (Sgraph.Graph.edge_count g);
        let q, _ = Sgraph.Bisim.quotient g in
        Printf.printf "bisimulation quotient (1-index): %d nodes, %d edges\n"
          (Sgraph.Graph.node_count q) (Sgraph.Graph.edge_count q);
        (match Sgraph.Dataguide.build g with
        | Ok guide ->
            Printf.printf "strong dataguide: %d states\n"
              (Sgraph.Dataguide.size guide)
        | Error m -> Printf.printf "strong dataguide: %s\n" m);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:
         "Report the sizes of the classical path indexes (bisimulation \
          1-index, strong DataGuide) for a graph")
    Term.(ret (const run $ graph_arg))

(* --- analyzer front end -------------------------------------------------------- *)

(* lint, interact and query lint/explain print one diagnostic report *)
type report = { format : [ `Text | `Json | `Sarif ]; output : string option }

let report_term =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: human-readable $(b,text), JSON lines ($(b,json)), \
             or SARIF 2.1.0 ($(b,sarif)) for CI annotation.")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the report to $(docv) instead of standard output.")
  in
  Term.(const (fun format output -> { format; output }) $ format_arg $ output_arg)

let render { format; output } diags =
  Analysis.Driver.rendering (fun () ->
      let rendered =
        match format with
        | `Text -> Analysis.Diagnostic.render_text diags
        | `Json -> Analysis.Diagnostic.render_json diags
        | `Sarif -> Analysis.Diagnostic.render_sarif diags
      in
      match output with
      | None -> print_string rendered
      | Some file -> write_file file rendered)

let max_warnings_arg ~doc =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-warnings" ] ~docv:"N"
        ~doc:
          ("Exit 1 when more than $(docv) warning-severity diagnostics fire \
            (errors always exit 1)" ^ doc ^ "."))

(* the warning threshold may come from the config file, which the
   driver hands back as it loads it; the explicit flag wins.  The pair
   is the driver's [on_config] and the threshold, read after the run. *)
let warning_threshold flag =
  let from_config = ref None in
  ( (fun c -> from_config := c.Analysis.Config.max_warnings),
    fun () -> match flag with Some _ -> flag | None -> !from_config )

(* lint and interact: the budget of the best-effort passes, cancelled by
   SIGINT; the term yields the bracket that runs an analysis under it.
   The commands open it outside [with_obs]: installing and restoring the
   two signal handlers is process set-up, like enabling the counters,
   and would otherwise be the largest share of the root span's self
   time, which no layer claims. *)
let analysis_budget_term ~timeout_doc =
  let timeout_arg =
    Arg.(value & opt float 5. & info [ "timeout" ] ~docv:"SECS" ~doc:timeout_doc)
  in
  let steps_arg =
    Arg.(
      value & opt int 512
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Step/node budget per best-effort chase call.")
  in
  let with_budget timeout steps f =
    let cancel = Core.Engine.Cancel.create () in
    let budget =
      Core.Engine.Budget.v ~max_steps:steps ~max_nodes:steps ~timeout ~cancel ()
    in
    Core.Engine.Cancel.with_sigint cancel (fun () -> f budget)
  in
  Term.(const with_budget $ timeout_arg $ steps_arg)

(* keep the load/parse errors in a filtered report: a file that did not
   parse has no analysis, and the consumer must see why *)
let input_error d =
  match d.Analysis.Diagnostic.code with
  | "PC001" | "PC002" | "PC003" -> true
  | _ -> false

(* --- lint ------------------------------------------------------------------------ *)

let lint_cmd =
  let schema_opt_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "schema" ] ~docv:"FILE"
          ~doc:
            "Optional schema: enables the typed passes (vacuity, \
             inconsistency, typed redundancy) and refines the Table 1 cell.")
  in
  let phi_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "phi" ] ~docv:"CONSTRAINT"
          ~doc:
            "Optional goal constraint; sharpens the fragment classification \
             (prefix-boundedness is determined by the goal).")
  in
  let config_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "config" ] ~docv:"FILE"
          ~doc:
            "Analyzer configuration (a small TOML subset): per-code severity \
             overrides, pass selection, and defaults for --explain, --cache \
             and --max-warnings.  Explicit flags win over the file.")
  in
  let fix_arg =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:
            "Apply safe textual autofixes in place: delete duplicate \
             (PC500), prefix-subsumed (PC505) and trivially-true (PC504) \
             constraints, comment out eps-conclusion EGDs (PC503); then \
             re-lint and report what remains.  Idempotent; line DSL only.")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "With a schema: print the inferred sort (class set) at each \
             step of every constraint's walks as PC602 diagnostics.")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Content-hash result cache: re-running on unchanged inputs \
             skips every pass (hits/misses appear in --stats as \
             lint.cache.*).  The directory is created on demand.")
  in
  let interact_arg =
    Arg.(
      value & flag
      & info [ "interact" ]
          ~doc:
            "Also run the constraint-interaction analyzer (PC700 minimal \
             unsatisfiable cores, PC701 implication-DAG edges with minimal \
             antecedent subsets, PC702 path-vs-type provenance).  Off by \
             default; a config file's [passes] interact = true is \
             equivalent.")
  in
  let run sigma_file schema_file phi config fix explain interact max_warnings
      cache report with_budget jobs obs =
    exit
    @@ with_budget (fun budget ->
           with_obs ~cmd:"lint" ~always:true obs (fun () ->
               let on_config, max_warnings = warning_threshold max_warnings in
               let finish diags =
                 render report diags;
                 if
                   obs.stats <> None
                   && List.exists
                        (fun d -> d.Analysis.Diagnostic.code = "PC302")
                        diags
                 then
                   prerr_endline
                     "lint: warning: the redundancy pass was truncated by its \
                      budget (PC302); its timings below are a lower bound";
                 (* exit codes: 0 clean (warnings under the threshold allowed),
                    1 an error-severity diagnostic or too many warnings *)
                 Analysis.Lint.exit_code ?max_warnings:(max_warnings ()) diags
               in
               Par.with_pool ~jobs (fun pool ->
                   (* --fix lints through this very call, so a fixing run
                      analyzes exactly as a plain one *)
                   let lint () =
                     Analysis.Lint.lint_paths ~budget ?pool ?schema_file ?phi
                       ?config_file:config ?cache_dir:cache ~explain ~interact
                       ~on_config ~sigma_file ()
                   in
                   if fix then (
                     match Analysis.Fix.fix_file ~lint ~sigma_file () with
                     | Error m ->
                         prerr_endline ("lint: error: " ^ m);
                         2
                     | Ok (n, diags) ->
                         if n > 0 then
                           Printf.eprintf
                             "lint: applied %d autofix(es) to %s\n%!" n
                             sigma_file;
                         finish diags)
                   else finish (lint ()))))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a constraint file (and optional schema): \
          classify the instance into its Table 1 decidability cell, type \
          every constraint's walks against the schema graph (dead paths, \
          M+ undecidability triggers, --explain annotations), and flag \
          vacuous, redundant, inconsistent and unhygienic constraints, \
          with stable diagnostic codes (PC001-PC7xx) in text, JSON, or \
          SARIF form.  Suppression pragmas (# pathctl-disable CODE), a \
          --config file, --fix autofixes and a --cache result cache make \
          it suitable for per-commit CI.  --interact adds the \
          constraint-interaction analyzer (PC700-PC703).  Exits 1 iff an \
          error-severity diagnostic fired or --max-warnings was exceeded.")
    Term.(
      const run $ sigma_arg $ schema_opt_arg $ phi_opt_arg $ config_arg
      $ fix_arg $ explain_arg $ interact_arg
      $ max_warnings_arg ~doc:", so CI can gate on warnings without parsing SARIF"
      $ cache_arg $ report_term
      $ analysis_budget_term
          ~timeout_doc:
            "Wall-clock deadline for the budgeted passes (best-effort \
             redundancy); the exact passes are not affected."
      $ jobs_arg $ obs_term)

(* --- interact -------------------------------------------------------------------- *)

let interact_cmd =
  let schema_opt_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "schema" ] ~docv:"FILE"
          ~doc:
            "Optional schema: enables PC700 minimal-core search and PC702 \
             path-vs-type provenance (both need a kind-M schema); without \
             one only the untyped implication DAG (PC701) is computed.")
  in
  let config_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "config" ] ~docv:"FILE"
          ~doc:
            "Analyzer configuration (the same TOML subset as $(b,lint)): \
             severity overrides — including the PC7xx family key — are \
             applied to the report.")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Attach derivation detail: the clashing path pair of a core, \
             the antecedent constraints of each implication-DAG edge, and \
             the word-equality reading (Lemmas 4.7/4.8) behind a \
             path-vs-type interaction.")
  in
  let run sigma_file schema_file config explain report with_budget jobs obs =
    exit
    @@ with_budget (fun budget ->
           with_obs ~cmd:"interact" ~always:true obs (fun () ->
               let diags =
                 Par.with_pool ~jobs (fun pool ->
                     Analysis.Lint.lint_paths ~budget ?pool ?schema_file
                       ?config_file:config ~explain ~interact:true ~sigma_file
                       ())
               in
               (* the interaction report: the PC7xx family plus the
                  input errors *)
               let mine d =
                 let c = d.Analysis.Diagnostic.code in
                 (String.length c = 5 && c.[2] = '7') || input_error d
               in
               let diags = List.filter mine diags in
               render report diags;
               Analysis.Lint.exit_code diags))
  in
  Cmd.v
    (Cmd.info "interact"
       ~doc:
         "Analyze how the path constraints of one file interact with each \
          other and with the schema's type constraints: report minimal \
          unsatisfiable cores (PC700), the implication DAG with minimal \
          witnessing antecedent subsets (PC701), and entailments that \
          exist only through the type constraints (PC702), with --explain \
          derivation chains.  Equivalent to lint --interact filtered to \
          the PC7xx family.  Exits 1 iff a core was found.")
    Term.(
      const run $ sigma_arg $ schema_opt_arg $ config_arg $ explain_arg
      $ report_term
      $ analysis_budget_term
          ~timeout_doc:
            "Wall-clock deadline for the whole analysis; exhaustion is \
             reported as a PC703 hint, never silently."
      $ jobs_arg $ obs_term)

(* --- query ----------------------------------------------------------------------- *)

(* pathctl query {lint,eval,explain}: the typed-RPQ front end.  A query
   file is line-oriented — one regular path query per line, or a
   regular constraint 'lhs -> rhs' — with the same '# pathctl-disable'
   pragma discipline as constraint files. *)

let query_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"QUERIES"
        ~doc:
          "Query file: one regular path query per line (e.g. \
           'book.(ref)*.author'), or a regular constraint \
           'lhs -> rhs'.  '# pathctl-disable CODE' pragmas suppress \
           diagnostics exactly as in constraint files.")

let query_schema_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "schema" ] ~docv:"FILE"
        ~doc:
          "Schema (kind M): enables the PC8xx typechecking pass — without \
           it queries are only parsed.")

let query_config_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "config" ] ~docv:"FILE"
        ~doc:
          "Analyzer configuration (the same TOML subset as $(b,lint)): \
           severity overrides — including the PC8xx family key — the \
           [passes] querycheck switch, and defaults for --explain, \
           --cache and --max-warnings.")

let query_lint_cmd =
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Also emit PC803 type-flow annotations: the inferred sort set \
             after every letter of every query, and the answer sorts.")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Content-hash result cache: re-running on unchanged query, \
             schema and config files skips the pass (hits/misses appear \
             in --stats as lint.cache.*).")
  in
  let run query_file schema_file config explain max_warnings cache report
      jobs obs =
    exit
    @@ with_obs ~cmd:"query.lint" ~always:true obs (fun () ->
           let on_config, max_warnings = warning_threshold max_warnings in
           let diags =
             Par.with_pool ~jobs (fun pool ->
                 Analysis.Querycheck.lint_queries ?pool ?schema_file
                   ?config_file:config ?cache_dir:cache ~explain ~on_config
                   ~query_file ())
           in
           render report diags;
           Analysis.Lint.exit_code ?max_warnings:(max_warnings ()) diags)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically typecheck a file of regular path queries against a \
          schema: flag queries whose language misses Paths(Delta) \
          entirely (PC800, with the first unsatisfiable token pinpointed), \
          dead alternation branches and starred bodies (PC801), and \
          regular constraints whose two sides type to disjoint answer \
          sorts (PC802), with --explain PC803 inferred-type chains.  Same \
          configuration, suppression-pragma, cache and renderer machinery \
          as $(b,pathctl lint).  Exits 1 iff an error-severity diagnostic \
          fired or --max-warnings was exceeded.")
    Term.(
      const run $ query_file_arg $ query_schema_arg $ query_config_arg
      $ explain_arg $ max_warnings_arg ~doc:"" $ cache_arg $ report_term
      $ jobs_arg $ obs_term)

let query_eval_cmd =
  let untyped_arg =
    Arg.(
      value & flag
      & info [ "untyped" ]
          ~doc:
            "Force the untyped product BFS even when a schema is given \
             (the baseline the typed evaluator is benchmarked against).")
  in
  let timeout_arg =
    Arg.(
      value & opt float 10.
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:"Wall-clock deadline for the typed evaluation.")
  in
  let steps_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Product-pair budget for the typed evaluation.")
  in
  let run query_file graph_file schema_file untyped timeout steps obs =
    exit
    @@ with_obs ~cmd:"query.eval" ~always:true obs (fun () ->
          let ( let* ) r k =
            match r with
            | Error m ->
                prerr_endline ("query eval: error: " ^ m);
                2
            | Ok v -> k v
          in
          let* g, doc, schema =
            parsing (fun () ->
                let ( let* ) = Result.bind in
                let* g = load_graph graph_file in
                let* src = read_file query_file in
                let* doc =
                  Rpq.Parser.document_of_string src
                  |> Result.map_error Rpq.Parser.error_to_string
                in
                let* schema =
                  match schema_file with
                  | None -> Ok None
                  | Some path ->
                      Result.map Option.some (Schema.Schema_parser.load path)
                in
                Ok (g, doc, schema))
          in
          let cancel = Core.Engine.Cancel.create () in
          let budget =
            Core.Engine.Budget.v ~max_steps:steps ~max_nodes:steps ~timeout
              ~cancel ()
          in
          let cancelled () = Core.Engine.Cancel.is_cancelled cancel in
          let answers =
            match schema with
            | Some schema when not untyped ->
                (* the typing depends on the graph alone: one per run,
                   taken when the first typed query needs it *)
                let class_of = lazy (Rpq.Typecheck.type_graph schema g) in
                fun ast ->
                  let tc = Rpq.Typecheck.run schema ast in
                  let class_of = Lazy.force class_of in
                  let ctl = Core.Engine.start budget in
                  let interrupt () = not (Core.Engine.tick ctl ()) in
                  Rpq.Eval.eval_typed ~interrupt ~class_of tc g
            | _ ->
                fun ast ->
                  Rpq.Eval.eval ~interrupt:cancelled g (Rpq.Parser.regex_of ast)
          in
          let qstr ast = Rpq.Regex.to_string (Rpq.Parser.regex_of ast) in
          Core.Engine.Cancel.with_sigint cancel (fun () ->
              match
                List.iter
                  (fun (it : Rpq.Parser.located) ->
                    match it.Rpq.Parser.item with
                    | Rpq.Parser.Query ast ->
                        let ns = answers ast in
                        Printf.printf "%s:%s\n" (qstr ast)
                          (String.concat ""
                             (List.map (Printf.sprintf " %d")
                                (Sgraph.Graph.Node_set.elements ns)))
                    | Rpq.Parser.Constr { lhs; rhs } ->
                        let c =
                          {
                            Rpq.Eval.lhs = Rpq.Parser.regex_of lhs;
                            rhs = Rpq.Parser.regex_of rhs;
                          }
                        in
                        Printf.printf "%s -> %s: %s\n" (qstr lhs) (qstr rhs)
                          (if Rpq.Eval.holds ~interrupt:cancelled g c then "holds"
                           else "FAILS"))
                  doc.Rpq.Parser.items
              with
              | () -> 0
              | exception Rpq.Eval.Interrupted ->
                  prerr_endline
                    "query eval: interrupted (budget exhausted or \
                     cancelled); partial output above is complete per \
                     finished query";
                  2))
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:
         "Evaluate a file of regular path queries on a graph (answers from \
          the root, one line per query; regular constraints report \
          holds/FAILS).  With --schema, evaluation runs the type-pruned \
          product — states the schema proves dead or unfinishable are \
          never explored — under a step/wall-clock budget; answers are \
          identical to the untyped BFS on schema-conforming graphs \
          (--untyped forces the baseline).")
    Term.(
      const run $ query_file_arg $ graph_arg $ query_schema_arg $ untyped_arg
      $ timeout_arg $ steps_arg $ obs_term)

let query_explain_cmd =
  let run query_file schema_file config report jobs obs =
    exit
    @@ with_obs ~cmd:"query.explain" ~always:true obs (fun () ->
           let diags =
             Par.with_pool ~jobs (fun pool ->
                 Analysis.Querycheck.lint_queries ?pool ?schema_file
                   ?config_file:config ~explain:true ~query_file ())
           in
           (* the explanation report: the PC803 chains plus the input
              errors *)
           let mine d = d.Analysis.Diagnostic.code = "PC803" || input_error d in
           let diags = List.filter mine diags in
           render report diags;
           Analysis.Lint.exit_code diags)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Print the inferred type chains of every query in a file (PC803): \
          the schema classes live after each letter, and the answer \
          sorts.  Equivalent to $(b,query lint --explain) filtered to \
          PC803 and the input-error codes.")
    Term.(
      const run $ query_file_arg $ query_schema_arg $ query_config_arg
      $ report_term $ jobs_arg $ obs_term)

let query_cmd =
  Cmd.group
    (Cmd.info "query"
       ~doc:
         "Typed regular path queries: statically typecheck a query file \
          against a schema ($(b,lint)), evaluate it on a graph with \
          type-based pruning ($(b,eval)), or print the inferred type \
          chains ($(b,explain))")
    [ query_lint_cmd; query_eval_cmd; query_explain_cmd ]

(* --- main ------------------------------------------------------------------------ *)

let () =
  (* Arm the fault injector from the environment before any command
     runs, so every subcommand (chase, lint, ...) is injectable in CI;
     a malformed spec is a hard error — a test meaning to inject faults
     must never silently run clean. *)
  (match Sys.getenv_opt "PATHCTL_FAULT" with
  | None | Some "" -> ()
  | Some spec -> (
      match Fault.spec_of_string spec with
      | Ok spec -> Fault.arm spec
      | Error m ->
          Printf.eprintf "pathctl: bad PATHCTL_FAULT: %s\n" m;
          exit 2));
  let doc =
    "reasoning about path constraints and their interaction with type \
     systems (Buneman, Fan, Weinstein, PODS'99)"
  in
  let info = Cmd.info "pathctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            check_cmd;
            implies_cmd;
            implies_local_cmd;
            implies_typed_cmd;
            chase_cmd;
            encode_cmd;
            dot_cmd;
            validate_cmd;
            optimize_cmd;
            consequences_cmd;
            word_problem_cmd;
            rpq_cmd;
            compare_cmd;
            check_proof_cmd;
            index_cmd;
            odl_cmd;
            lint_cmd;
            interact_cmd;
            query_cmd;
          ]))
