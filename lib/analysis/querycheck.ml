(* The PC8xx pass: schema-aware static analysis of regular path
   queries, plus the query-file kind of the analyzer driver.

   The engine is Rpq.Typecheck — the product of the query's Glushkov
   automaton (one state per letter occurrence) with the schema
   automaton, with reachable and co-reachable pairs read off every
   subexpression's position sets.  This pass turns them into
   diagnostics with token-anchored spans:

   - PC800 (empty query): L(query) does not intersect Paths(Delta) —
     equivalently, the product has no reachable accepting pair — with
     the first unsatisfiable token pinpointed (the first letter in
     source order whose entry still types non-empty but whose exit
     types empty);
   - PC801 (dead subexpression): an Alt branch or Star/Plus/Opt body
     of a non-empty query that no accepting product run passes
     through, so every schema-live match avoids it;
   - PC802 (ill-typed regular constraint): an [lhs -> rhs] whose two
     answer-sort sets are disjoint, so the inclusion can only hold
     vacuously;
   - PC803 (--explain): the inferred sort set after every letter
     occurrence, the regex-position sibling of the PC602 chains.

   [pathctl query lint] runs this pass through the one analyzer
   driver (Driver) that [pathctl lint] uses: the same configuration
   file (severity overrides, the [querycheck] pass switch), the same
   suppression pragmas (query files carry Pathlang.Parser pragmas, so
   Suppress — family patterns, PC510 staleness — applies unchanged),
   and the same content-hash cache, keyed additionally on the pass
   switch itself. *)

module Label = Pathlang.Label
module Qparser = Rpq.Parser
module Typecheck = Rpq.Typecheck

let qstr ast = Rpq.Regex.to_string (Qparser.regex_of ast)

let sorts_label schema = function
  | [] -> "(dead)"
  | taus ->
      String.concat " or " (List.map (Typeflow.sort_label schema) taus)

(* "db -[book]-> Book -[ref]-> Book": every letter occurrence in source
   order with the sorts live after it.  For a chain query this is
   exactly the PC602 rendering; for a branching query the segments
   enumerate the letter occurrences left to right. *)
let chain_label schema tc =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "db";
  List.iter
    (fun (k, _, sorts) ->
      Buffer.add_string buf
        (Printf.sprintf " -[%s]-> %s" (Label.to_string k)
           (sorts_label schema sorts)))
    (Typecheck.letter_chain tc);
  Buffer.contents buf

(* --- diagnostics of one checked query -------------------------------------- *)

let check_query ~query_file ~schema ~explain span (ast : Qparser.ast) =
  let tc = Typecheck.run schema ast in
  let out = ref [] in
  let add d = out := d :: !out in
  if Typecheck.empty_query tc then begin
    match Typecheck.first_dead tc with
    | Some (k, token_span, entry_sorts) ->
        add
          (Diagnostic.make ~code:"PC800" ~severity:Diagnostic.Warning
             ~file:query_file ~span:token_span
             (Printf.sprintf
                "empty query: no word of %s lies in Paths(Delta); sort %s \
                 has no edge labeled %s, so every candidate match dies at \
                 this token"
                (qstr ast)
                (sorts_label schema entry_sorts)
                (Label.to_string k)))
    | None ->
        add
          (Diagnostic.make ~code:"PC800" ~severity:Diagnostic.Warning
             ~file:query_file ~span
             (Printf.sprintf
                "empty query: no word of %s lies in Paths(Delta)" (qstr ast)))
  end
  else
    List.iter
      (fun (branch : Qparser.ast) ->
        add
          (Diagnostic.make ~code:"PC801" ~severity:Diagnostic.Warning
             ~file:query_file ~span:branch.Qparser.span
             (Printf.sprintf
                "dead subexpression: %s contributes no word of Paths(Delta); \
                 every schema-live match of %s avoids this branch"
                (qstr branch) (qstr ast))))
      (Typecheck.dead_subexprs tc);
  if explain then
    add
      (Diagnostic.make ~code:"PC803" ~severity:Diagnostic.Info
         ~file:query_file ~span
         (Printf.sprintf "type flow of %s: %s; answers: %s" (qstr ast)
            (chain_label schema tc)
            (sorts_label schema (Typecheck.answer_sorts tc))));
  (tc, List.rev !out)

let check_item ~query_file ~schema ~explain (it : Qparser.located) =
  match it.Qparser.item with
  | Qparser.Query ast ->
      snd (check_query ~query_file ~schema ~explain it.Qparser.span ast)
  | Qparser.Constr { lhs; rhs } ->
      let ltc, lds =
        check_query ~query_file ~schema ~explain it.Qparser.span lhs
      in
      let rtc, rds =
        check_query ~query_file ~schema ~explain it.Qparser.span rhs
      in
      let lsorts = Typecheck.answer_sorts ltc
      and rsorts = Typecheck.answer_sorts rtc in
      let disjoint =
        lsorts <> [] && rsorts <> []
        && not
             (List.exists
                (fun t -> List.exists (Schema.Mtype.equal t) rsorts)
                lsorts)
      in
      let pc802 =
        if disjoint then
          [
            Diagnostic.make ~code:"PC802" ~severity:Diagnostic.Warning
              ~file:query_file ~span:it.Qparser.span
              (Printf.sprintf
                 "ill-typed regular constraint: %s types to %s but %s types \
                  to %s; the answer sorts are disjoint, so the inclusion \
                  can only hold vacuously"
                 (qstr lhs) (sorts_label schema lsorts) (qstr rhs)
                 (sorts_label schema rsorts));
          ]
        else []
      in
      lds @ rds @ pc802

(* --- the pass -------------------------------------------------------------- *)

let pass ~query_file ~schema ?(explain = false) ?pool
    (items : Qparser.located list) =
  Driver.run_pass "querycheck" (fun () ->
      let arr = Array.of_list items in
      let results =
        match pool with
        | Some p when Par.jobs p > 1 ->
            (* one task per query line; results keep file order, so -j N
               output is byte-identical to -j 1 *)
            Par.run p ~tasks:(Array.length arr) (fun i ->
                check_item ~query_file ~schema ~explain arr.(i))
        | _ -> Array.map (check_item ~query_file ~schema ~explain) arr
      in
      List.concat (Array.to_list results))

(* --- the [pathctl query lint] document kind --------------------------------- *)

(* query files: the querycheck pass switch is a key part of its own
   (alongside the configuration text, which also spells it), so a run
   with the pass off never serves a hit to a run with it on; the
   evaluation budget is not a part, the pass does not read it *)
let kind ?pool () =
  let enabled config = Config.pass_enabled config "querycheck" in
  {
    Driver.tag = "querycheck";
    parse =
      (fun src ->
        Result.map_error
          (fun (e : Qparser.error) ->
            Driver.parse_error ~line:e.line ~col:e.col ~token:e.token
              ~reason:e.reason)
          (Qparser.document_of_string src));
    pragmas = (fun doc -> doc.Qparser.pragmas);
    key_parts =
      (fun config -> [ (if enabled config then "pass=on" else "pass=off") ]);
    passes =
      (fun ~file ~config ~explain schema doc ->
        match schema with
        | Some s when enabled config ->
            Ok
              (pass ~query_file:file ~schema:s.Driver.schema ~explain ?pool
                 doc.Qparser.items)
        | _ -> Ok []);
  }

let lint_queries ?pool ?schema_file ?config_file ?cache_dir
    ?(explain = false) ?on_config ~query_file () =
  Driver.run (kind ?pool ()) ?schema_file ?config_file ?cache_dir ~explain
    ?on_config ~file:query_file ()
