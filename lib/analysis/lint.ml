module Span = Pathlang.Span
module Parser = Pathlang.Parser

type input = {
  sigma_file : string;
  sigma : Parser.located list;
  pragmas : Parser.pragma list;
  schema : Schema.Mschema.t option;
  schema_file : string option;
  schema_spans : Schema.Schema_parser.spans option;
  phi : Pathlang.Constr.t option;
  config : Config.t;
  explain : bool;
  interact : bool;
      (* the interaction analyzer is opt-in: the CLI flag (or the
         [interact] subcommand) forces it on even when the config says
         otherwise *)
}

(* the passes proper: raw findings, before suppression and severity *)
let findings ?budget ?pool input =
  let {
    sigma_file;
    sigma;
    pragmas = _;
    schema;
    schema_file;
    schema_spans;
    phi;
    config;
    explain;
    interact;
  } =
    input
  in
  let spanned =
    List.map (fun l -> (l.Parser.constr, l.Parser.span)) sigma
  in
  let pass name f =
    if Config.pass_enabled config name then Driver.run_pass name f else []
  in
  let classify_p () =
    pass "classify" (fun () ->
        Classify.run ~sigma_file ?schema ?schema_file ?schema_spans ?phi
          spanned)
  in
  let typeflow_p () =
    pass "typeflow" (fun () ->
        match schema with
        | Some schema -> Typeflow.pass ~sigma_file ~schema ~explain sigma
        | None -> [])
  in
  let vacuity_p () =
    pass "vacuity" (fun () ->
        match schema with
        | Some schema -> Passes.vacuity ~sigma_file ~schema spanned
        | None -> [])
  in
  let inconsistency_p () =
    pass "inconsistency" (fun () ->
        match schema with
        | Some schema -> Passes.inconsistency ~sigma_file ~schema spanned
        | None -> [])
  in
  let redundancy_p ~inconsistency () =
    (* an inconsistent Sigma implies everything: redundancy is noise there *)
    pass "redundancy" (fun () ->
        if List.exists (fun d -> d.Diagnostic.code = "PC400") inconsistency
        then []
        else Passes.redundancy ~sigma_file ?schema ?budget spanned)
  in
  let hygiene_p () =
    pass "hygiene" (fun () ->
        Passes.hygiene ~sigma_file ?schema ?schema_file ?schema_spans spanned)
  in
  let interact_p () =
    (* unlike the default-on passes, interact runs only when opted in:
       by the [--interact] flag / [interact] subcommand, or by an
       explicit [interact = true] in the config.  The flag wins over a
       config-side [false] (an explicit request beats a default). *)
    let enabled =
      interact
      || List.assoc_opt "interact" config.Config.passes = Some true
    in
    if enabled then
      Driver.run_pass "interact" (fun () ->
          Interact.pass ~sigma_file ?schema ?budget ~explain spanned)
    else []
  in
  (* Each pass is pure given the parsed spans, so they fan out onto a
     pool; results are kept by pass index and concatenated in the fixed
     pass order, making -j N output byte-identical to -j 1.  Two
     stages: the span-pure passes first, then the two budgeted heavy
     passes side by side (redundancy reads inconsistency's PC400
     verdict, so it cannot join stage one). *)
  let classify, typeflow, vacuity, inconsistency, redundancy, hygiene, interact
      =
    match pool with
    | Some p when Par.jobs p > 1 ->
        let s1 =
          Par.run p ~tasks:5 (fun i ->
              match i with
              | 0 -> classify_p ()
              | 1 -> typeflow_p ()
              | 2 -> vacuity_p ()
              | 3 -> inconsistency_p ()
              | _ -> hygiene_p ())
        in
        let inconsistency = s1.(3) in
        let s2 =
          Par.run p ~tasks:2 (fun i ->
              if i = 0 then redundancy_p ~inconsistency () else interact_p ())
        in
        (s1.(0), s1.(1), s1.(2), inconsistency, s2.(0), s1.(4), s2.(1))
    | _ ->
        let classify = classify_p () in
        let typeflow = typeflow_p () in
        let vacuity = vacuity_p () in
        let inconsistency = inconsistency_p () in
        let redundancy = redundancy_p ~inconsistency () in
        let hygiene = hygiene_p () in
        let interact = interact_p () in
        (classify, typeflow, vacuity, inconsistency, redundancy, hygiene,
         interact)
  in
  classify @ typeflow @ vacuity @ inconsistency @ redundancy @ hygiene
  @ interact

let run ?budget ?pool input =
  Driver.finish ~file:input.sigma_file ~config:input.config input.pragmas
    (findings ?budget ?pool input)

(* --- exit-code policy ------------------------------------------------------ *)

let exit_code ?max_warnings diags =
  if Diagnostic.has_errors diags then 1
  else
    match max_warnings with
    | None -> 0
    | Some n ->
        let warnings =
          List.length
            (List.filter
               (fun d -> d.Diagnostic.severity = Diagnostic.Warning)
               diags)
        in
        if warnings > n then 1 else 0

(* --- file-level entry ------------------------------------------------------ *)

(* constraint files: line-oriented DSL, or the XML syntax when the
   content starts with '<' (XML constraints carry element-level spans
   but no per-token spans, and no suppression pragmas) *)
let load_sigma_src src =
  let t = String.trim src in
  if String.length t > 0 && t.[0] = '<' then
    match Xmlrep.Constraints_xml.parse_spanned src with
    | Ok cs ->
        Ok
          {
            Parser.constraints =
              List.map
                (fun (c, span) ->
                  { Parser.constr = c; span; tokens = Parser.no_token_spans })
                cs;
            pragmas = [];
          }
    | Error m -> Error (Span.point ~line:1 ~col:1, m)
  else
    match Parser.document_of_string src with
    | Ok doc -> Ok doc
    | Error e -> Error (Driver.parse_error e)

let budget_fingerprint (budget : Core.Engine.Budget.t option) =
  match budget with
  | None -> "default"
  | Some b ->
      Printf.sprintf "steps=%s;nodes=%s;timeout=%s"
        (match b.Core.Engine.Budget.max_steps with
        | None -> "-"
        | Some n -> string_of_int n)
        (match b.Core.Engine.Budget.max_nodes with
        | None -> "-"
        | Some n -> string_of_int n)
        (match b.Core.Engine.Budget.timeout with
        | None -> "-"
        | Some t -> Printf.sprintf "%g" t)

(* constraint files: the goal, the interaction switch and the budget
   are lint's own cache-key parts; [phi] is parsed after the schema, and
   a malformed goal is an input error like a malformed file *)
let kind ?budget ?pool ?phi ~interact () =
  {
    Driver.tag = "lint";
    parse = load_sigma_src;
    pragmas = (fun doc -> doc.Parser.pragmas);
    key_parts =
      (fun _ ->
        [
          Option.value phi ~default:"";
          (if interact then "interact" else "");
          budget_fingerprint budget;
        ]);
    passes =
      (fun ~file ~config ~explain schema doc ->
        let parse s =
          Driver.parsing (fun () ->
              Result.map Option.some (Parser.constraint_of_string s))
        in
        match Option.fold ~none:(Ok None) ~some:parse phi with
        | Error m ->
            Error
              (Diagnostic.make ~code:"PC001" ~severity:Diagnostic.Error
                 ~file:"<phi>" ("the goal constraint does not parse: " ^ m))
        | Ok phi ->
            Ok
              (findings ?budget ?pool
                 {
                   sigma_file = file;
                   sigma = doc.Parser.constraints;
                   pragmas = doc.Parser.pragmas;
                   schema = Option.map (fun s -> s.Driver.schema) schema;
                   schema_file =
                     Option.map (fun s -> s.Driver.schema_file) schema;
                   schema_spans =
                     Option.map (fun s -> s.Driver.schema_spans) schema;
                   phi;
                   config;
                   explain;
                   interact;
                 }));
  }

let lint_paths ?budget ?pool ?schema_file ?phi ?config_file ?cache_dir
    ?(explain = false) ?(interact = false) ?on_config ~sigma_file () =
  Driver.run
    (kind ?budget ?pool ?phi ~interact ())
    ?schema_file ?config_file ?cache_dir ~explain ?on_config
    ~file:sigma_file ()
