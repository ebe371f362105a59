module Span = Pathlang.Span

type severity = Error | Warning | Info | Hint

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"
  | Hint -> "hint"

type t = {
  code : string;
  severity : severity;
  message : string;
  file : string;
  span : Span.t option;
}

let rules =
  [
    ("PC001", Error, "constraint file does not parse");
    ("PC002", Error, "schema file does not parse");
    ("PC003", Error, "analyzer configuration file does not parse");
    ("PC100", Info, "instance classified into its Table 1 cell");
    ("PC101", Warning, "implication is undecidable in this cell (untyped)");
    ("PC102", Warning, "implication is undecidable in this cell (M+ schema)");
    ("PC103", Hint, "nearest decidable route out of an undecidable cell");
    ( "PC200",
      Warning,
      "constraint prefix unrealizable under the schema (vacuously satisfied)"
    );
    ("PC201", Warning, "constraint walks a path outside Paths(Delta)");
    ("PC300", Warning, "constraint is implied by the rest of Sigma (redundant)");
    ("PC301", Info, "suggested minimal cover of Sigma");
    ("PC302", Hint, "redundancy analysis inconclusive (budget exhausted)");
    ("PC400", Error, "Sigma is unsatisfiable under the schema");
    ("PC401", Error, "directly contradictory constraints");
    ("PC500", Warning, "duplicate constraint");
    ("PC501", Warning, "label used in constraints but absent from the schema");
    ("PC502", Info, "class declared in the schema but unreachable from db");
    ( "PC503",
      Hint,
      "equality-generating constraint (empty-path conclusion) limits \
       completeness" );
    ("PC504", Info, "constraint is trivially true");
    ( "PC505",
      Warning,
      "constraint subsumed by a shorter one (right congruence of path \
       containment)" );
    ("PC510", Warning, "suppression pragma never matched a diagnostic");
    ( "PC600",
      Warning,
      "dead path: a constraint walk types to the empty set under the schema"
    );
    ( "PC601",
      Warning,
      "set-valued step placing the instance in the undecidable M+ cell" );
    ("PC602", Info, "inferred type annotations along a constraint's walks");
    ( "PC700",
      Error,
      "member of a minimal unsatisfiable core of Sigma over the schema" );
    ( "PC701",
      Warning,
      "constraint entailed by a minimal antecedent subset of Sigma \
       (implication DAG edge)" );
    ( "PC702",
      Info,
      "entailment holds only through the type constraints (path/type \
       interaction)" );
    ("PC703", Hint, "interaction analysis inconclusive (budget exhausted)");
    ( "PC800",
      Warning,
      "empty query: no word of the query lies in Paths(Delta)" );
    ( "PC801",
      Warning,
      "dead subexpression: a query branch contributes no schema-live word" );
    ( "PC802",
      Warning,
      "ill-typed regular constraint: lhs and rhs answer types are disjoint" );
    ("PC803", Info, "inferred type sets at each position of a query");
  ]

let make ~code ~severity ~file ?span message =
  if not (List.exists (fun (c, _, _) -> c = code) rules) then
    invalid_arg (Printf.sprintf "Diagnostic.make: unknown code %s" code);
  { code; severity; message; file; span }

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let compare a b =
  let pos d =
    match d.span with
    | None -> (0, 0)
    | Some s -> (s.Span.line, s.Span.start_col)
  in
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Stdlib.compare (pos a) (pos b) in
    if c <> 0 then c else String.compare a.code b.code

let sorted ds = List.stable_sort compare ds

(* --- text ---------------------------------------------------------------- *)

let to_text d =
  match d.span with
  | Some s ->
      Printf.sprintf "%s:%d:%d: %s[%s] %s" d.file s.Span.line s.Span.start_col
        (severity_to_string d.severity)
        d.code d.message
  | None ->
      Printf.sprintf "%s: %s[%s] %s" d.file
        (severity_to_string d.severity)
        d.code d.message

let render_text ds =
  let ds = sorted ds in
  let count sev = List.length (List.filter (fun d -> d.severity = sev) ds) in
  let summary =
    Printf.sprintf "%d error(s), %d warning(s), %d info, %d hint(s)"
      (count Error) (count Warning) (count Info) (count Hint)
  in
  String.concat "" (List.map (fun d -> to_text d ^ "\n") ds) ^ summary ^ "\n"

(* --- JSON ---------------------------------------------------------------- *)

module Json = Obs.Json

let to_json d =
  let pos =
    match d.span with
    | None -> []
    | Some s ->
        Json.
          [
            ("line", Int s.Span.line);
            ("startColumn", Int s.Span.start_col);
            ("endColumn", Int s.Span.end_col);
          ]
  in
  Json.(
    Obj
      ((("code", String d.code)
       :: ("severity", String (severity_to_string d.severity))
       :: ("file", String d.file) :: pos)
      @ [ ("message", String d.message) ]))

let render_json ds =
  let buf = Buffer.create 1024 in
  List.iter
    (fun d ->
      Json.write buf (to_json d);
      Buffer.add_char buf '\n')
    (sorted ds);
  Buffer.contents buf

(* --- SARIF 2.1.0 --------------------------------------------------------- *)

let sarif_level = function
  | Error -> "error"
  | Warning -> "warning"
  | Info | Hint -> "note"

let text s = Json.(Obj [ ("text", String s) ])

let sarif_result d =
  let region =
    match d.span with
    | None -> []
    | Some s ->
        Json.
          [
            ( "region",
              Obj
                [
                  ("startLine", Int s.Span.line);
                  ("startColumn", Int s.Span.start_col);
                  ("endLine", Int s.Span.line);
                  ("endColumn", Int s.Span.end_col);
                ] );
          ]
  in
  let artifact = ("artifactLocation", Json.(Obj [ ("uri", String d.file) ])) in
  Json.(
    Obj
      [
        ("ruleId", String d.code);
        ("level", String (sarif_level d.severity));
        ("message", text d.message);
        ( "locations",
          List [ Obj [ ("physicalLocation", Obj (artifact :: region)) ] ] );
      ])

(* Everything but the results is constant, so it is rendered once: the
   document with no results ends in the results' [[]] and the closers of
   the run, the runs and the document ([]}]}]); a report writes its
   results between the two halves. *)
let sarif_head, sarif_tail =
  let rule (code, severity, descr) =
    Json.(
      Obj
        [
          ("id", String code);
          ("shortDescription", text descr);
          ( "defaultConfiguration",
            Obj [ ("level", String (sarif_level severity)) ] );
        ])
  in
  let driver =
    Json.(
      Obj
        [
          ("name", String "pathctl");
          ("informationUri", String "https://github.com/pathcons/pathcons");
          ("version", String "1.0.0");
          ("rules", List (List.map rule rules));
        ])
  in
  let run =
    Json.(Obj [ ("tool", Obj [ ("driver", driver) ]); ("results", List []) ])
  in
  let empty =
    Json.(
      to_string
        (Obj
           [
             ( "$schema",
               String "https://json.schemastore.org/sarif-2.1.0.json" );
             ("version", String "2.1.0");
             ("runs", List [ run ]);
           ]))
  in
  (String.sub empty 0 (String.length empty - 4), "]}]}\n")

let render_sarif ds =
  let buf = Buffer.create (String.length sarif_head + 1024) in
  Buffer.add_string buf sarif_head;
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Json.write buf (sarif_result d))
    (sorted ds);
  Buffer.add_string buf sarif_tail;
  Buffer.contents buf
