module Path = Pathlang.Path
module Label = Pathlang.Label
module Constr = Pathlang.Constr
module Fragment = Pathlang.Fragment
module Mschema = Schema.Mschema
module Mtype = Schema.Mtype
module Decide = Core.Decide

(* --- rendering ----------------------------------------------------------- *)

let fragment_to_string = function
  | Decide.P_w | Decide.P_w_eps -> "P_w"
  | Decide.Prefix_bounded (alpha, k) ->
      Printf.sprintf "prefix-bounded by (%s, %s)" (Path.to_string alpha)
        (Label.to_string k)
  | Decide.P_w_rho rho ->
      if Path.length rho = 1 then
        Printf.sprintf "P_w(%s)" (Path.to_string rho)
      else Printf.sprintf "P_w(alpha) with alpha = %s" (Path.to_string rho)
  | Decide.P_c -> "full P_c"

let model_to_string = function
  | Decide.Untyped -> "untyped (semistructured)"
  | Decide.M | Decide.M_off_paths -> "schema of kind M"
  | Decide.M_plus -> "schema of kind M+"

let procedure_to_string = function
  | Decide.Ptime_word -> "PTIME word procedure (pathctl implies)"
  | Decide.Ptime_local ->
      "PTIME local-extent procedure (pathctl implies-local)"
  | Decide.Cubic_m -> "cubic certified procedure (pathctl implies-typed)"
  | Decide.Semidecision -> "budgeted chase semi-decision (pathctl chase)"
  | Decide.Bounded_refutation ->
      "bounded countermodel search (pathctl compare)"

(* a decidable row whose procedure is not complete for it *)
let sound_only (cell : Decide.cell) =
  if (not cell.decidable) || cell.exact then ""
  else if cell.model = Decide.M_off_paths then
    ", sound only: a path leaves Paths(Delta), out of the cubic \
     procedure's reach"
  else ", sound only: the word rules are incomplete with an eps conclusion"

(* --- hints --------------------------------------------------------------- *)

(* why a class body violates the M restrictions (no sets anywhere, record
   fields atomic or class only), if it does *)
let rec m_violation = function
  | Mtype.Set _ -> Some "contains a set type"
  | Mtype.Record fields ->
      List.find_map
        (fun (_, t) ->
          match t with
          | Mtype.Atomic _ | Mtype.Class _ -> None
          | Mtype.Set _ -> Some "contains a set type"
          | Mtype.Record _ -> (
              match m_violation t with
              | Some _ as v -> v
              | None -> Some "contains a nested record"))
        fields
  | Mtype.Atomic _ | Mtype.Class _ -> None

let class_span spans name =
  Option.bind spans (fun s ->
      List.assoc_opt name s.Schema.Schema_parser.class_spans)

let mplus_hints ~schema_file ~schema_spans schema =
  let file = Option.value schema_file ~default:"<schema>" in
  let class_hints =
    List.filter_map
      (fun (c, body) ->
        let name = Mtype.cname_name c in
        Option.map
          (fun why ->
            Diagnostic.make ~code:"PC103" ~severity:Diagnostic.Hint ~file
              ?span:(class_span schema_spans name)
              (Printf.sprintf
                 "drop the set type at class %s (its body %s) to fall into M \
                  and make implication decidable in cubic time (Theorem 4.2)"
                 name why))
          (m_violation body))
      (Mschema.classes schema)
  in
  let db_hint =
    match m_violation (Mschema.dbtype schema) with
    | Some why ->
        [
          Diagnostic.make ~code:"PC103" ~severity:Diagnostic.Hint ~file
            ?span:(Option.bind schema_spans (fun s -> s.Schema.Schema_parser.db_span))
            (Printf.sprintf
               "the db type %s; remove the set type to fall into M (Theorem \
                4.2)"
               why);
        ]
    | None -> []
  in
  class_hints @ db_hint

let untyped_hints ~sigma_file ?phi (cell : Decide.cell) sigma_spanned =
  let sigma = List.map fst sigma_spanned in
  let all = match phi with Some phi -> phi :: sigma | None -> sigma in
  let hints = ref [] in
  let add ?span msg =
    hints :=
      Diagnostic.make ~code:"PC103" ~severity:Diagnostic.Hint ~file:sigma_file
        ?span msg
      :: !hints
  in
  (* how far is the instance from plain P_w? *)
  (match Fragment.errors_all Fragment.in_pw all with
  | Ok () -> ()
  | Error offenders ->
      let n = List.length offenders and total = List.length all in
      if n * 2 <= total then begin
        let span =
          List.find_map
            (fun (c, sp) ->
              if List.exists (Constr.equal c) offenders then Some sp else None)
            sigma_spanned
        in
        add ?span
          (Printf.sprintf
             "%d of %d constraint(s) leave P_w (first flagged here): \
              dropping or rewriting them enables the PTIME word procedure"
             n total)
      end);
  (* would a schema help? *)
  add
    "supplying a schema of kind M (--schema) makes implication of full P_c \
     decidable in cubic time (Theorem 4.2)";
  (* is the instance close to prefix-bounded? *)
  (match cell.fragment with
  | Decide.P_w_rho rho ->
      add
        (Printf.sprintf
           "all prefixes equal %s: restructuring the set to satisfy the \
            Definition 2.3 side conditions (nonempty, bound-free lhs) would \
            make it prefix-bounded and decidable in PTIME (Theorem 5.1)"
           (Path.to_string rho))
  | _ -> ());
  List.rev !hints

let run ~sigma_file ?schema ?schema_file ?schema_spans ?phi sigma_spanned =
  let cell = Decide.cell ?schema ?phi (List.map fst sigma_spanned) in
  let classified =
    Diagnostic.make ~code:"PC100" ~severity:Diagnostic.Info ~file:sigma_file
      (Printf.sprintf
         "classified: fragment %s under %s: %s (%s); applicable procedure: \
          %s%s"
         (fragment_to_string cell.fragment)
         (model_to_string cell.model)
         (if cell.decidable then "decidable" else "undecidable")
         cell.provenance
         (procedure_to_string cell.procedure)
         (sound_only cell))
  in
  if cell.decidable then [ classified ]
  else
    match cell.model with
    | Decide.M_plus ->
        let schema = Option.get schema in
        (classified
        :: Diagnostic.make ~code:"PC102" ~severity:Diagnostic.Warning
             ~file:sigma_file
             (Printf.sprintf
                "implication under an M+ schema is undecidable (%s); only \
                 bounded refutation and the budgeted chase apply"
                cell.provenance)
        :: mplus_hints ~schema_file ~schema_spans schema)
    | _ ->
        (classified
        :: Diagnostic.make ~code:"PC101" ~severity:Diagnostic.Warning
             ~file:sigma_file
             (Printf.sprintf
                "implication for %s on untyped data is undecidable (%s); \
                 pathctl chase gives sound verdicts only and may exhaust its \
                 budget"
                (fragment_to_string cell.fragment)
                cell.provenance)
        :: untyped_hints ~sigma_file ?phi cell sigma_spanned)
