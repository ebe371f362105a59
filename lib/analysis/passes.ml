module Path = Pathlang.Path
module Label = Pathlang.Label
module Constr = Pathlang.Constr
module Store = Pathlang.Store
module Mschema = Schema.Mschema
module Mtype = Schema.Mtype
module Schema_graph = Schema.Schema_graph
module Engine = Core.Engine
module Decide = Core.Decide

type spanned = (Constr.t * Pathlang.Span.t) list

let diag ~file ?span code severity msg =
  Diagnostic.make ~code ~severity ~file ?span msg

(* --- vacuity -------------------------------------------------------------- *)

let vacuity ~sigma_file ~schema sigma =
  List.filter_map
    (fun (c, span) ->
      let prefix = Constr.prefix c in
      if not (Schema_graph.in_paths schema prefix) then
        Some
          (diag ~file:sigma_file ~span "PC200" Diagnostic.Warning
             (Printf.sprintf
                "prefix %s is not in Paths(Delta): no structure in U(Delta) \
                 realizes it, so the constraint is vacuously satisfied"
                (Path.to_string prefix)))
      else
        match Schema_graph.check_constraint_paths schema c with
        | Ok () -> None
        | Error p ->
            Some
              (diag ~file:sigma_file ~span "PC201" Diagnostic.Warning
                 (Printf.sprintf
                    "walks the path %s, which is outside Paths(Delta): the \
                     schema's type graph admits no such walk (the paper's \
                     standing assumption on constraints)"
                    (Path.to_string p))))
    sigma

(* --- redundancy ----------------------------------------------------------- *)

type redundancy_report = {
  removable : spanned;
  cover : Constr.t list;
  exact : bool;
  gave_up : int;
}

let redundancy_report ?schema ?(budget = Engine.Budget.default) sigma =
  let clock = Decide.clock budget in
  let constrs = List.map fst sigma in
  let plan = Decide.plan ?schema clock constrs in
  let exact = Decide.exact plan in
  (* inconsistent Sigma makes every constraint "redundant"; leave that
     to the inconsistency pass *)
  let unsat =
    match schema with
    | Some s when Mschema.kind s = Mschema.M -> (
        match Core.Typed_m.satisfiable s ~sigma:constrs with
        | Ok false -> true
        | _ -> false)
    | _ -> false
  in
  if unsat then { removable = []; cover = constrs; exact; gave_up = 0 }
  else begin
    let arr = Array.of_list constrs in
    let without i keep = List.filter (fun j -> j <> i) keep in
    let all = List.init (Array.length arr) Fun.id in
    (* [loo.(i)]: the verdict of Sigma minus position [i] on it *)
    let loo = Array.make (Array.length arr) None in
    let removable = ref [] in
    let gave_up = ref 0 in
    List.iteri
      (fun i (c, span) ->
        if Decide.expired clock then incr gave_up
        else begin
          loo.(i) <- Decide.decide plan ~keep:(without i all) c;
          if loo.(i) = Some true then removable := (c, span) :: !removable
        end)
      sigma;
    (* greedy minimal cover: drop constraints that stay implied by what
       is kept, considered in the completed subsumption ordering
       (subsumed constraints first, so a subsumer is never dropped in
       favor of what it subsumes); the kept cover stays in input order.
       An exact route is monotone in Sigma, so a constraint the rest of
       Sigma does not imply is not implied by a smaller cover either,
       and is not asked again. *)
    let cover = ref all in
    if not (Decide.expired clock) then
      List.iter
        (fun (i, c) ->
          if (not (Decide.expired clock)) && not (exact && loo.(i) = Some false)
          then
            (* remove the first occurrence of [c] still in the cover *)
            match List.find_opt (fun j -> Constr.equal arr.(j) c) !cover with
            | Some j ->
                let rest = without j !cover in
                if Decide.decide plan ~keep:rest c = Some true then
                  cover := rest
            | None -> ())
        (List.rev (Store.completed_subsumption_ordering constrs));
    {
      removable = List.rev !removable;
      cover = List.map (Array.get arr) !cover;
      exact;
      gave_up = !gave_up;
    }
  end

let redundancy ~sigma_file ?schema ?(budget = Engine.Budget.default) sigma =
  let n = List.length sigma in
  if n <= 1 then []
  else begin
    let report = redundancy_report ?schema ~budget sigma in
    let route, exact =
      Decide.route_of Decide.Entailment
        (Decide.cell ?schema (List.map fst sigma))
    in
    let per_constraint =
      List.map
        (fun (_, span) ->
          diag ~file:sigma_file ~span "PC300" Diagnostic.Warning
            (Printf.sprintf
               "implied by the rest of Sigma (%s)%s: removing it preserves \
                the constraint theory"
               (Decide.how route)
               (if exact then "" else " — best-effort, sound")))
        report.removable
    in
    let cover_diag =
      if report.removable <> [] && List.length report.cover < n then
        [
          diag ~file:sigma_file "PC301" Diagnostic.Info
            (Printf.sprintf "a minimal cover keeps %d of %d constraint(s): %s"
               (List.length report.cover)
               n
               (String.concat "; " (List.map Constr.to_string report.cover)));
        ]
      else []
    in
    let gave_up_diag =
      if report.gave_up > 0 then
        [
          diag ~file:sigma_file "PC302" Diagnostic.Hint
            (Printf.sprintf
               "redundancy analysis gave up on %d constraint(s) (budget \
                exhausted); rerun with a larger --timeout"
               report.gave_up);
        ]
      else []
    in
    per_constraint @ cover_diag @ gave_up_diag
  end

(* --- inconsistency --------------------------------------------------------- *)

let inconsistency ~sigma_file ~schema sigma =
  if Mschema.kind schema <> Mschema.M then []
  else
    (* constraints with paths outside Paths(Delta) are vacuity findings;
       [clash] names none of them.  Sigma is unsatisfiable iff one of its
       members is (DESIGN.md §13). *)
    match
      List.filter
        (fun (c, _) -> Option.is_some (Core.Typed_m.clash schema c))
        sigma
    with
    | [] -> []
    | clashing ->
        diag ~file:sigma_file "PC400" Diagnostic.Error
          "Sigma is unsatisfiable over U(Delta): the congruence closure \
           forces two paths of different sorts together; every implication \
           from it holds vacuously"
        :: List.map
             (fun (_, span) ->
               diag ~file:sigma_file ~span "PC401" Diagnostic.Error
                 "unsatisfiable on its own: it forces two paths of different \
                  sorts to meet")
             clashing

(* --- hygiene --------------------------------------------------------------- *)

let hygiene ~sigma_file ?schema ?schema_file ?schema_spans sigma =
  let out = ref [] in
  let add d = out := d :: !out in
  (* duplicates *)
  let seen = ref [] in
  List.iter
    (fun (c, span) ->
      match List.find_opt (fun (c', _) -> Constr.equal c c') !seen with
      | Some (_, first_span) ->
          add
            (diag ~file:sigma_file ~span "PC500" Diagnostic.Warning
               (Printf.sprintf "duplicate of the constraint at line %d"
                  first_span.Pathlang.Span.line))
      | None -> seen := (c, span) :: !seen)
    sigma;
  (* prefix-subsumed constraints: for forward constraints with equal
     prefixes, [beta -> gamma] entails [beta.delta -> gamma.delta] for
     every delta (path containment is a right congruence: any witness z
     with beta(x,z) yields gamma(x,z), and appending delta to both sides
     preserves the inclusion), so the longer constraint is implied.
     Candidates are bucketed by exact (hash-consed) prefix, so only
     constraints with the same prefix are compared; the witness is the
     first subsumer in input order. *)
  let subsumer = Store.subsuming_member (List.map fst sigma) in
  let spans = Array.of_list (List.map snd sigma) in
  List.iter
    (fun (c, span) ->
      match subsumer c with
      | None -> ()
      | Some (i, c', delta) ->
          add
            (diag ~file:sigma_file ~span "PC505" Diagnostic.Warning
               (Printf.sprintf
                  "subsumed by the constraint at line %d (%s): appending \
                   %s to both of its paths yields this constraint, so it \
                   is entailed (right congruence)"
                  spans.(i).Pathlang.Span.line (Constr.to_string c')
                  (Path.to_string delta))))
    sigma;
  (* eps-path edge cases and tautologies *)
  List.iter
    (fun (c, span) ->
      if Path.is_empty (Constr.rhs c) && not (Path.is_empty (Constr.lhs c))
      then
        add
          (diag ~file:sigma_file ~span "PC503" Diagnostic.Hint
             "the conclusion is the empty path: an equality-generating \
              constraint; the PTIME word procedure is incomplete for these \
              (the budgeted chase handles them soundly)");
      if
        Constr.kind c = Constr.Forward
        && Path.equal (Constr.lhs c) (Constr.rhs c)
      then
        add
          (diag ~file:sigma_file ~span "PC504" Diagnostic.Info
             "trivially true: the premise and conclusion paths coincide \
              (reflexivity)"))
    sigma;
  (* schema-aware checks *)
  (match schema with
  | None -> ()
  | Some schema ->
      let sorts = Schema_graph.sorts schema in
      let schema_labels = Schema_graph.labels ~sorts schema in
      let reported = ref Label.Set.empty in
      List.iter
        (fun (c, span) ->
          Label.Set.iter
            (fun l ->
              if
                (not (Label.Set.mem l schema_labels))
                && not (Label.Set.mem l !reported)
              then begin
                reported := Label.Set.add l !reported;
                add
                  (diag ~file:sigma_file ~span "PC501" Diagnostic.Warning
                     (Printf.sprintf
                        "label %s does not occur in the schema's type graph"
                        (Label.to_string l)))
              end)
            (Constr.labels_used c))
        sigma;
      (* unused classes *)
      let reachable =
        List.filter_map
          (function Mtype.Class c -> Some (Mtype.cname_name c) | _ -> None)
          sorts
      in
      let sfile = Option.value schema_file ~default:"<schema>" in
      List.iter
        (fun (c, _) ->
          let name = Mtype.cname_name c in
          if not (List.mem name reachable) then
            let span =
              Option.bind schema_spans (fun s ->
                  List.assoc_opt name s.Schema.Schema_parser.class_spans)
            in
            add
              (diag ~file:sfile ?span "PC502" Diagnostic.Info
                 (Printf.sprintf
                    "class %s is declared but unreachable from the db type; \
                     no constraint over Paths(Delta) can mention it"
                    name)))
        (Mschema.classes schema));
  List.rev !out
