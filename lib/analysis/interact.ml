(* The constraint-interaction analyzer: the PC7xx family.

   Three whole-set analyses over one parsed constraint set, driven
   through {!Core.Typed_m} and the decision router {!Core.Decide}:

   - PC700: a minimal unsatisfiable core of Sigma over the schema.
     Under a kind-M schema every core is a singleton: congruence merges
     propagate only to same-sorted children, so Sigma is unsatisfiable
     iff one member's two sides differ in sort ({!Core.Typed_m.clash},
     DESIGN.md §13).  The core is the last clashing member in input
     order, the one deletion-based minimization keeps, and [--explain]
     names its clashing pair.

   - PC701: the implication DAG.  Each constraint entailed by the rest
     of Sigma is reported together with a minimal witnessing antecedent
     subset (dropping any witness breaks the derivation), which is the
     incoming edge set of the constraint in the DAG of entailments.

   - PC702: path-vs-type interaction provenance.  An entailment that
     holds over U(Delta) but provably fails on untyped semistructured
     data exists only through the type constraints; the diagnostic
     names the class declarations (along the walked paths of the
     minimal witness subset) whose typing flips the verdict.  The
     converse flip cannot occur: every structure of U(Delta) is a
     semistructured structure, so untyped implication is contained in
     typed implication — and pure path-constraint sets are always
     satisfiable untyped (the one-node all-loops model), so
     satisfiability only flips from sat (untyped) to unsat (typed),
     which is PC700's territory.

   - PC703: the pass hit the wall-clock budget before finishing
     (mirrors the redundancy pass's PC302). *)

module Path = Pathlang.Path
module Constr = Pathlang.Constr
module Mschema = Schema.Mschema
module Mtype = Schema.Mtype
module Schema_graph = Schema.Schema_graph
module Engine = Core.Engine
module Decide = Core.Decide

let diag ~file ?span code severity msg =
  Diagnostic.make ~code ~severity ~file ?span msg

(* --- minimal unsatisfiable core -------------------------------------------- *)

(* The last clashing member, with its position and pair.  Deletion
   minimization in input order drops every member before it (a later
   clash keeps the rest unsatisfiable) and every member after it (none
   clashes), so this is the one member it keeps. *)
let last_clash schema constrs =
  List.fold_left
    (fun (i, last) c ->
      ( i + 1,
        match Core.Typed_m.clash schema c with
        | Some pq -> Some (i, pq)
        | None -> last ))
    (0, None) constrs
  |> snd

let unsat_core ~schema constrs =
  match Core.Typed_m.satisfiable schema ~sigma:constrs with
  | Ok false -> Option.map (fun (i, _) -> [ i ]) (last_clash schema constrs)
  | Ok true | Error _ -> None

(* The class declarations the typed derivation walks: the sorts at the
   proper prefixes of every root-anchored path of the witness set and
   the goal — exactly the typing cells the congruence closure reads.
   The constraint side is already deletion-minimized; the declaration
   set is the trace of that minimal derivation. *)
let declarations_walked schema constrs =
  let classes = ref [] in
  List.iter
    (fun c ->
      List.iter
        (fun p ->
          let proper = Path.length p in
          List.iteri
            (fun i tau ->
              match tau with
              | Mtype.Class cn when i < proper ->
                  let name = Mtype.cname_name cn in
                  if not (List.mem name !classes) then
                    classes := name :: !classes
              | _ -> ())
            (Schema_graph.walk schema p))
        (Constr.paths_used c))
    constrs;
  List.sort String.compare !classes

(* --- the pass --------------------------------------------------------------- *)

let line (span : Pathlang.Span.t) = span.Pathlang.Span.line

let lines_of spanned idxs =
  let arr = Array.of_list spanned in
  List.sort Int.compare (List.map (fun i -> line (snd arr.(i))) idxs)

let join_lines ls = String.concat ", " (List.map string_of_int ls)

let pass ~sigma_file ?schema ?budget ?(explain = false) spanned =
  let budget = Option.value budget ~default:Engine.Budget.default in
  let clock = Decide.clock budget in
  let constrs = List.map fst spanned in
  if constrs = [] then []
  else begin
    let arr = Array.of_list spanned in
    let out = ref [] in
    let add d = out := d :: !out in
    let gave_up = ref 0 in
    (* (a) PC700: the minimal unsatisfiable core (constraints walking
       outside Paths(Delta) are vacuity findings: [clash] names none) *)
    let unsat =
      match schema with
      | Some s when Mschema.kind s = Mschema.M -> (
          match last_clash s constrs with
          | None -> false
          | Some (k, (p, q)) ->
              let clash =
                if not explain then ""
                else
                  Printf.sprintf
                    "; the closure forces %s and %s together across sorts"
                    (Path.to_string p) (Path.to_string q)
              in
              add
                (diag ~file:sigma_file ~span:(snd arr.(k)) "PC700"
                   Diagnostic.Error
                   (Printf.sprintf
                      "member of a minimal unsatisfiable core (1 \
                       constraint(s)): the core is unsatisfiable over \
                       U(Delta) and dropping any member makes it \
                       satisfiable%s"
                      clash));
              true)
      | _ -> false
    in
    (* (b) PC701 + (c) PC702: only meaningful on a satisfiable set (an
       unsatisfiable Sigma entails everything) *)
    if not unsat then begin
      let plan = Decide.plan ?schema clock constrs in
      let implied phi keep =
        Decide.decide plan ~keep:(List.map fst keep) phi = Some true
      in
      (* the provenance question, over the same Sigma: only a definitive
         untyped "no" counts, so it is a refutation under untyped
         semantics *)
      let untyped = Decide.plan ~question:Decide.Refutation clock constrs in
      let indexed = List.mapi (fun i (c, _) -> (i, c)) spanned in
      List.iter
        (fun (i, c) ->
          if Decide.expired clock then incr gave_up
          else begin
            let rest_idx = List.filter (fun (j, _) -> j <> i) indexed in
            if rest_idx <> [] && implied c rest_idx then begin
              (* minimize the witnessing antecedent subset by deletion *)
              let witness = ref rest_idx in
              List.iter
                (fun (j, _) ->
                  if Decide.expired clock then incr gave_up
                  else begin
                    let w' =
                      List.filter (fun (k, _) -> k <> j) !witness
                    in
                    if
                      List.length w' < List.length !witness
                      && implied c w'
                    then witness := w'
                  end)
                rest_idx;
              let wlines = lines_of spanned (List.map fst !witness) in
              let detail =
                if not explain then ""
                else
                  Printf.sprintf "; antecedents: %s"
                    (String.concat "; "
                       (List.map
                          (fun (_, w) -> Constr.to_string w)
                          !witness))
              in
              add
                (diag ~file:sigma_file ~span:(snd arr.(i)) "PC701"
                   Diagnostic.Warning
                   (Printf.sprintf
                      "entailed by the constraint(s) at line(s) %s (%s): a \
                       minimal antecedent subset — removing any one of them \
                       breaks the derivation%s"
                      (join_lines wlines)
                      (Decide.how (Decide.route plan))
                      detail));
              (* provenance: does the entailment survive on paths alone? *)
              if Decide.route plan = Decide.Typed_m then begin
                match
                  Decide.decide untyped ~keep:(List.map fst rest_idx) c
                with
                | Some false ->
                    let schema = Option.get schema in
                    let decls =
                      declarations_walked schema (c :: List.map snd !witness)
                    in
                    let chains =
                      if not explain then ""
                      else
                        Printf.sprintf "; typed reading (Lemmas 4.7/4.8): %s"
                          (String.concat ", "
                             (List.map
                                (fun (_, w) ->
                                  let p, q = Core.Typed_m.to_word_equality w in
                                  Printf.sprintf "%s ~ %s" (Path.to_string p)
                                    (Path.to_string q))
                                ((i, c) :: !witness)))
                    in
                    add
                      (diag ~file:sigma_file ~span:(snd arr.(i)) "PC702"
                         Diagnostic.Info
                         (Printf.sprintf
                            "this entailment holds over U(Delta) but provably \
                             not on untyped data: it exists only through the \
                             type constraints%s%s"
                            (match decls with
                            | [] -> ""
                            | ds ->
                                Printf.sprintf
                                  " (flipped by the declaration(s) of %s \
                                   along the walked paths)"
                                  (String.concat ", " ds))
                            chains))
                | Some true -> ()
                | None -> incr gave_up
              end
            end
          end)
        indexed
    end;
    let out = List.rev !out in
    if !gave_up > 0 then
      out
      @ [
          diag ~file:sigma_file "PC703" Diagnostic.Hint
            (Printf.sprintf
               "interaction analysis gave up on %d check(s) (budget \
                exhausted); rerun with a larger --timeout"
               !gave_up);
        ]
    else out
  end
