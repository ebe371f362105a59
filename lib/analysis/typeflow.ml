(* Type flow: the sort of every prefix of every constraint walk.

   The schema graph sigma(Delta) is deterministic: a record sort has one
   edge per field label and a set sort only [*].  So a walk from the
   root visits exactly one sequence of sorts, one Schema_graph.successor
   step per label, and a prefix either has one sort or has left
   Paths(Delta) (Schema_graph.walk).  The flow lattice of a single walk
   is therefore a chain of singletons above the empty set, and typing
   each prefix of each constraint is one walk per path:

   - a prefix with no sort is a dead path (PC600): the walk leaves
     Paths(Delta) at the first such step, and the missing schema edge
     is named;
   - over an M+ schema, the first live step whose sort is a set type is
     the token that places the instance in the undecidable M+ cell of
     Table 1 (PC601), sharpening the file-level PC102;
   - under --explain, the full inferred sort chain is printed per walk
     (PC602). *)

module Path = Pathlang.Path
module Label = Pathlang.Label
module Constr = Pathlang.Constr
module Span = Pathlang.Span
module Parser = Pathlang.Parser
module Mschema = Schema.Mschema
module Mtype = Schema.Mtype
module Schema_graph = Schema.Schema_graph

(* the reachable pairs of (walk prefix, sort): one per live prefix *)
let states_explored =
  Obs.Counter.make ~unit_:"states" "typeflow.product.states"

(* --- per-path flows -------------------------------------------------------- *)

type step = { prefix : Path.t; sort : Mtype.t option }

type flow = { path : Path.t; steps : step list; dies_at : int option }

let of_path schema rho =
  let live = Schema_graph.walk schema rho in
  Obs.Counter.add states_explored (List.length live);
  let rec zip prefixes sorts =
    match (prefixes, sorts) with
    | [], _ -> []
    | prefix :: ps, tau :: taus -> { prefix; sort = Some tau } :: zip ps taus
    | prefix :: ps, [] -> { prefix; sort = None } :: zip ps []
  in
  let n = List.length live in
  {
    path = rho;
    steps = zip (Path.prefixes rho) live;
    dies_at = (if n = Path.length rho + 1 then None else Some n);
  }

let missing_edge flow =
  let rec find = function
    | { sort = Some tau; _ } :: { sort = None; prefix } :: _ ->
        Some (tau, prefix)
    | _ :: rest -> find rest
    | [] -> None
  in
  find flow.steps

(* --- rendering sorts ------------------------------------------------------- *)

(* Short, reader-facing sort names: classes and atoms by name, sets in
   braces, the db type as "db", other records by their field labels. *)
let rec sort_label schema tau =
  if Mtype.equal tau (Mschema.dbtype schema) then "db"
  else
    match tau with
    | Mtype.Class c -> Mtype.cname_name c
    | Mtype.Atomic a -> Mtype.atomic_name a
    | Mtype.Set t -> "{" ^ sort_label schema t ^ "}"
    | Mtype.Record fields ->
        "["
        ^ String.concat "; "
            (List.map (fun (l, _) -> Label.to_string l) fields)
        ^ "]"

let explain_flow schema flow =
  let labels = Array.of_list (Path.to_labels flow.path) in
  let buf = Buffer.create 64 in
  List.iteri
    (fun i st ->
      if i > 0 then
        Buffer.add_string buf
          (Printf.sprintf " -[%s]-> " (Label.to_string labels.(i - 1)));
      Buffer.add_string buf
        (match st.sort with None -> "(dead)" | Some tau -> sort_label schema tau))
    flow.steps;
  Buffer.contents buf

(* --- the PC6xx pass -------------------------------------------------------- *)

(* The node walks a constraint performs, each with one span per label
   (when the syntax provided them).  A forward constraint walks
   prefix.lhs and prefix.rhs from the root; a backward constraint walks
   prefix.lhs and then back along rhs, i.e. prefix.lhs.rhs. *)
let walks c (tokens : Parser.token_spans) =
  let prefix = Constr.prefix c
  and lhs = Constr.lhs c
  and rhs = Constr.rhs c in
  let p = tokens.Parser.prefix_spans
  and l = tokens.Parser.lhs_spans
  and r = tokens.Parser.rhs_spans in
  match Constr.kind c with
  | Constr.Forward ->
      [ (Path.concat prefix lhs, p @ l); (Path.concat prefix rhs, p @ r) ]
  | Constr.Backward ->
      [
        (Path.concat prefix lhs, p @ l);
        (Path.concat (Path.concat prefix lhs) rhs, p @ l @ r);
      ]

let span_of_token spans fallback i =
  match List.nth_opt spans i with Some s -> s | None -> fallback

(* does the sort admit set-typed nodes (directly or as a class body)? *)
let is_set_sort schema tau =
  match Schema_graph.expand schema tau with
  | Mtype.Set _ -> true
  | _ -> false

let pass ~sigma_file ~schema ?(explain = false) located =
  let out = ref [] in
  let seen = Hashtbl.create 16 in
  let add_once d =
    let key =
      ( d.Diagnostic.code,
        d.Diagnostic.span,
        d.Diagnostic.message )
    in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := d :: !out
    end
  in
  let explain_mode = explain in
  List.iter
    (fun { Parser.constr = c; span; tokens } ->
      let ws = List.map (fun (rho, spans) -> (rho, spans, of_path schema rho))
          (walks c tokens)
      in
      (* PC600: the walk leaves Paths(Delta); name the missing edge *)
      List.iter
        (fun (rho, spans, flow) ->
          match missing_edge flow with
          | None -> ()
          | Some (live_sort, dead_prefix) ->
              let die = Path.length dead_prefix in
              add_once
                (Diagnostic.make ~code:"PC600" ~severity:Diagnostic.Warning
                   ~file:sigma_file
                   ~span:(span_of_token spans span (die - 1))
                   (Printf.sprintf
                      "dead path: sort %s has no edge labeled %s, so the \
                       prefix %s types to the empty set and the walk %s \
                       leaves Paths(Delta) at this token"
                      (sort_label schema live_sort)
                      (Label.to_string (Option.get (Path.last dead_prefix)))
                      (Path.to_string dead_prefix)
                      (Path.to_string rho))))
        ws;
      (* PC601: over M+, the first reachable set-valued step is the
         undecidability trigger (Theorem 5.2) *)
      if Mschema.kind schema = Mschema.M_plus then begin
        let trigger =
          List.find_map
            (fun (_, spans, flow) ->
              let rec find i = function
                | { sort = Some tau; _ } as st :: rest ->
                    if i > 0 && is_set_sort schema tau then
                      Some (i, st.prefix, tau, spans)
                    else find (i + 1) rest
                | { sort = None; _ } :: _ | [] -> None (* dead from here on *)
              in
              find 0 flow.steps)
            ws
        in
        match trigger with
        | None -> ()
        | Some (i, prefix, tau, spans) ->
            let k = Option.get (Path.last prefix) in
            add_once
              (Diagnostic.make ~code:"PC601" ~severity:Diagnostic.Warning
                 ~file:sigma_file
                 ~span:(span_of_token spans span (i - 1))
                 (Printf.sprintf
                    "M+ trigger: %s reaches the set type %s on the reachable \
                     prefix %s; this set-valued step is what places the \
                     instance in the undecidable M+ cell of Table 1 (Theorem \
                     5.2)"
                    (Label.to_string k)
                    (sort_label schema tau)
                    (Path.to_string prefix)))
      end;
      (* PC602: inferred sort annotations, on request *)
      if explain_mode then
        List.iter
          (fun (rho, _, flow) ->
            add_once
              (Diagnostic.make ~code:"PC602" ~severity:Diagnostic.Info
                 ~file:sigma_file ~span
                 (Printf.sprintf "type flow of %s: %s" (Path.to_string rho)
                    (explain_flow schema flow))))
          ws)
    located;
  List.rev !out
