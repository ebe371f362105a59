module Label = Pathlang.Label
module Path = Pathlang.Path
module Constr = Pathlang.Constr

let star = Label.make "*"

let expand schema = function
  | Mtype.Class c -> Mschema.class_body schema c
  | t -> t

let out_edges schema tau =
  match expand schema tau with
  | Mtype.Atomic _ -> []
  | Mtype.Class _ ->
      (* nu(C) is never a class or atomic type, so expand is enough. *)
      assert false
  | Mtype.Set member -> [ (star, member) ]
  | Mtype.Record fields -> fields

let successor schema tau k =
  List.find_map
    (fun (l, t) -> if Label.equal l k then Some t else None)
    (out_edges schema tau)

let type_of_path schema rho =
  let rec go tau = function
    | [] -> Some tau
    | k :: rest -> (
        match successor schema tau k with
        | Some tau' -> go tau' rest
        | None -> None)
  in
  go (Mschema.dbtype schema) (Path.to_labels rho)

let walk schema rho =
  let rec go tau acc = function
    | [] -> List.rev (tau :: acc)
    | k :: rest -> (
        match successor schema tau k with
        | Some tau' -> go tau' (tau :: acc) rest
        | None -> List.rev (tau :: acc))
  in
  go (Mschema.dbtype schema) [] (Path.to_labels rho)

let in_paths schema rho = type_of_path schema rho <> None

let check_constraint_paths schema c =
  let rec first_bad = function
    | [] -> Ok ()
    | rho :: rest -> if in_paths schema rho then first_bad rest else Error rho
  in
  first_bad (Constr.paths_used c)

let sorts schema =
  let seen = ref Mtype.Set_of.empty in
  let rec visit tau =
    if not (Mtype.Set_of.mem tau !seen) then begin
      seen := Mtype.Set_of.add tau !seen;
      List.iter (fun (_, t) -> visit t) (out_edges schema tau)
    end
  in
  visit (Mschema.dbtype schema);
  Mtype.Set_of.elements !seen

let labels ?sorts:ss schema =
  List.fold_left
    (fun acc tau ->
      List.fold_left
        (fun acc (l, _) -> Label.Set.add l acc)
        acc (out_edges schema tau))
    Label.Set.empty
    (match ss with Some ss -> ss | None -> sorts schema)

(* The schema graph as an automaton over sorts: one state per member of
   T(Delta), a transition per edge of sigma(Delta), every state final
   (every realizable prefix is a word of Paths(Delta)).  State identity
   is the position in the returned sort array. *)
let automaton schema =
  let sort_list = sorts schema in
  let nfa = Automata.Nfa.create () in
  Automata.Nfa.ensure_states nfa (List.length sort_list);
  let index, _ =
    List.fold_left
      (fun (m, i) tau -> (Mtype.Map.add tau i m, i + 1))
      (Mtype.Map.empty, 0) sort_list
  in
  List.iter
    (fun tau ->
      let i = Mtype.Map.find tau index in
      Automata.Nfa.set_final nfa i;
      List.iter
        (fun (l, t) -> Automata.Nfa.add_trans nfa i l (Mtype.Map.find t index))
        (out_edges schema tau))
    sort_list;
  (nfa, Array.of_list sort_list, Mtype.Map.find (Mschema.dbtype schema) index)

let paths_up_to schema bound =
  let rec go acc rho tau depth =
    let acc = rho :: acc in
    if depth = 0 then acc
    else
      List.fold_left
        (fun acc (l, t) -> go acc (Path.snoc rho l) t (depth - 1))
        acc (out_edges schema tau)
  in
  List.rev (go [] Path.empty (Mschema.dbtype schema) bound)
