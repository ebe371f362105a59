module Label = Pathlang.Label
module Graph = Sgraph.Graph

type t = { graph : Graph.t; typing : (Graph.node, Mtype.t) Hashtbl.t }

let make graph assignments =
  let typing = Hashtbl.create (Graph.node_count graph) in
  List.iter (fun (n, tau) -> Hashtbl.replace typing n tau) assignments;
  { graph; typing }

let type_of t n = Hashtbl.find_opt t.typing n
let set_type t n tau = Hashtbl.replace t.typing n tau

let validate schema t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let g = t.graph in
  let nodes = Graph.nodes g in
  (* Totality and root sort. *)
  List.iter
    (fun n ->
      if type_of t n = None then err "node %d has no sort" n)
    nodes;
  (match type_of t (Graph.root g) with
  | Some tau when Mtype.equal tau (Mschema.dbtype schema) -> ()
  | Some tau ->
      err "root has sort %s, expected DBtype = %s" (Mtype.to_string tau)
        (Mtype.to_string (Mschema.dbtype schema))
  | None -> ());
  (* Local shape per node. *)
  let check_target n l target expected =
    match type_of t target with
    | Some tau when Mtype.equal tau expected -> ()
    | Some tau ->
        err "edge %d -%s-> %d: target has sort %s, expected %s" n
          (Label.to_string l) target (Mtype.to_string tau)
          (Mtype.to_string expected)
    | None -> ()
  in
  List.iter
    (fun n ->
      match type_of t n with
      | None -> ()
      | Some tau -> (
          match Schema_graph.expand schema tau with
          | Mtype.Atomic _ ->
              if Graph.succ_all g n <> [] then
                err "atomic node %d has outgoing edges" n
          | Mtype.Set member ->
              List.iter
                (fun (l, target) ->
                  if not (Label.equal l Schema_graph.star) then
                    err "set node %d has a non-* edge %s" n (Label.to_string l)
                  else check_target n l target member)
                (Graph.succ_all g n)
          | Mtype.Record fields ->
              let expected_labels =
                List.fold_left
                  (fun s (l, _) -> Label.Set.add l s)
                  Label.Set.empty fields
              in
              let actual = Graph.out_labels g n in
              Label.Set.iter
                (fun l ->
                  if not (Label.Set.mem l expected_labels) then
                    err "record node %d has unexpected edge %s" n
                      (Label.to_string l))
                actual;
              List.iter
                (fun (l, field_tau) ->
                  match Graph.succ g n l with
                  | [] -> err "record node %d is missing field %s" n (Label.to_string l)
                  | [ target ] -> check_target n l target field_tau
                  | _ :: _ :: _ ->
                      err "record node %d has multiple %s edges" n
                        (Label.to_string l))
                fields
          | Mtype.Class _ -> assert false))
    nodes;
  (* Extensionality of pure value sorts. *)
  let value_key n =
    match type_of t n with
    | Some (Mtype.Set _) ->
        Some
          (List.sort_uniq compare
             (List.map (fun (_, m) -> ("*", m)) (Graph.succ_all g n)))
    | Some (Mtype.Record _) ->
        Some
          (List.sort compare
             (List.map (fun (l, m) -> (Label.to_string l, m)) (Graph.succ_all g n)))
    | _ -> None
  in
  let by_sort = Hashtbl.create 16 in
  List.iter
    (fun n ->
      match (type_of t n, value_key n) with
      | Some tau, Some key ->
          let bucket_key = (Mtype.to_string tau, key) in
          (match Hashtbl.find_opt by_sort bucket_key with
          | Some m when m <> n ->
              err
                "extensionality: distinct nodes %d and %d of value sort %s \
                 have identical contents"
                m n (Mtype.to_string tau)
          | _ -> Hashtbl.replace by_sort bucket_key n)
      | _ -> ())
    nodes;
  match List.rev !errors with [] -> Ok () | es -> Error es

