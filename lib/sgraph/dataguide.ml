module Label = Pathlang.Label
module NS = Graph.Node_set

type t = {
  guide : Graph.t;
  annotations : (Graph.node, NS.t) Hashtbl.t;
}

let build ?(max_states = 10_000) g =
  let guide = Graph.create () in
  let annotations = Hashtbl.create 16 in
  let index = Hashtbl.create 16 in
  let key set = NS.elements set in
  let root_set = NS.singleton (Graph.root g) in
  Hashtbl.replace index (key root_set) (Graph.root guide);
  Hashtbl.replace annotations (Graph.root guide) root_set;
  let q = Queue.create () in
  Queue.add root_set q;
  let ok = ref true in
  while !ok && not (Queue.is_empty q) do
    let set = Queue.pop q in
    let gnode = Hashtbl.find index (key set) in
    (* group successors of the member set by label *)
    let by_label = Hashtbl.create 8 in
    NS.iter
      (fun v ->
        List.iter
          (fun (k, w) ->
            let s = Label.to_string k in
            Hashtbl.replace by_label s
              ( k,
                NS.add w
                  (match Hashtbl.find_opt by_label s with
                  | Some (_, acc) -> acc
                  | None -> NS.empty) ))
          (Graph.succ_all g v))
      set;
    Hashtbl.iter
      (fun _ (k, target) ->
        let tnode =
          match Hashtbl.find_opt index (key target) with
          | Some n -> n
          | None ->
              let n = Graph.add_node guide in
              Hashtbl.replace index (key target) n;
              Hashtbl.replace annotations n target;
              Queue.add target q;
              if Graph.node_count guide > max_states then ok := false;
              n
        in
        Graph.add_edge guide gnode k tnode)
      by_label
  done;
  if !ok then Ok { guide; annotations }
  else Error "Dataguide.build: state budget exceeded"

let annotation t n = Option.value ~default:NS.empty (Hashtbl.find_opt t.annotations n)

(* the guide is deterministic: at most one guide node answers [rho] *)
let eval t rho =
  NS.fold (fun n acc -> NS.union (annotation t n) acc) (Eval.eval t.guide rho) NS.empty

let size t = Graph.node_count t.guide
let graph t = t.guide
