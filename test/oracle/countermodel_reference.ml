module Path = Pathlang.Path
module Label = Pathlang.Label
module Mtype = Schema.Mtype
module SG = Schema.Schema_graph
module Typecheck = Schema.Typecheck
module Graph = Sgraph.Graph

type outcome = Implied | Not_implied of Typecheck.t | Vacuous

exception Clash

(* The classes of the prefix closure of [pairs]' endpoints (and eps),
   as an array of class ids over the shortlex-ordered paths. *)
let classes schema pairs =
  let paths =
    List.fold_left
      (fun acc (u, v) ->
        List.fold_left
          (fun acc q -> Path.Set.add q acc)
          acc
          (Path.prefixes u @ Path.prefixes v))
      (Path.Set.singleton Path.empty) pairs
    |> Path.Set.elements |> Array.of_list
  in
  let n = Array.length paths in
  let index p =
    let rec go i = if Path.equal paths.(i) p then i else go (i + 1) in
    go 0
  in
  let sorts = Array.map (fun p -> Option.get (SG.type_of_path schema p)) paths in
  let parent =
    Array.map
      (fun p ->
        match Path.split_last p with
        | None -> None
        | Some (q, l) -> Some (index q, l))
      paths
  in
  let cls = Array.init n Fun.id in
  let merge a b =
    let ca = cls.(a) and cb = cls.(b) in
    if ca <> cb then begin
      if not (Mtype.equal sorts.(a) sorts.(b)) then raise Clash;
      Array.iteri (fun i c -> if c = cb then cls.(i) <- ca) cls;
      true
    end
    else false
  in
  List.iter (fun (u, v) -> ignore (merge (index u) (index v))) pairs;
  let rec fixpoint () =
    let changed = ref false in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        match (parent.(i), parent.(j)) with
        | Some (pi, l), Some (pj, l')
          when Label.equal l l' && cls.(pi) = cls.(pj) ->
            if merge i j then changed := true
        | _ -> ()
      done
    done;
    if !changed then fixpoint ()
  in
  fixpoint ();
  (paths, sorts, parent, cls, index)

let model schema (paths, sorts, parent, cls, _) =
  let g = Graph.create () in
  let typed = Typecheck.make g [] in
  (* class id -> node, and the classes with their sorts, eps's first *)
  let node = Hashtbl.create 16 and classes = ref [] in
  Array.iteri
    (fun i _ ->
      if not (Hashtbl.mem node cls.(i)) then begin
        let v = if i = 0 then Graph.root g else Graph.add_node g in
        Hashtbl.replace node cls.(i) v;
        Typecheck.set_type typed v sorts.(i);
        classes := (cls.(i), v, sorts.(i)) :: !classes
      end)
    paths;
  let generic = ref Mtype.Map.empty in
  let rec generic_node tau =
    match Mtype.Map.find_opt tau !generic with
    | Some v -> v
    | None ->
        let v = Graph.add_node g in
        generic := Mtype.Map.add tau v !generic;
        Typecheck.set_type typed v tau;
        List.iter
          (fun (l, ft) -> Graph.add_edge g v l (generic_node ft))
          (SG.out_edges schema tau);
        v
  in
  (* the class of some [p.l] with [p] in class [c] *)
  let succ c l =
    let found = ref None in
    Array.iteri
      (fun i p ->
        match p with
        | Some (pi, l') when cls.(pi) = c && Label.equal l l' ->
            found := Some cls.(i)
        | _ -> ())
      parent;
    !found
  in
  List.iter
    (fun (c, v, tau) ->
      List.iter
        (fun (l, ft) ->
          Graph.add_edge g v l
            (match succ c l with
            | Some c' -> Hashtbl.find node c'
            | None -> generic_node ft))
        (SG.out_edges schema tau))
    (List.rev !classes);
  typed

let decide schema ~sigma ~phi =
  let s, t = Core.Typed_m.to_word_equality phi in
  match
    classes schema
      ((s, s) :: (t, t) :: List.map Core.Typed_m.to_word_equality sigma)
  with
  | exception Clash -> Vacuous
  | (_, _, _, cls, index) as c ->
      if cls.(index s) = cls.(index t) then Implied
      else Not_implied (model schema c)

let canonical_model schema ~sigma =
  match classes schema (List.map Core.Typed_m.to_word_equality sigma) with
  | exception Clash -> None
  | c -> Some (model schema c)

let reachable_isomorphic (a : Typecheck.t) (b : Typecheck.t) =
  let fwd = Hashtbl.create 16 and bwd = Hashtbl.create 16 in
  let rec walk = function
    | [] -> true
    | (x, y) :: rest -> (
        match (Hashtbl.find_opt fwd x, Hashtbl.find_opt bwd y) with
        | Some y', Some x' -> y' = y && x' = x && walk rest
        | Some _, None | None, Some _ -> false
        | None, None ->
            Hashtbl.replace fwd x y;
            Hashtbl.replace bwd y x;
            let ex = Graph.succ_all a.graph x and ey = Graph.succ_all b.graph y in
            let labels e = List.sort_uniq Label.compare (List.map fst e) in
            Option.equal Mtype.equal (Typecheck.type_of a x)
              (Typecheck.type_of b y)
            && List.length ex = List.length ey
            && List.equal Label.equal (labels ex) (labels ey)
            && List.length ex = List.length (labels ex)
            && walk
                 (List.map
                    (fun (l, x') ->
                      (x', snd (List.find (fun (l', _) -> Label.equal l l') ey)))
                    ex
                 @ rest))
  in
  walk [ (Graph.root a.graph, Graph.root b.graph) ]
