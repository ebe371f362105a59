module Label = Pathlang.Label
module Path = Pathlang.Path

type node = int

module Node_set = Set.Make (Int)

type t = {
  mutable size : int;
  adj : (node * Label.t, node list) Hashtbl.t;
  radj : (node * Label.t, node list) Hashtbl.t;
  mem : (node * Label.t * node, unit) Hashtbl.t;
  outl : (node, Label.Set.t) Hashtbl.t;
  inl : (node, Label.Set.t) Hashtbl.t;
  mutable all_labels : Label.Set.t;
  mutable edge_count : int;
  frozen : csr option Atomic.t;
      (* the snapshot of the current edges, if one was taken since the
         last mutation; atomic so a snapshot built by one domain is
         published whole to the others *)
}

and csr = {
  nodes : int;
  first_run : int array;
  run_label : int array;
  run_start : int array;
  targets : node array;
}

let create () =
  {
    size = 1;
    adj = Hashtbl.create 64;
    radj = Hashtbl.create 64;
    mem = Hashtbl.create 64;
    outl = Hashtbl.create 64;
    inl = Hashtbl.create 64;
    all_labels = Label.Set.empty;
    edge_count = 0;
    frozen = Atomic.make None;
  }

let root _ = 0

(* Every mutation drops the snapshot.  The test keeps the write (a
   fence) off the chase's add_edge loop, which never freezes. *)
let thaw g = if Option.is_some (Atomic.get g.frozen) then Atomic.set g.frozen None

let add_node g =
  thaw g;
  let n = g.size in
  g.size <- n + 1;
  n

let mem_node g n = n >= 0 && n < g.size

let succ g x k = Option.value ~default:[] (Hashtbl.find_opt g.adj (x, k))
let pred g y k = Option.value ~default:[] (Hashtbl.find_opt g.radj (y, k))

let has_edge g x k y = Hashtbl.mem g.mem (x, k, y)

let add_label_index tbl n k =
  let set = Option.value ~default:Label.Set.empty (Hashtbl.find_opt tbl n) in
  Hashtbl.replace tbl n (Label.Set.add k set)

let remove_label_index tbl n k =
  match Hashtbl.find_opt tbl n with
  | None -> ()
  | Some set ->
      let set = Label.Set.remove k set in
      if Label.Set.is_empty set then Hashtbl.remove tbl n
      else Hashtbl.replace tbl n set

let add_edge g x k y =
  if not (mem_node g x && mem_node g y) then
    invalid_arg "Graph.add_edge: unknown node";
  if not (has_edge g x k y) then begin
    thaw g;
    Hashtbl.replace g.mem (x, k, y) ();
    Hashtbl.replace g.adj (x, k) (y :: succ g x k);
    Hashtbl.replace g.radj (y, k) (x :: pred g y k);
    add_label_index g.outl x k;
    add_label_index g.inl y k;
    g.all_labels <- Label.Set.add k g.all_labels;
    g.edge_count <- g.edge_count + 1
  end

let remove_from_bucket tbl key n =
  match Hashtbl.find_opt tbl key with
  | None -> []
  | Some l -> (
      match List.filter (fun m -> m <> n) l with
      | [] ->
          Hashtbl.remove tbl key;
          []
      | l' ->
          Hashtbl.replace tbl key l';
          l')

let remove_edge g x k y =
  if has_edge g x k y then begin
    thaw g;
    Hashtbl.remove g.mem (x, k, y);
    if remove_from_bucket g.adj (x, k) y = [] then remove_label_index g.outl x k;
    if remove_from_bucket g.radj (y, k) x = [] then remove_label_index g.inl y k;
    g.edge_count <- g.edge_count - 1
    (* [all_labels] is deliberately left alone: it stays an over-
       approximation of the labels in use, which is all its clients
       (alphabet choices) need. *)
  end

let add_path g x rho y =
  match Path.to_labels rho with
  | [] -> if x <> y then invalid_arg "Graph.add_path: empty path between distinct nodes"
  | labels ->
      let rec go src = function
        | [] -> assert false
        | [ k ] -> add_edge g src k y
        | k :: rest ->
            let mid = add_node g in
            add_edge g src k mid;
            go mid rest
      in
      go x labels

let ensure_path g x rho =
  let rec go src = function
    | [] -> src
    | k :: rest -> (
        match succ g src k with
        | y :: _ -> go y rest
        | [] ->
            let y = add_node g in
            add_edge g src k y;
            go y rest)
  in
  go x (Path.to_labels rho)

let out_labels g n = Option.value ~default:Label.Set.empty (Hashtbl.find_opt g.outl n)
let in_labels g n = Option.value ~default:Label.Set.empty (Hashtbl.find_opt g.inl n)

let succ_all g n =
  Label.Set.fold
    (fun k acc -> List.fold_left (fun acc y -> (k, y) :: acc) acc (succ g n k))
    (out_labels g n) []

let node_count g = g.size
let edge_count g = g.edge_count

let nodes g = List.init g.size (fun i -> i)

let iter_edges g f =
  for x = 0 to g.size - 1 do
    Label.Set.iter
      (fun k -> List.iter (fun y -> f x k y) (succ g x k))
      (out_labels g x)
  done

let fold_edges g f acc =
  let acc = ref acc in
  iter_edges g (fun x k y -> acc := f !acc x k y);
  !acc

let edges g = List.rev (fold_edges g (fun acc x k y -> (x, k, y) :: acc) [])

let labels g = g.all_labels

let copy g =
  {
    size = g.size;
    adj = Hashtbl.copy g.adj;
    radj = Hashtbl.copy g.radj;
    mem = Hashtbl.copy g.mem;
    outl = Hashtbl.copy g.outl;
    inl = Hashtbl.copy g.inl;
    all_labels = g.all_labels;
    edge_count = g.edge_count;
    frozen = Atomic.make (Atomic.get g.frozen);
  }

(* Two passes straight into the arrays: count each node's runs, then
   fill them.  [succ] lists a run newest first, so it is written from
   the run's end to leave the targets in insertion order. *)
let build g =
  let nodes = g.size in
  let first_run = Array.make (nodes + 1) 0 in
  for v = 0 to nodes - 1 do
    first_run.(v + 1) <- first_run.(v) + Label.Set.cardinal (out_labels g v)
  done;
  let runs = first_run.(nodes) in
  let run_label = Array.make runs 0 and run_start = Array.make (runs + 1) 0 in
  let targets = Array.make g.edge_count 0 in
  let r = ref 0 in
  for v = 0 to nodes - 1 do
    Label.Set.iter
      (fun k ->
        let ys = succ g v k in
        let stop = run_start.(!r) + List.length ys in
        run_label.(!r) <- Label.id k;
        List.iteri (fun i y -> targets.(stop - 1 - i) <- y) ys;
        incr r;
        run_start.(!r) <- stop)
      (out_labels g v)
  done;
  { nodes; first_run; run_label; run_start; targets }

let freeze g =
  match Atomic.get g.frozen with
  | Some c -> c
  | None ->
      let c = build g in
      Atomic.set g.frozen (Some c);
      c

let find_run c v id =
  let rec go r stop =
    if r = stop then -1 else if c.run_label.(r) = id then r else go (r + 1) stop
  in
  go c.first_run.(v) c.first_run.(v + 1)

let of_edges es =
  let g = create () in
  let max_id =
    List.fold_left (fun m (x, _, y) -> max m (max x y)) 0 es
  in
  while g.size <= max_id do
    ignore (add_node g)
  done;
  List.iter (fun (x, k, y) -> add_edge g x (Label.make k) y) es;
  g

let union_disjoint g h =
  let offset = g.size in
  let rename n = n + offset in
  for _ = 1 to h.size do
    ignore (add_node g)
  done;
  iter_edges h (fun x k y -> add_edge g (rename x) k (rename y));
  rename

let sorted_edges g =
  List.sort compare
    (fold_edges g (fun acc x k y -> (x, Label.to_string k, y) :: acc) [])

let equal g h = g.size = h.size && sorted_edges g = sorted_edges h

let pp ppf g =
  Format.fprintf ppf "@[<v>graph: %d nodes, %d edges@," g.size g.edge_count;
  iter_edges g
    (fun x k y -> Format.fprintf ppf "  %d -%a-> %d@," x Label.pp k y);
  Format.fprintf ppf "@]"
