module Label = Pathlang.Label
module Path = Pathlang.Path

type node = int

module Node_set = Set.Make (Int)

type run = {
  label : Label.t;
  id : int;
  mutable targets : node array;
  mutable len : int;
}

(* Edge membership, keyed by (source, label id, target). *)
module Edge = Hashtbl.Make (struct
  type t = int * int * int

  let equal (x, k, y) (x', k', y') = x = x' && k = k' && y = y'
  let hash (x, k, y) = Hashtbl.hash ((((x * 65599) + k) * 65599) + y)
end)

type t = {
  mutable size : int;
  mutable out : run array array;
  mutable inn : run array array;
      (* per node, its runs in label order; both arrays have spare room
         beyond [size] *)
  mem : unit Edge.t;
  mutable all_labels : Label.Set.t;
}

let create () =
  {
    size = 1;
    out = Array.make 8 [||];
    inn = Array.make 8 [||];
    mem = Edge.create 16;
    all_labels = Label.Set.empty;
  }

let root _ = 0

let add_node g =
  let n = g.size in
  if n = Array.length g.out then begin
    let grow a = Array.append a (Array.make n [||]) in
    g.out <- grow g.out;
    g.inn <- grow g.inn
  end;
  g.size <- n + 1;
  n

let mem_node g n = n >= 0 && n < g.size

let no_run = { label = Label.make "_"; id = -1; targets = [||]; len = 0 }

(* A scan: nodes have few labels. *)
let rec find_from runs id i =
  if i = Array.length runs then no_run
  else if runs.(i).id = id then runs.(i)
  else find_from runs id (i + 1)

let find runs id = find_from runs id 0

let out_run g x id = find g.out.(x) id
let in_run g y id = find g.inn.(y) id

(* A run's targets, newest first. *)
let newest_first r =
  let rec go i acc = if i = r.len then acc else go (i + 1) (r.targets.(i) :: acc) in
  go 0 []

let succ g x k = newest_first (out_run g x (Label.id k))
let pred g y k = newest_first (in_run g y (Label.id k))

let has_edge g x k y = Edge.mem g.mem (x, Label.id k, y)

(* Append [v] to [tbl.(n)]'s run for [k], inserting the run in label
   order if [n] has none. *)
let append tbl n k id v =
  let runs = tbl.(n) in
  let r = find runs id in
  if r != no_run then begin
    if r.len = Array.length r.targets then begin
      let a = Array.make (2 * r.len) 0 in
      Array.blit r.targets 0 a 0 r.len;
      r.targets <- a
    end;
    r.targets.(r.len) <- v;
    r.len <- r.len + 1
  end
  else begin
    let r = { label = k; id; targets = [| v |]; len = 1 } in
    let n_runs = Array.length runs in
    let i = ref 0 in
    while !i < n_runs && Label.compare runs.(!i).label k < 0 do
      incr i
    done;
    tbl.(n) <-
      Array.init (n_runs + 1) (fun j ->
          if j < !i then runs.(j) else if j = !i then r else runs.(j - 1))
  end

(* Drop [v] from [tbl.(n)]'s run [id], keeping the other targets in
   order; a run left empty goes. *)
let remove tbl n id v =
  let runs = tbl.(n) in
  let r = find runs id in
  let i = ref (r.len - 1) in
  while r.targets.(!i) <> v do
    decr i
  done;
  Array.blit r.targets (!i + 1) r.targets !i (r.len - !i - 1);
  r.len <- r.len - 1;
  if r.len = 0 then tbl.(n) <- Array.of_list (List.filter (( != ) r) (Array.to_list runs))

let add_edge g x k y =
  if not (mem_node g x && mem_node g y) then
    invalid_arg "Graph.add_edge: unknown node";
  let id = Label.id k in
  if not (Edge.mem g.mem (x, id, y)) then begin
    Edge.add g.mem (x, id, y) ();
    append g.out x k id y;
    append g.inn y k id x;
    g.all_labels <- Label.Set.add k g.all_labels
  end

let remove_edge g x k y =
  let id = Label.id k in
  if Edge.mem g.mem (x, id, y) then begin
    Edge.remove g.mem (x, id, y);
    remove g.out x id y;
    remove g.inn y id x
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
        let r = out_run g src (Label.id k) in
        if r.len > 0 then go r.targets.(r.len - 1) rest
        else
          let y = add_node g in
          add_edge g src k y;
          go y rest)
  in
  go x (Path.to_labels rho)

let labels_of runs =
  Array.fold_left (fun s r -> Label.Set.add r.label s) Label.Set.empty runs

let out_runs g n = g.out.(n)
let out_labels g n = labels_of g.out.(n)
let in_labels g n = labels_of g.inn.(n)

let succ_all g n =
  Array.fold_left
    (fun acc r ->
      let rec go i acc = if i < 0 then acc else go (i - 1) ((r.label, r.targets.(i)) :: acc) in
      go (r.len - 1) acc)
    [] g.out.(n)

let node_count g = g.size
let edge_count g = Edge.length g.mem

let nodes g = List.init g.size (fun i -> i)

let iter_edges g f =
  for x = 0 to g.size - 1 do
    Array.iter
      (fun r ->
        for i = r.len - 1 downto 0 do
          f x r.label r.targets.(i)
        done)
      g.out.(x)
  done

let fold_edges g f acc =
  let acc = ref acc in
  iter_edges g (fun x k y -> acc := f !acc x k y);
  !acc

let edges g = List.rev (fold_edges g (fun acc x k y -> (x, k, y) :: acc) [])

let labels g = g.all_labels

let copy g =
  let copy_runs =
    Array.map (Array.map (fun r -> { r with targets = Array.sub r.targets 0 r.len }))
  in
  {
    size = g.size;
    out = copy_runs g.out;
    inn = copy_runs g.inn;
    mem = Edge.copy g.mem;
    all_labels = g.all_labels;
  }

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
  Format.fprintf ppf "@[<v>graph: %d nodes, %d edges@," g.size (edge_count g);
  iter_edges g
    (fun x k y -> Format.fprintf ppf "  %d -%a-> %d@," x Label.pp k y);
  Format.fprintf ppf "@]"
