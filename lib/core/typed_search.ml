module Path = Pathlang.Path
module Label = Pathlang.Label
module Mtype = Schema.Mtype
module Mschema = Schema.Mschema
module SG = Schema.Schema_graph
module Typecheck = Schema.Typecheck
module Graph = Sgraph.Graph
module Check = Sgraph.Check

type bounds = { max_per_class : int; max_per_atom : int; max_structures : int }

let default_bounds =
  { max_per_class = 2; max_per_atom = 1; max_structures = 200_000 }

let supported schema =
  let dbt = Mschema.dbtype schema in
  let value_sort s =
    match s with
    | Mtype.Set _ -> true
    | Mtype.Record _ -> not (Mtype.equal s dbt)
    | Mtype.Atomic _ | Mtype.Class _ -> false
  in
  if List.exists value_sort (SG.sorts schema) then
    Error
      "Typed_search: schemas with anonymous nested record/set values are not \
       supported"
  else Ok ()

(* All vectors (n_1..n_k) with n_i in 1..max, ordered by total size. *)
let count_vectors k max =
  let rec go k =
    if k = 0 then [ [] ]
    else
      let rest = go (k - 1) in
      List.concat_map (fun v -> List.init max (fun i -> (i + 1) :: v)) rest
  in
  List.sort
    (fun a b -> compare (List.fold_left ( + ) 0 a) (List.fold_left ( + ) 0 b))
    (go k)

type slot =
  | Choice of Graph.node * Label.t * Graph.node list
      (** record field: pick one target *)
  | Subset of Graph.node * Graph.node list
      (** set body: pick any subset of members *)

exception Found of Typecheck.t
exception Budget
exception Stopped
(* [Stopped] is the first-hit fan-out: a parallel task aborts its
   enumeration because a lower-index task already holds the witness. *)

let c_structures =
  Obs.Counter.make ~unit_:"structures" "typed_search.structures_built"

(* The node inventory and slot list of one count vector — everything
   [run_vector] needs, buildable without enumerating, so the parallel
   path can cost vectors up front. *)
type prepared = { total : int; sort_of : Mtype.t array; slots : slot list }

let prepare schema ~bounds ~classes ~atoms counts =
  (* node inventory: 0 = root, then classes, then atoms *)
  let next = ref 1 in
  let alloc n =
    let ids = List.init n (fun i -> !next + i) in
    next := !next + n;
    ids
  in
  let class_nodes = List.map2 (fun (c, _) n -> (c, alloc n)) classes counts in
  let atom_nodes = List.map (fun b -> (b, alloc bounds.max_per_atom)) atoms in
  let total = !next in
  let nodes_of_sort = function
    | Mtype.Class c -> List.assoc c class_nodes
    | Mtype.Atomic b -> List.assoc b atom_nodes
    | _ -> []
  in
  (* sort of every node *)
  let sort_of = Array.make total (Mschema.dbtype schema) in
  List.iter
    (fun (c, ids) -> List.iter (fun i -> sort_of.(i) <- Mtype.Class c) ids)
    class_nodes;
  List.iter
    (fun (b, ids) -> List.iter (fun i -> sort_of.(i) <- Mtype.Atomic b) ids)
    atom_nodes;
  (* slots *)
  let slots =
    List.concat
      (List.init total (fun n ->
           match SG.expand schema sort_of.(n) with
           | Mtype.Atomic _ -> []
           | Mtype.Record fields ->
               List.map
                 (fun (l, ft) -> Choice (n, l, nodes_of_sort ft))
                 fields
           | Mtype.Set m -> [ Subset (n, nodes_of_sort m) ]
           | Mtype.Class _ -> assert false))
  in
  { total; sort_of; slots }

(* Structures [run_vector] will build: the product of the slot choice
   counts, saturating at [max_int]; 0 when a record field has no
   available target (such a vector builds nothing). *)
let vector_cost p =
  if List.exists (function Choice (_, _, []) -> true | _ -> false) p.slots
  then 0
  else
    List.fold_left
      (fun acc s ->
        let c =
          match s with
          | Choice (_, _, targets) -> List.length targets
          | Subset (_, members) ->
              let m = List.length members in
              if m >= 62 then max_int else 1 lsl m
        in
        if acc > max_int / c then max_int else acc * c)
      1 p.slots

let sat_add a b = if a > max_int - b then max_int else a + b

(* Enumerate one prepared vector.  Raises [Found] on a witness,
   [Budget] when the shared structure budget or the controller trips,
   [Stopped] when the [?stop] hook fires between structures. *)
let run_vector ?stop ~budget ~ctl schema ~sigma ~phi p =
  let build assignment =
    (match stop with Some s when s () -> raise Stopped | _ -> ());
    Obs.Counter.incr c_structures;
    decr budget;
    if !budget < 0 then raise Budget;
    (match ctl with
    | Some c -> if not (Engine.tick c ()) then raise Budget
    | None -> ());
    let g = Graph.create () in
    for _ = 2 to p.total do
      ignore (Graph.add_node g)
    done;
    List.iter
      (function
        | `Edge (n, l, t) -> Graph.add_edge g n l t
        | `Members (n, ms) ->
            List.iter (fun m -> Graph.add_edge g n SG.star m) ms)
      assignment;
    if Check.holds_all g sigma && not (Check.holds g phi) then begin
      let typed =
        Typecheck.make g (List.init p.total (fun i -> (i, p.sort_of.(i))))
      in
      (* by construction this validates; keep the assertion cheap but
         real *)
      if Typecheck.validate schema typed = Ok () then raise (Found typed)
    end
  in
  if
    List.exists (function Choice (_, _, []) -> true | _ -> false) p.slots
    (* a record field with no available target kills the vector *)
  then ()
  else
    let rec enumerate acc = function
      | [] -> build acc
      | Choice (n, l, targets) :: rest ->
          List.iter (fun t -> enumerate (`Edge (n, l, t) :: acc) rest) targets
      | Subset (n, members) :: rest ->
          let m = List.length members in
          for mask = 0 to (1 lsl m) - 1 do
            let ms =
              List.filteri (fun i _ -> mask land (1 lsl i) <> 0) members
            in
            enumerate (`Members (n, ms) :: acc) rest
          done
    in
    enumerate [] p.slots

(* Below this many structures the fan-out overhead dwarfs the work. *)
let parallel_threshold = 64

(* Deterministic parallel search: one task per count vector, each with
   prefix-clamped slices of the structure and step budgets so the
   union of the explored regions is exactly the sequential scan's
   prefix; the least-vector-index witness wins (see DESIGN.md §15 for
   the determinism argument). *)
let find_par ~pool ~ctl ~bounds schema ~sigma ~phi ~classes ~atoms =
  let vectors = count_vectors (List.length classes) bounds.max_per_class in
  let prepared =
    Array.of_list (List.map (prepare schema ~bounds ~classes ~atoms) vectors)
  in
  let n = Array.length prepared in
  let costs = Array.map vector_cost prepared in
  let total_cost = Array.fold_left sat_add 0 costs in
  (* task i explores structures [prefix_i, prefix_i + a_i) of the
     sequential order, where a_i clamps the vector's cost against what
     is left of [limit] before it *)
  let allowance limit =
    let a = Array.make n 0 in
    let prefix = ref 0 in
    for i = 0 to n - 1 do
      let room = if !prefix >= limit then 0 else limit - !prefix in
      a.(i) <- min costs.(i) room;
      prefix := sat_add !prefix costs.(i)
    done;
    a
  in
  let struct_allow = allowance bounds.max_structures in
  let step_cap = Option.bind ctl Engine.remaining_steps in
  let step_allow = Option.map allowance step_cap in
  let subs = Array.make n None in
  let stop = Option.map Engine.interrupted ctl in
  let result =
    Par.find_min pool ?stop ~tasks:n (fun ~stop i ->
        let explore =
          match step_allow with
          | None -> struct_allow.(i)
          | Some sa -> min struct_allow.(i) sa.(i)
        in
        if explore = 0 then None
        else begin
          let sub =
            Option.map
              (fun c ->
                match step_allow with
                | Some sa -> Engine.fork c ~max_steps:sa.(i) ()
                | None -> Engine.fork c ())
              ctl
          in
          subs.(i) <- sub;
          let budget = ref struct_allow.(i) in
          match
            run_vector ~stop ~budget ~ctl:sub schema ~sigma ~phi prepared.(i)
          with
          | () -> None
          | exception Found t -> Some t
          | exception Budget -> None
          | exception Stopped -> None
        end)
  in
  (match ctl with
  | None -> ()
  | Some c ->
      (* fold the workers' accounting back in; with a decisive witness,
         racy slice exhaustions in losing tasks must not record a trip
         the sequential run would never have hit *)
      let trips = result = None in
      Array.iter
        (function Some sub -> Engine.absorb ~trips c sub | None -> ())
        subs;
      (* a task whose step slice was zero never forks a child, so the
         sequential would-have-tripped case is recorded explicitly *)
      (match step_cap with
      | Some cap when result = None && total_cost > cap ->
          Engine.trip c Verdict.Steps
      | _ -> ()));
  Ok result

let count_structures_value ~bounds schema ~classes ~atoms =
  List.fold_left
    (fun acc counts ->
      sat_add acc
        (vector_cost (prepare schema ~bounds ~classes ~atoms counts)))
    0
    (count_vectors (List.length classes) bounds.max_per_class)

let find_countermodel ?ctl ?pool ?(bounds = default_bounds) schema ~sigma ~phi
    =
  Obs.Span.with_ "typed_search.find_countermodel" (fun () ->
  match supported schema with
  | Error _ as e -> e
  | Ok () -> (
      let classes = Mschema.classes schema in
      let atoms =
        List.filter_map
          (function Mtype.Atomic b -> Some b | _ -> None)
          (SG.sorts schema)
      in
      let seq () =
        let budget = ref bounds.max_structures in
        try
          List.iter
            (fun counts ->
              run_vector ~budget ~ctl schema ~sigma ~phi
                (prepare schema ~bounds ~classes ~atoms counts))
            (count_vectors (List.length classes) bounds.max_per_class);
          Ok None
        with
        | Found t -> Ok (Some t)
        | Budget -> Ok None
      in
      match pool with
      | Some p
        when Par.jobs p > 1
             && count_structures_value ~bounds schema ~classes ~atoms
                >= parallel_threshold ->
          find_par ~pool:p ~ctl ~bounds schema ~sigma ~phi ~classes ~atoms
      | _ -> seq ()))

let count_structures ?(bounds = default_bounds) schema =
  match supported schema with
  | Error _ as e -> e
  | Ok () ->
      let classes = Mschema.classes schema in
      let atoms =
        List.filter_map
          (function Mtype.Atomic b -> Some b | _ -> None)
          (SG.sorts schema)
      in
      Ok
        (min bounds.max_structures
           (count_structures_value ~bounds schema ~classes ~atoms))
