module Label = Pathlang.Label
module Path = Pathlang.Path

let c_unions = Obs.Counter.make ~unit_:"unions" "merge_graph.unions"
let c_splices = Obs.Counter.make ~unit_:"edges moved" "merge_graph.splices"

(* instantaneous live-class count of the most recently touched graph *)
let g_live = Obs.Gauge.make ~unit_:"nodes" "merge_graph.live_nodes"

type t = {
  g : Graph.t;
  mutable parent : int array;
  mutable live : int;
}

let of_graph g =
  let n = Graph.node_count g in
  { g; parent = Array.init (max n 16) Fun.id; live = n }

let graph t = t.g

let rec find t n =
  let p = t.parent.(n) in
  if p = n then n
  else begin
    (* path halving *)
    let gp = t.parent.(p) in
    t.parent.(n) <- gp;
    find t gp
  end

let live_count t = t.live

let grow t n =
  if n >= Array.length t.parent then begin
    let cap = max (2 * Array.length t.parent) (n + 1) in
    let parent = Array.init cap Fun.id in
    Array.blit t.parent 0 parent 0 (Array.length t.parent);
    t.parent <- parent
  end

let add_node t =
  let n = Graph.add_node t.g in
  grow t n;
  t.parent.(n) <- n;
  t.live <- t.live + 1;
  Obs.Gauge.set g_live t.live;
  n

let add_edge t x k y = Graph.add_edge t.g (find t x) k (find t y)

let no_report _ _ _ = ()

let add_path ?(on_edge = no_report) t x rho y =
  let add src k dst =
    Graph.add_edge t.g src k dst;
    on_edge src k dst
  in
  match Path.to_labels rho with
  | [] ->
      if find t x <> find t y then
        invalid_arg "Merge_graph.add_path: empty path between distinct nodes"
  | labels ->
      let rec go src = function
        | [] -> assert false
        | [ k ] -> add src k (find t y)
        | k :: rest ->
            let mid = add_node t in
            add src k mid;
            go mid rest
      in
      go (find t x) labels

let incident_labels t n =
  let n = find t n in
  Label.Set.union (Graph.out_labels t.g n) (Graph.in_labels t.g n)

(* Move every edge incident to [victim] onto [target].  Both are
   representatives and [parent.(victim)] already points at [target], so
   the only non-representative endpoint that can appear is [victim]
   itself (self loops). *)
let splice t ~on_edge ~target ~victim =
  Label.Set.iter
    (fun k ->
      List.iter
        (fun y ->
          Graph.remove_edge t.g victim k y;
          let y = if y = victim then target else y in
          Graph.add_edge t.g target k y;
          on_edge target k y;
          Obs.Counter.incr c_splices)
        (Graph.succ t.g victim k))
    (Graph.out_labels t.g victim);
  Label.Set.iter
    (fun k ->
      List.iter
        (fun x ->
          Graph.remove_edge t.g x k victim;
          let x = if x = victim then target else x in
          Graph.add_edge t.g x k target;
          on_edge x k target;
          Obs.Counter.incr c_splices)
        (Graph.pred t.g victim k))
    (Graph.in_labels t.g victim)

let union ?(on_edge = no_report) t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then None
  else begin
    (* The smaller id absorbs.  Two invariants ride on this choice: the
       root's class is always represented by node 0 (0 is minimal), so
       evaluation from [Graph.root] keeps working on the physical graph;
       and the surviving-id order matches the reference chase's
       renumbering order, which is what makes incremental and reference
       fixpoints isomorphic via the order bijection. *)
    let target = min ra rb and victim = max ra rb in
    t.parent.(victim) <- target;
    t.live <- t.live - 1;
    Obs.Gauge.set g_live t.live;
    Obs.Counter.incr c_unions;
    splice t ~on_edge ~target ~victim;
    Some (target, victim)
  end

(* ------------------------------------------------------------------ *)
(* Serialization: the union-find forest and the physical graph, as a   *)
(* line-oriented text section.  [serialize]/[deserialize] round-trip   *)
(* the exact physical state — parent pointers included — because the   *)
(* chase's repair selection depends on physical node ids: a resumed    *)
(* run must allocate the same fresh ids an uninterrupted run would.    *)
(* ------------------------------------------------------------------ *)

let serialize t =
  let buf = Buffer.create 1024 in
  let n = Graph.node_count t.g in
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" n);
  Buffer.add_string buf (Printf.sprintf "live %d\n" t.live);
  Buffer.add_string buf "parent";
  for i = 0 to n - 1 do
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int t.parent.(i))
  done;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "edges %d\n" (Graph.edge_count t.g));
  Graph.iter_edges t.g (fun x k y ->
      Buffer.add_string buf (Printf.sprintf "%d %s %d\n" x (Label.to_string k) y));
  Buffer.contents buf

let deserialize s =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf Result.error fmt in
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s) in
  let int_field field l =
    match String.split_on_char ' ' l with
    | [ k; v ] when k = field -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> Ok n
        | _ -> err "bad %s count %S" field v)
    | _ -> err "expected a %S line, got %S" field l
  in
  match lines with
  | nodes_l :: live_l :: parent_l :: edges_l :: edge_lines ->
      let* n = int_field "nodes" nodes_l in
      if n < 1 then err "node count must be at least 1 (the root)"
      else
        let* live = int_field "live" live_l in
        let* parent =
          match String.split_on_char ' ' parent_l with
          | "parent" :: ps when List.length ps = n ->
              let arr = Array.make n 0 in
              let rec fill i = function
                | [] -> Ok arr
                | p :: rest -> (
                    match int_of_string_opt p with
                    | Some v when v >= 0 && v <= i ->
                        arr.(i) <- v;
                        fill (i + 1) rest
                    | Some v ->
                        (* parent.(i) <= i is the min-id absorption
                           invariant; it also guarantees acyclicity. *)
                        err "parent.(%d) = %d violates the min-id invariant" i v
                    | None -> err "bad parent entry %S" p)
              in
              fill 0 ps
          | "parent" :: ps ->
              err "parent array has %d entries, want %d (truncated?)" (List.length ps) n
          | _ -> err "expected a parent line, got %S" parent_l
        in
        let roots = ref 0 in
        Array.iteri (fun i p -> if i = p then incr roots) parent;
        if !roots <> live then
          err "live count %d does not match the %d union-find roots" live !roots
        else
          let* m = int_field "edges" edges_l in
          let listed = List.length edge_lines in
          if listed <> m then err "edge section has %d lines, want %d (truncated?)" listed m
          else begin
            let g = Graph.create () in
            for _ = 2 to n do
              ignore (Graph.add_node g)
            done;
            let rec add i = function
              | [] -> Ok { g; parent; live }
              | l :: rest -> (
                  match String.split_on_char ' ' l with
                  | [ xs; ks; ys ] when ks <> "" -> (
                      match (int_of_string_opt xs, int_of_string_opt ys) with
                      | Some x, Some y when x >= 0 && x < n && y >= 0 && y < n ->
                          if parent.(x) <> x || parent.(y) <> y then
                            err "edge %d: endpoint is not a class representative in %S" i l
                          else begin
                            Graph.add_edge g x (Label.make ks) y;
                            add (i + 1) rest
                          end
                      | _ -> err "edge %d: node id out of range in %S" i l)
                  | _ -> err "edge %d: expected \"src label dst\", got %S" i l)
            in
            add 1 edge_lines
          end
  | _ -> err "truncated merge-graph section (%d lines)" (List.length lines)

let compact t =
  let size = Graph.node_count t.g in
  let dense = Array.make size (-1) in
  let next = ref 0 in
  for n = 0 to size - 1 do
    if find t n = n then begin
      dense.(n) <- !next;
      incr next
    end
  done;
  let h = Graph.create () in
  for _ = 2 to !next do
    ignore (Graph.add_node h)
  done;
  (* all edges connect representatives, see [splice] *)
  Graph.iter_edges t.g (fun x k y -> Graph.add_edge h dense.(x) k dense.(y));
  (h, fun n -> dense.(find t n))
