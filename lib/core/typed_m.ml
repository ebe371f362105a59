module Constr = Pathlang.Constr
module Path = Pathlang.Path
module Label = Pathlang.Label
module Mschema = Schema.Mschema
module Mtype = Schema.Mtype
module SG = Schema.Schema_graph
module Typecheck = Schema.Typecheck
module Graph = Sgraph.Graph

type outcome =
  | Implied of Axioms.t
  | Not_implied of Typecheck.t
  | Vacuous of string

let to_word_equality c =
  let alpha = Constr.prefix c in
  match Constr.kind c with
  | Constr.Forward ->
      (Path.concat alpha (Constr.lhs c), Path.concat alpha (Constr.rhs c))
  | Constr.Backward ->
      (alpha, Path.concat alpha (Path.concat (Constr.lhs c) (Constr.rhs c)))

(* ------------------------------------------------------------------ *)
(* Congruence closure over the prefix-closed set of mentioned paths,
   with a proof forest for I_r certificate extraction.                 *)
(* ------------------------------------------------------------------ *)

let c_unions = Obs.Counter.make ~unit_:"merges" "typed_m.unions"

let c_congruences =
  Obs.Counter.make ~unit_:"propagations" "typed_m.congruence_propagations"
let c_classes = Obs.Counter.make ~unit_:"paths" "typed_m.closure_paths"

type reason = By_input of Axioms.t | By_congruence of int * int * Label.t

type forest_edge = { other : int; reason : reason; stamp : int }

type state = {
  paths : Path.t array;
  sorts : Mtype.t array;
  ids : int Path.Map.t;  (** path -> node *)
  parent : int array;
  rank : int array;
  succ : (int * int) Label.Map.t array;
      (** rep -> label -> (successor node, witness parent node); the
          witness [w] satisfies [paths.(succ) = paths.(w) . label] *)
  forest : forest_edge list array;
      (** the proof forest; empty, and never written, when [certify] is
          off *)
  certify : bool;
  mutable clock : int;
}

(* A constraint whose two sides have different sorts.  Under M every
   class of the closure has one sort (DESIGN.md §13): a congruence
   merges the [l]-children of two classes of one sort [tau], and both
   have sort [tau.l].  So Sigma forces two sorts together iff one of its
   members does, and this lookup is the whole satisfiability check. *)
type clash = { p : Path.t; p_sort : Mtype.t; q : Path.t; q_sort : Mtype.t }

let sort_clash schema c =
  let p, q = to_word_equality c in
  match (SG.type_of_path schema p, SG.type_of_path schema q) with
  | Some p_sort, Some q_sort when not (Mtype.equal p_sort q_sort) ->
      Some { p; p_sort; q; q_sort }
  | _ -> None

let clash schema c = Option.map (fun k -> (k.p, k.q)) (sort_clash schema c)

let clash_message c =
  Format.asprintf "paths %a (sort %s) and %a (sort %s) are forced equal"
    Path.pp c.p (Mtype.to_string c.p_sort) Path.pp c.q
    (Mtype.to_string c.q_sort)

(* Compresses paths, but writes nothing once [n]'s parent is a root:
   the closed state of a context is only read (see [compress]). *)
let rec find st n =
  let p = st.parent.(n) in
  if p = n then n
  else begin
    let r = find st p in
    if r <> p then st.parent.(n) <- r;
    r
  end

let compress st = Array.iteri (fun i _ -> ignore (find st i)) st.parent
let node st p = Path.Map.find p st.ids

let forest_add st a b reason =
  let stamp = st.clock in
  st.clock <- stamp + 1;
  let push n e =
    st.forest.(n) <- e :: st.forest.(n)
  in
  push a { other = b; reason; stamp };
  push b { other = a; reason; stamp }

let rec union st a b reason =
  let ra = find st a and rb = find st b in
  if ra <> rb then begin
    Obs.Counter.incr c_unions;
    (match reason with
    | By_congruence _ -> Obs.Counter.incr c_congruences
    | By_input _ -> ());
    (* callers union no clashing input, and congruences keep sorts *)
    assert (Mtype.equal st.sorts.(ra) st.sorts.(rb));
    if st.certify then forest_add st a b reason;
    let big, small = if st.rank.(ra) >= st.rank.(rb) then (ra, rb) else (rb, ra) in
    st.parent.(small) <- big;
    if st.rank.(big) = st.rank.(small) then st.rank.(big) <- st.rank.(big) + 1;
    let ms = st.succ.(small) and mb = st.succ.(big) in
    st.succ.(small) <- Label.Map.empty;
    let merged, pending =
      Label.Map.fold
        (fun l (sn, wn) (acc, pending) ->
          match Label.Map.find_opt l acc with
          | Some (sn', wn') -> (acc, (sn, sn', wn, wn', l) :: pending)
          | None -> (Label.Map.add l (sn, wn) acc, pending))
        ms (mb, [])
    in
    st.succ.(big) <- merged;
    List.iter
      (fun (sn, sn', wn, wn', l) -> union st sn sn' (By_congruence (wn, wn', l)))
      pending
  end

(* Certificate extraction: the unique forest path between two congruent
   nodes, restricted to edges older than [before] (so that recursive
   explanations of congruence edges terminate). *)
let rec explain st ~before a b =
  if a = b then Axioms.Reflexivity st.paths.(a)
  else begin
    (* BFS for the path a ~> b over old-enough edges. *)
    let prev = Hashtbl.create 16 in
    let q = Queue.create () in
    Hashtbl.add prev a None;
    Queue.add a q;
    let rec bfs () =
      if Hashtbl.mem prev b then ()
      else if Queue.is_empty q then
        invalid_arg "Typed_m.explain: nodes not connected in proof forest"
      else begin
        let n = Queue.pop q in
        List.iter
          (fun e ->
            if e.stamp < before && not (Hashtbl.mem prev e.other) then begin
              Hashtbl.add prev e.other (Some (n, e));
              Queue.add e.other q
            end)
          st.forest.(n);
        bfs ()
      end
    in
    bfs ();
    (* Reconstruct edge list from a to b. *)
    let rec backtrack n acc =
      match Hashtbl.find prev n with
      | None -> acc
      | Some (p, e) -> backtrack p ((p, n, e) :: acc)
    in
    let edges = backtrack b [] in
    let derivation_of_edge (u, v, e) =
      (* wanted conclusion: word (paths u -> paths v) *)
      let base =
        match e.reason with
        | By_input d -> d
        | By_congruence (wu, wv, l) ->
            Axioms.Right_congruence
              (explain st ~before:e.stamp wu wv, Path.singleton l)
      in
      match Axioms.conclusion base with
      | Ok c when Constr.is_word c && Path.equal (Constr.lhs c) st.paths.(u)
                  && Path.equal (Constr.rhs c) st.paths.(v) ->
          base
      | Ok _ -> Axioms.Commutativity base
      | Error e -> invalid_arg ("Typed_m.explain: malformed step: " ^ e)
    in
    match List.map derivation_of_edge edges with
    | [] -> assert false
    | d :: ds -> List.fold_left (fun acc d' -> Axioms.Transitivity (acc, d')) d ds
  end

(* ------------------------------------------------------------------ *)

let input_derivation c =
  if Constr.is_word c then Axioms.Axiom c
  else
    match Constr.kind c with
    | Constr.Forward -> Axioms.Forward_to_word (Axioms.Axiom c)
    | Constr.Backward -> Axioms.Backward_to_word (Axioms.Axiom c)

let wrap_for phi d =
  if Constr.is_word phi then d
  else
    match Constr.kind phi with
    | Constr.Forward -> Axioms.Word_to_forward (d, Constr.prefix phi)
    | Constr.Backward ->
        Axioms.Word_to_backward (d, Constr.prefix phi, Constr.lhs phi)

let build_state ?(certify = true) schema all_paths =
  (* prefix closure *)
  let closure =
    List.fold_left
      (fun acc p ->
        List.fold_left (fun acc q -> Path.Set.add q acc) acc (Path.prefixes p))
      Path.Set.empty all_paths
  in
  let paths = Array.of_list (Path.Set.elements closure) in
  let ids =
    Array.to_seqi paths
    |> Seq.fold_left (fun m (i, p) -> Path.Map.add p i m) Path.Map.empty
  in
  let n = Array.length paths in
  let sorts =
    Array.map
      (fun p ->
        match SG.type_of_path schema p with
        | Some tau -> tau
        | None -> assert false (* validated upstream *))
      paths
  in
  let st =
    {
      paths;
      sorts;
      ids;
      parent = Array.init n Fun.id;
      rank = Array.make n 0;
      succ = Array.make n Label.Map.empty;
      forest = (if certify then Array.make n [] else [||]);
      certify;
      clock = 0;
    }
  in
  Array.iteri
    (fun i p ->
      match Path.split_last p with
      | None -> ()
      | Some (parent_path, l) ->
          let pi = Path.Map.find parent_path ids in
          st.succ.(pi) <- Label.Map.add l (i, pi) st.succ.(pi))
    paths;
  st

(* ------------------------------------------------------------------ *)
(* Countermodels: congruence classes plus generic per-sort nodes.  The
   canonical model of a closed state is built once per context (the
   base); a goal's model is a copy of the base patched with the classes
   its paths add.                                                       *)
(* ------------------------------------------------------------------ *)

type model = {
  typed : Typecheck.t;
  class_node : int array;
      (** rep -> node, over the closed state's indices; -1 off reps *)
  generic : Graph.node Mtype.Map.t;  (** sort -> its generic node *)
}

let copy_typed (t : Typecheck.t) =
  { Typecheck.graph = Graph.copy t.graph; typing = Hashtbl.copy t.typing }

(* The generic node of [tau] in [typed], with its own out-edges to the
   generic nodes of its field sorts, made on first use. *)
let rec generic_node schema (typed : Typecheck.t) generic tau =
  match Mtype.Map.find_opt tau !generic with
  | Some n -> n
  | None ->
      let n = Graph.add_node typed.graph in
      generic := Mtype.Map.add tau n !generic;
      Typecheck.set_type typed n tau;
      List.iter
        (fun (l, ft) ->
          Graph.add_edge typed.graph n l (generic_node schema typed generic ft))
        (SG.out_edges schema tau);
      n

(* Adds to [typed] the classes of [st] from index [n0] on: one node per
   class (the root class at the root), with an edge per field to the
   class of its successor in [st], else to the generic node of the
   field's sort.  [class_node] maps the reps below [n0] to nodes.
   Returns the new classes' nodes, indexed from [n0], and the generic
   map.

   With [n0 = 0] this builds the canonical model of a closed state (the
   base).  With the base's [n0], [st] is the base's closed state
   extended with a goal's paths ([extend]), which merged no two base
   classes: each new class whose parent class is a base class starts
   where that parent had no [l]-successor, so the parent's [l]-edge
   moves from the generic node of the new class's sort to the new node.
   A generic node that loses its only in-edge stays, unreachable. *)
let add_classes schema (typed : Typecheck.t) ~class_node ~generic ~n0 st =
  let g = typed.graph in
  let n = Array.length st.paths in
  let fresh = Array.make (n - n0) (-1) in
  let node_of r = if r < n0 then class_node.(r) else fresh.(r - n0) in
  for i = n0 to n - 1 do
    if find st i = i then begin
      let v = if i = find st 0 then Graph.root g else Graph.add_node g in
      fresh.(i - n0) <- v;
      Typecheck.set_type typed v st.sorts.(i)
    end
  done;
  let generic = ref generic in
  for i = n0 to n - 1 do
    if find st i = i then begin
      let v = fresh.(i - n0) in
      List.iter
        (fun (l, ft) ->
          Graph.add_edge g v l
            (match Label.Map.find_opt l st.succ.(i) with
            | Some (sn, _) -> node_of (find st sn)
            | None -> generic_node schema typed generic ft))
        (SG.out_edges schema st.sorts.(i));
      match Path.split_last st.paths.(i) with
      | None -> () (* the empty path *)
      | Some (parent_path, l) ->
          let r = find st (node st parent_path) in
          if r < n0 then begin
            let u = class_node.(r) in
            Graph.remove_edge g u l (Mtype.Map.find st.sorts.(i) !generic);
            Graph.add_edge g u l v
          end
    end
  done;
  (fresh, !generic)

(* Node 0 in [st] is the empty path: Path.Set orders by shortlex. *)
let base_model schema st =
  assert (Path.is_empty st.paths.(0));
  let typed = Typecheck.make (Graph.create ()) [] in
  let class_node, generic =
    add_classes schema typed ~class_node:[||] ~generic:Mtype.Map.empty ~n0:0 st
  in
  { typed; class_node; generic }

(* [st] extends the closed state [base] was built from. *)
let countermodel schema base st =
  let typed = copy_typed base.typed in
  ignore
    (add_classes schema typed ~class_node:base.class_node
       ~generic:base.generic ~n0:(Array.length base.class_node) st);
  typed

(* ------------------------------------------------------------------ *)
(* Decision contexts: the closure of Sigma, built once per Sigma.       *)
(* ------------------------------------------------------------------ *)

(* [base] is the canonical model of [st], built on the first goal that
   needs a model: satisfiability and lint's questions read [st] alone.
   Two domains forcing it at once both build one and keep the first. *)
type closed = { st : state; base : model option Atomic.t }

type closure = Closed of closed | Clashed of string

type context = { schema : Mschema.t; closure : (closure, string) result }

let path_error c rho =
  Format.asprintf "constraint %a mentions %a, not in Paths(Delta)" Constr.pp c
    Path.pp rho

let validate schema ~sigma =
  if Mschema.kind schema <> Mschema.M then
    Error "Typed_m: schema is not of kind M"
  else
    match
      List.find_map
        (fun c ->
          match SG.check_constraint_paths schema c with
          | Ok () -> None
          | Error rho -> Some (path_error c rho))
        sigma
    with
    | Some e -> Error e
    | None -> Ok ()

(* Materialize (span [typed_m.closure]) the prefix closure of a valid
   Sigma's endpoint pairs: the unmerged state and each input's pair of
   nodes.  The empty path is always materialized so that the root class
   exists even for empty inputs. *)
let universe ?certify schema ~sigma =
  let inputs =
    List.map (fun c -> (to_word_equality c, input_derivation c)) sigma
  in
  Obs.Span.with_ "typed_m.closure"
    ~args:[ ("sigma", string_of_int (List.length sigma)) ]
    (fun () ->
      let st =
        build_state ?certify schema
          (Path.empty :: List.concat_map (fun ((u, v), _) -> [ u; v ]) inputs)
      in
      Obs.Counter.add c_classes (Array.length st.paths);
      ( st,
        List.map (fun ((u, v), d) -> (node st u, node st v, By_input d)) inputs
      ))

(* Validate, check sorts, convert, materialize, saturate: everything
   that depends on Sigma alone.  A clashing Sigma closes nothing; the
   closed state is compressed and then only read. *)
let context schema ~sigma =
  let closure =
    Result.map
      (fun () ->
        match List.find_map (sort_clash schema) sigma with
        | Some c -> Clashed (clash_message c)
        | None ->
            let st, inputs = universe schema ~sigma in
            List.iter (fun (u, v, r) -> union st u v r) inputs;
            compress st;
            Closed { st; base = Atomic.make None })
      (validate schema ~sigma)
  in
  { schema; closure }

(* [st] with the prefix closure of [paths] materialized: [st] itself
   when nothing is new, else an extended copy.  Extending never merges
   two existing classes: a new node [p.l] joins the [l]-successor of
   [p]'s class when there is one (same sort, so no clash), and otherwise
   starts a class of its own.  Parents come before children in shortlex
   order, so each new node finds its parent in place. *)
let extend schema st paths =
  let fresh =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc q -> if Path.Map.mem q st.ids then acc else Path.Set.add q acc)
          acc (Path.prefixes p))
      Path.Set.empty paths
  in
  if Path.Set.is_empty fresh then st
  else begin
    let extra = Array.of_list (Path.Set.elements fresh) in
    let n0 = Array.length st.paths and k = Array.length extra in
    Obs.Counter.add c_classes k;
    let st =
      {
        paths = Array.append st.paths extra;
        sorts =
          Array.append st.sorts
            (Array.map (fun p -> Option.get (SG.type_of_path schema p)) extra);
        ids =
          Array.fold_left
            (fun (m, i) p -> (Path.Map.add p i m, i + 1))
            (st.ids, n0) extra
          |> fst;
        parent = Array.append st.parent (Array.init k (fun j -> n0 + j));
        rank = Array.append st.rank (Array.make k 0);
        succ = Array.append st.succ (Array.make k Label.Map.empty);
        forest =
          (if st.certify then Array.append st.forest (Array.make k [])
           else st.forest);
        certify = st.certify;
        clock = st.clock;
      }
    in
    Array.iteri
      (fun k p ->
        let i = n0 + k in
        match Path.split_last p with
        | None -> assert false (* the empty path is always materialized *)
        | Some (parent_path, l) -> (
            let pi = node st parent_path in
            let r = find st pi in
            match Label.Map.find_opt l st.succ.(r) with
            | Some (sn, wn) -> union st sn i (By_congruence (wn, pi, l))
            | None ->
                st.succ.(r) <- Label.Map.add l (i, pi) st.succ.(r)))
      extra;
    st
  end

let base_of schema c =
  match Atomic.get c.base with
  | Some m -> m
  | None ->
      let m = base_model schema c.st in
      if Atomic.compare_and_set c.base None (Some m) then m
      else Option.get (Atomic.get c.base)

let memo = Memo.create ()

let same_key (schema, sigma) (schema', sigma') =
  (schema == schema' || schema = schema')
  && (sigma == sigma' || List.equal Constr.equal sigma sigma')

let memo_context schema ~sigma =
  Memo.find_or_add memo ~same:same_key (schema, sigma) (fun () ->
      context schema ~sigma)

(* [get ()] supplies the context once [phi] is known to be well-formed,
   inside the decide span. *)
let decide_with schema get ~phi =
  match SG.check_constraint_paths schema phi with
  | Error rho -> Error (path_error phi rho)
  | Ok () -> (
      Obs.Span.with_ "typed_m.decide" (fun () ->
      let s_path, t_path = to_word_equality phi in
      match (get ()).closure with
      | Error _ as e -> e
      | Ok (Clashed msg) -> Ok (Vacuous msg)
      | Ok (Closed c) ->
          let st = extend schema c.st [ s_path; t_path ] in
          let s = node st s_path and t = node st t_path in
          if find st s = find st t then begin
            let d =
              Obs.Span.with_ "typed_m.explain" (fun () ->
                  explain st ~before:max_int s t)
            in
            Ok (Implied (wrap_for phi d))
          end
          else
            Ok
              (Not_implied
                 (Obs.Span.with_ "typed_m.countermodel" (fun () ->
                      countermodel schema (base_of schema c) st)))))

let decide_in ctx ~phi = decide_with ctx.schema (fun () -> ctx) ~phi

let decide schema ~sigma ~phi =
  decide_with schema (fun () -> memo_context schema ~sigma) ~phi

let implies schema ~sigma ~phi =
  match decide schema ~sigma ~phi with
  | Ok (Implied _ | Vacuous _) -> Ok true
  | Ok (Not_implied _) -> Ok false
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Subset contexts: one materialized universe for every S of Sigma.     *)
(* ------------------------------------------------------------------ *)

type answer = Entailed | Not_entailed | Unsatisfiable

type subsets = {
  sub_schema : Mschema.t;
  universe : (state * (int * int * reason) array * bool array, string) result;
      (** Sigma's prefix closure, unmerged, each input's node pair, and
          whether each input clashes *)
}

let subsets schema ~sigma =
  {
    sub_schema = schema;
    universe =
      Result.map
        (fun () ->
          let st, inputs = universe ~certify:false schema ~sigma in
          ( st,
            Array.of_list inputs,
            Array.of_list
              (List.map (fun c -> Option.is_some (sort_clash schema c)) sigma)
          ))
        (validate schema ~sigma);
  }

(* A copy of the universe's union-find, closed under the kept inputs,
   none of which clashes (a repeated input merges nothing).  Closing is
   order-independent: the least congruence is unique. *)
let close base inputs keep =
  let st =
    {
      base with
      parent = Array.copy base.parent;
      rank = Array.copy base.rank;
      succ = Array.copy base.succ;
    }
  in
  List.iter
    (fun i ->
      let u, v, r = inputs.(i) in
      union st u v r)
    keep;
  st

let implies_subset ss ~keep ~phi =
  match ss.universe with
  | Error _ as e -> e
  | Ok (base, inputs, clashes) -> (
      match SG.check_constraint_paths ss.sub_schema phi with
      | Error rho -> Error (path_error phi rho)
      | Ok () ->
          Obs.Span.with_ "typed_m.decide" (fun () ->
              if List.exists (fun i -> clashes.(i)) keep then Ok Unsatisfiable
              else
                let st = close base inputs keep in
                let s_path, t_path = to_word_equality phi in
                let st = extend ss.sub_schema st [ s_path; t_path ] in
                Ok
                  (if find st (node st s_path) = find st (node st t_path) then
                     Entailed
                   else Not_entailed)))

let satisfiable schema ~sigma =
  Result.map
    (fun () ->
      List.for_all (fun c -> Option.is_none (sort_clash schema c)) sigma)
    (validate schema ~sigma)

let equivalence_classes schema ~sigma ~max_len =
  match (memo_context schema ~sigma).closure with
  | Error e -> Error e
  | Ok (Clashed msg) -> Error ("unsatisfiable: " ^ msg)
  | Ok (Closed { st; _ }) ->
      let universe = SG.paths_up_to schema max_len in
      let st = extend schema st universe in
      let by_rep = Hashtbl.create 64 in
      List.iter
        (fun p ->
          let r = find st (node st p) in
          Hashtbl.replace by_rep r
            (p :: Option.value ~default:[] (Hashtbl.find_opt by_rep r)))
        universe;
      Ok
        (Hashtbl.fold (fun _ ps acc -> List.rev ps :: acc) by_rep []
        |> List.sort (fun a b -> Path.compare (List.hd a) (List.hd b)))

let canonical_model schema ~sigma =
  match (memo_context schema ~sigma).closure with
  | Error e -> Error e
  | Ok (Clashed msg) -> Error ("unsatisfiable: " ^ msg)
  | Ok (Closed c) -> Ok (copy_typed (base_of schema c).typed)

(* ------------------------------------------------------------------ *)

let random_walk ~rng schema start max_len =
  let len = Random.State.int rng (max_len + 1) in
  let rec go tau acc k =
    if k = 0 then (Path.of_labels (List.rev acc), tau)
    else
      match SG.out_edges schema tau with
      | [] -> (Path.of_labels (List.rev acc), tau)
      | edges ->
          let l, tau' = List.nth edges (Random.State.int rng (List.length edges)) in
          go tau' (l :: acc) (k - 1)
  in
  go start [] len

let walk_to_sort ~rng schema start target max_len =
  let rec attempt k =
    if k = 0 then None
    else
      let p, tau = random_walk ~rng schema start max_len in
      if Mtype.equal tau target then Some p else attempt (k - 1)
  in
  attempt 50

let random_constraints ~rng ~schema ~count ~max_len =
  let dbt = Mschema.dbtype schema in
  let sort_of p =
    match SG.type_of_path schema p with Some t -> t | None -> assert false
  in
  let rec make ?(fuel = 200) n acc =
    if n = 0 then acc
    else if fuel = 0 then
      (* Schema shape frustrates sampling (e.g. no cycles back): emit a
         trivially satisfiable forward constraint and move on. *)
      let alpha, _ = random_walk ~rng schema dbt max_len in
      let beta, _ = random_walk ~rng schema dbt 0 in
      make (n - 1) (Constr.forward ~prefix:alpha ~lhs:beta ~rhs:beta :: acc)
    else
      let alpha, tau_x =
        if Random.State.int rng 3 = 0 then (Path.empty, dbt)
        else random_walk ~rng schema dbt max_len
      in
      let beta, tau_y = random_walk ~rng schema tau_x max_len in
      let choice = Random.State.int rng 3 in
      let c =
        if choice = 2 && not (Path.is_empty beta) then
          (* backward: need gamma from tau_y back to sort of alpha *)
          match walk_to_sort ~rng schema tau_y tau_x max_len with
          | Some gamma -> Some (Constr.backward ~prefix:alpha ~lhs:beta ~rhs:gamma)
          | None -> None
        else
          match walk_to_sort ~rng schema tau_x tau_y max_len with
          | Some gamma ->
              if choice = 0 then
                Some
                  (Constr.word
                     ~lhs:(Path.concat alpha beta)
                     ~rhs:(Path.concat alpha gamma))
              else Some (Constr.forward ~prefix:alpha ~lhs:beta ~rhs:gamma)
          | None -> None
      in
      match c with
      | Some c ->
          ignore (sort_of (Constr.prefix c));
          make (n - 1) (c :: acc)
      | None -> make ~fuel:(fuel - 1) n acc
  in
  make count []
