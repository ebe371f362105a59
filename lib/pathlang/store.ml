(* A hash-consed, subsumption-ordered constraint store.

   The store holds one constraint set Sigma as path e-classes over a
   shared trie of interned paths, after ecta's [Internal.Paths]: each
   trie node is one hash-consed path, union-find merges nodes that
   Sigma forces to have equal endpoint sets, and merging propagates to
   children (congruence: equal endpoint sets stay equal under a common
   suffix).  On top of the classes it keeps the containment arcs of the
   constraints themselves ([hasSubsumingMember]-style prefix
   subsumption and [constraintsImply]-style syntactic entailment).

   Everything here is *syntactic* and cheap — near-linear build, O(set)
   queries — and *sound only*: [implies_syntactic] true means the
   constraint really is entailed, false means "don't know".  It serves
   as the pre-filter that short-circuits the budgeted chase.  The typed
   reading of a constraint set (Lemmas 4.7/4.8) is not here: its
   congruence closure is [Core.Typed_m], the one place that decides
   typed entailment and satisfiability.

   Soundness of the three inference steps encoded here (over all
   semistructured structures, per Abiteboul-Vianu's complete rule set
   for P_w, restated in Section 4.2 of the paper):
   - membership and reflexivity are immediate;
   - transitivity of containment arcs within a bucket of constraints
     sharing one prefix [alpha]: for each [alpha]-endpoint the inclusion
     of successor sets composes;
   - right congruence: [beta -> gamma] entails
     [beta.delta -> gamma.delta]; mutual containment ([p -> q] and
     [q -> p]) makes the endpoint sets equal, and equality of endpoint
     sets propagates to any common suffix, which is exactly the trie
     merge with child propagation. *)

type node = {
  nid : int;
  path : Path.t;
  mutable parent : node option; (* union-find; [None] = class root *)
  mutable rank : int;
  mutable children : (int * node) list; (* label id -> child, on class roots *)
  mutable succs : node list; (* containment arcs out: this ⊑ succ *)
}

type graph = {
  mutable fresh : int;
  mutable all : node list; (* every node ever created, for iteration *)
  trie : node; (* the eps node *)
  mutable merges : int;
}

let new_node g path =
  let n =
    { nid = g.fresh; path; parent = None; rank = 0; children = []; succs = [] }
  in
  g.fresh <- g.fresh + 1;
  g.all <- n :: g.all;
  n

let new_graph () =
  let root =
    { nid = 0; path = Path.empty; parent = None; rank = 0; children = []; succs = [] }
  in
  { fresh = 1; all = [ root ]; trie = root; merges = 0 }

let rec find n =
  match n.parent with
  | None -> n
  | Some p ->
      let r = find p in
      if r != p then n.parent <- Some r;
      r

(* Walk (and extend) the trie from [from] along [labels]; every node
   lookup goes through [find] so the walk sees merged classes, which is
   what makes congruence propagate through shared suffixes for free. *)
let intern_from g from labels =
  List.fold_left
    (fun cur k ->
      let cur = find cur in
      let l = Label.id k in
      match List.assoc_opt l cur.children with
      | Some c -> find c
      | None ->
          let c = new_node g (Path.snoc cur.path k) in
          cur.children <- (l, c) :: cur.children;
          c)
    (find from) labels

let intern g p = intern_from g g.trie (Path.to_labels p)

(* Non-extending lookup: [None] when the path was never interned. *)
let lookup_from g from labels =
  ignore g;
  let rec go cur = function
    | [] -> Some (find cur)
    | k :: rest -> (
        let cur = find cur in
        match List.assoc_opt (Label.id k) cur.children with
        | Some c -> go c rest
        | None -> None)
  in
  go from labels

let lookup g p = lookup_from g g.trie (Path.to_labels p)

(* Union with congruence: merging two classes merges their equally
   labeled children, recursively. *)
let rec union g a b =
  let ra = find a and rb = find b in
  if ra != rb then begin
    g.merges <- g.merges + 1;
    let win, lose = if ra.rank >= rb.rank then (ra, rb) else (rb, ra) in
    if win.rank = lose.rank then win.rank <- win.rank + 1;
    lose.parent <- Some win;
    win.succs <- List.rev_append lose.succs win.succs;
    let pending = lose.children in
    lose.children <- [];
    List.iter
      (fun (l, c) ->
        (* a recursive child union can merge [win] itself away, so
           re-find the current root before touching its child map *)
        let w = find win in
        match List.assoc_opt l w.children with
        | Some c' -> if find c != find c' then union g c c'
        | None -> w.children <- (l, c) :: w.children)
      pending
  end

let add_arc u v =
  let u = find u and v = find v in
  if u != v then u.succs <- v :: u.succs

let class_roots g =
  List.filter (fun n -> find n == n) g.all

(* Reachability over containment arcs on class roots. *)
let leq u v =
  let u = find u and v = find v in
  if u == v then true
  else begin
    let seen = Hashtbl.create 16 in
    let rec go frontier =
      match frontier with
      | [] -> false
      | n :: rest ->
          let n = find n in
          if n == v then true
          else if Hashtbl.mem seen n.nid then go rest
          else begin
            Hashtbl.add seen n.nid ();
            go (List.rev_append n.succs rest)
          end
    in
    go [ u ]
  end

(* Merge mutually containing classes ([p ⊑ q] and [q ⊑ p] force equal
   endpoint sets), then re-close: a merge can expose new mutual pairs
   through congruence, so iterate to a fixpoint.  Quadratic in the
   worst case; constraint sets at lint scale keep it far from it. *)
let close_mutual g =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        if find n == n then
          List.iter
            (fun s ->
              let u = find n and v = find s in
              if u != v && leq v u then begin
                union g u v;
                changed := true
              end)
            n.succs)
      g.all
  done

(* --- the store ------------------------------------------------------------ *)

(* Forward constraints and their input positions by exact (hash-consed)
   prefix id; added last first, so [Hashtbl.find_all] is input order. *)
let prefix_groups constrs =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (i, c) ->
      if Constr.kind c = Constr.Forward then
        Hashtbl.add groups (Path.id (Constr.prefix c)) (i, c))
    (List.rev (List.mapi (fun i c -> (i, c)) constrs));
  groups

type t = {
  root : graph; (* root-anchored paths and the forward constraints' arcs *)
  buckets : (int, graph) Hashtbl.t; (* forward constraints, relative paths, keyed by root class id of the prefix *)
  by_prefix : (int, int * Constr.t) Hashtbl.t; (* [prefix_groups] *)
  backwards : (int * Constr.t) list; (* input order *)
}

let bucket_key st prefix =
  (find (intern st.root prefix)).nid

type stats = {
  paths : int;
  classes : int;
  merges : int;
  arcs : int;
  buckets : int;
  max_bucket : int;
}

let stats st =
  let roots = class_roots st.root in
  let arcs =
    List.fold_left (fun acc n -> acc + List.length n.succs) 0 roots
  in
  let buckets = Hashtbl.length st.buckets in
  let max_bucket =
    Hashtbl.fold (fun _ b acc -> max acc (List.length b.all)) st.buckets 0
  in
  {
    paths = List.length st.root.all;
    classes = List.length roots;
    merges = st.root.merges;
    arcs;
    buckets;
    max_bucket;
  }

(* gauges mirroring the last store built, so [--stats]/[--metrics]
   surface the hash-consed store without threading it to the caller *)
let g_paths = Obs.Gauge.make ~unit_:"nodes" "store.paths"
let g_classes = Obs.Gauge.make ~unit_:"classes" "store.eclasses"
let g_merges = Obs.Gauge.make ~unit_:"unions" "store.merges"
let g_arcs = Obs.Gauge.make ~unit_:"arcs" "store.containment_arcs"
let g_buckets = Obs.Gauge.make ~unit_:"buckets" "store.buckets"
let g_max_bucket = Obs.Gauge.make ~unit_:"nodes" "store.max_bucket"

let publish_gauges st =
  if Obs.enabled () then begin
    let s = stats st in
    Obs.Gauge.set g_paths s.paths;
    Obs.Gauge.set g_classes s.classes;
    Obs.Gauge.set g_merges s.merges;
    Obs.Gauge.set g_arcs s.arcs;
    Obs.Gauge.set g_buckets s.buckets;
    Obs.Gauge.set g_max_bucket s.max_bucket
  end

let of_constraints constrs =
  let st =
    {
      root = new_graph ();
      buckets = Hashtbl.create 8;
      by_prefix = prefix_groups constrs;
      backwards = [];
    }
  in
  (* root graph: intern every root-anchored path the constraints walk,
     then the semantic edges *)
  List.iter
    (fun c -> List.iter (fun p -> ignore (intern st.root p)) (Constr.paths_used c))
    constrs;
  List.iter
    (fun c ->
      match Constr.kind c with
      | Constr.Forward ->
          (* [alpha : beta -> gamma] gives
             endpoints(alpha.beta) ⊆ endpoints(alpha.gamma): the
             pointwise inclusions union over the alpha endpoints. *)
          let prefix = Constr.prefix c in
          add_arc
            (intern st.root (Path.concat prefix (Constr.lhs c)))
            (intern st.root (Path.concat prefix (Constr.rhs c)))
      | Constr.Backward ->
          (* no sound root-set inclusion untyped: the return path only
             covers alpha endpoints that have a beta successor *)
          ())
    constrs;
  close_mutual st.root;
  (* per-prefix buckets of forward constraints, relative to the prefix;
     bucketed by the prefix's *class* so constraints whose prefixes
     Sigma proved coextensive share one bucket *)
  let backwards = ref [] in
  List.iteri
    (fun i c ->
      match Constr.kind c with
      | Constr.Backward -> backwards := (i, c) :: !backwards
      | Constr.Forward ->
          let key = bucket_key st (Constr.prefix c) in
          let b =
            match Hashtbl.find_opt st.buckets key with
            | Some b -> b
            | None ->
                let b = new_graph () in
                Hashtbl.add st.buckets key b;
                b
          in
          add_arc (intern b (Constr.lhs c)) (intern b (Constr.rhs c)))
    constrs;
  Hashtbl.iter (fun _ b -> close_mutual b) st.buckets;
  let st = { st with backwards = List.rev !backwards } in
  publish_gauges st;
  st

let mem st c =
  match Constr.kind c with
  | Constr.Backward -> List.exists (fun (_, c') -> Constr.equal c c') st.backwards
  | Constr.Forward ->
      List.exists
        (fun (_, c') -> Constr.equal c c')
        (Hashtbl.find_all st.by_prefix (Path.id (Constr.prefix c)))

(* ecta's [hasSubsumingMember], specialized to right congruence: the
   first forward constraint (input order) with the same prefix from
   which [c] follows by appending one common non-empty suffix to both
   paths.  Exactly the PC505 witness; it needs no store. *)
let subsuming_member constrs =
  let groups = prefix_groups constrs in
  fun c ->
    if Constr.kind c <> Constr.Forward then None
    else
      List.find_map
        (fun (i, c') ->
          if Constr.equal c c' then None
          else
            match
              ( Path.strip_prefix ~prefix:(Constr.lhs c') (Constr.lhs c),
                Path.strip_prefix ~prefix:(Constr.rhs c') (Constr.rhs c) )
            with
            | Some d1, Some d2 when Path.equal d1 d2 && not (Path.is_empty d1)
              ->
                Some (i, c', d1)
            | _ -> None)
        (Hashtbl.find_all groups (Path.id (Constr.prefix c)))

(* ecta's [completedSubsumptionOrdering]: a linear extension of the
   subsumption partial order — a subsumer is strictly shorter than what
   it subsumes (same prefix, one common suffix appended to both paths),
   so sorting by body length, stably on input position, places every
   subsumer before everything it subsumes. *)
let completed_subsumption_ordering constrs =
  let weighted =
    List.mapi
      (fun i c ->
        (Path.length (Constr.lhs c) + Path.length (Constr.rhs c), i, c))
      constrs
  in
  List.map
    (fun (_, i, c) -> (i, c))
    (List.stable_sort
       (fun (w1, i1, _) (w2, i2, _) ->
         match Int.compare w1 w2 with 0 -> Int.compare i1 i2 | c -> c)
       weighted)

let implies_syntactic st phi =
  match Constr.kind phi with
  | Constr.Backward -> mem st phi
  | Constr.Forward -> (
      let lhs = Constr.lhs phi and rhs = Constr.rhs phi in
      Path.equal lhs rhs (* reflexivity *)
      ||
      match
        Hashtbl.find_opt st.buckets (bucket_key st (Constr.prefix phi))
      with
      | None -> false
      | Some b ->
          (* try every common-suffix split: right congruence lifts a
             derivation of the stripped pair to the full one *)
          let rl = List.rev (Path.to_labels lhs)
          and rr = List.rev (Path.to_labels rhs) in
          let rec strip rl rr =
            (match
               ( lookup b (Path.rev (Path.of_labels rl)),
                 lookup b (Path.rev (Path.of_labels rr)) )
             with
            | Some u, Some v -> leq u v
            | _ -> false)
            ||
            match (rl, rr) with
            | a :: rl', b' :: rr' when Label.equal a b' -> strip rl' rr'
            | _ -> false
          in
          strip rl rr)
