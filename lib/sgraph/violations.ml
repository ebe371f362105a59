module Constr = Pathlang.Constr
module Label = Pathlang.Label
module Path = Pathlang.Path
module NS = Graph.Node_set
module Mg = Merge_graph

let c_delta =
  Obs.Counter.make ~unit_:"edges" "chase.delta_edges"

let c_dropped =
  Obs.Counter.make ~unit_:"stale violations" "chase.candidates_dropped"

(* A pair (x, y) is the int [(x lsl 31) lor y], so int order is the
   ascending (x, y) order of [Check.first_violation]. *)
let pack x y = (x lsl 31) lor y
let src_of p = p lsr 31
let dst_of p = p land 0x7fff_ffff

(* A growable array: the delta log and the heaps. *)
type 'a buf = { mutable a : 'a array; mutable n : int }

let buf () = { a = [||]; n = 0 }

let push b v =
  if b.n = Array.length b.a then begin
    let a = Array.make (max 8 (2 * b.n)) v in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

(* Binary min-heap on a [buf]. *)
let heap_add h v =
  push h v;
  let a = h.a in
  let rec up i =
    let p = (i - 1) / 2 in
    if i > 0 && a.(p) > a.(i) then begin
      let t = a.(p) in
      a.(p) <- a.(i);
      a.(i) <- t;
      up p
    end
  in
  up (h.n - 1)

let heap_pop h =
  let a = h.a in
  h.n <- h.n - 1;
  a.(0) <- a.(h.n);
  let rec down i =
    let l = (2 * i) + 1 in
    if l < h.n then begin
      let m = if l + 1 < h.n && a.(l + 1) < a.(l) then l + 1 else l in
      if a.(m) < a.(i) then begin
        let t = a.(m) in
        a.(m) <- a.(i);
        a.(i) <- t;
        down m
      end
    end
  in
  down 0

(* One constraint, compiled when first asked.  Its body is the word
   alpha.beta, with x at position [split] = |alpha|; body position q is
   the q-th letter. *)
type entry = {
  c : Constr.t;
  body : Label.t array;
  split : int;
  alpha_back : Label.t list;  (** from x back to the root *)
  beta : Label.t list;
  head_back : Label.t list;  (** gamma, from its far end *)
  heap : int buf;
  mutable read : int;  (** delta edges read so far *)
}

(* The delta log holds every edge the graph gained since [create], in
   order: [ends] the packed endpoints, [labels] the labels; each entry
   reads it from where it last stopped.  A constraint not yet asked
   starts from a full scan, so short chases pay only for the
   constraints they touch. *)
type t = {
  mg : Mg.t;
  sigma : Constr.t array;
  ends : int buf;
  labels : Label.t buf;
  entries : entry option array;
}

let compile t c =
  let alpha = Path.to_labels (Constr.prefix c) and beta = Path.to_labels (Constr.lhs c) in
  {
    c;
    body = Array.of_list (alpha @ beta);
    split = List.length alpha;
    alpha_back = List.rev alpha;
    beta;
    head_back = List.rev (Path.to_labels (Constr.rhs c));
    heap = buf ();
    read = t.ends.n;
  }

let create mg sigma =
  { mg; sigma; ends = buf (); labels = buf (); entries = Array.make (Array.length sigma) None }

let record t u k v =
  Obs.Counter.incr c_delta;
  push t.ends (pack u v);
  push t.labels k

(* Offer every pair of [xs] x [ys] whose head fails.  The head is
   checked by a backward walk from its far end (y for a forward
   constraint, x for a backward one), once per far node: walking
   forward from x would build gamma's whole image of x, which for
   [K.l -> K] is the whole graph. *)
let offer_product g e xs ys =
  match Constr.kind e.c with
  | Constr.Forward ->
      NS.iter
        (fun y ->
          let ok = Eval.preimage g (NS.singleton y) e.head_back in
          NS.iter (fun x -> if not (NS.mem x ok) then heap_add e.heap (pack x y)) xs)
        ys
  | Constr.Backward ->
      NS.iter
        (fun x ->
          let ok = Eval.preimage g (NS.singleton x) e.head_back in
          NS.iter (fun y -> if not (NS.mem y ok) then heap_add e.heap (pack x y)) ys)
        xs

(* The labels of body positions [i .. j-1], last first. *)
let back_factor body i j =
  let rec go q acc = if q >= j then acc else go (q + 1) (body.(q) :: acc) in
  go i []

let factor body i j = List.rev (back_factor body i j)

(* Every body match through the edge (u, k, v) at body position [q]:
   walk from u back to x (q >= split) or to the root (q < split), and
   from v on to y (q >= split) or to x (q < split). *)
let delta g e u v q =
  let root = Graph.root g and m = Array.length e.body in
  let image xs ks = Eval.image g xs ks and preimage xs ks = Eval.preimage g xs ks in
  if q >= e.split then begin
    let xs =
      NS.filter
        (fun x -> NS.mem root (preimage (NS.singleton x) e.alpha_back))
        (preimage (NS.singleton u) (back_factor e.body e.split q))
    in
    if not (NS.is_empty xs) then
      offer_product g e xs (image (NS.singleton v) (factor e.body (q + 1) m))
  end
  else if NS.mem root (preimage (NS.singleton u) (back_factor e.body 0 q)) then
    NS.iter
      (fun x -> offer_product g e (NS.singleton x) (image (NS.singleton x) e.beta))
      (image (NS.singleton v) (factor e.body (q + 1) e.split))

let head_holds g e x y =
  match Constr.kind e.c with
  | Constr.Forward -> NS.mem x (Eval.preimage g (NS.singleton y) e.head_back)
  | Constr.Backward -> NS.mem y (Eval.preimage g (NS.singleton x) e.head_back)

(* Bring the entry's heap up to date: the first query compiles the
   constraint and seeds its heap with one full scan, later ones match
   the delta edges logged since at every body position their label
   fills.  An edge whose endpoint has since been absorbed is skipped:
   the merge that absorbed it logged the edge again under its new
   endpoints.  [true] when the heap was just seeded, so its least pair
   is a violation of the current graph. *)
let sync t i =
  let g = Mg.graph t.mg in
  match t.entries.(i) with
  | None ->
      let e = compile t t.sigma.(i) in
      (* [violations] lists the pairs descending: reversed, they are
         sorted, and a sorted array is a heap *)
      let vs = Check.violations g e.c in
      let n = List.length vs in
      e.heap.a <- Array.make n 0;
      e.heap.n <- n;
      List.iteri (fun j (x, y) -> e.heap.a.(n - 1 - j) <- pack x y) vs;
      t.entries.(i) <- Some e;
      (e, true)
  | Some e ->
      for j = e.read to t.ends.n - 1 do
        let u = src_of t.ends.a.(j) and v = dst_of t.ends.a.(j) in
        if Mg.find t.mg u = u && Mg.find t.mg v = v then
          Array.iteri
            (fun q k -> if Label.equal k t.labels.a.(j) then delta g e u v q)
            e.body
      done;
      e.read <- t.ends.n;
      (e, false)

(* Pop stale candidates until the least one is a violation.  A pair is
   pushed once per delta that reaches it, so equal entries leave
   together. *)
let first t i =
  let e, seeded = sync t i in
  let g = Mg.graph t.mg in
  let rec least () =
    if e.heap.n = 0 then None
    else
      let p = e.heap.a.(0) in
      let x = src_of p and y = dst_of p in
      if Mg.find t.mg x <> x || Mg.find t.mg y <> y || head_holds g e x y then begin
        Obs.Counter.incr c_dropped;
        heap_pop e.heap;
        while e.heap.n > 0 && e.heap.a.(0) = p do heap_pop e.heap done;
        least ()
      end
      else Some (x, y)
  in
  if seeded && e.heap.n > 0 then
    let p = e.heap.a.(0) in
    Some (src_of p, dst_of p)
  else least ()
