module Constr = Pathlang.Constr
module Label = Pathlang.Label
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

(* One constraint, compiled when first asked into label-id words.  Its
   body is the word alpha.beta, with x at position [split] = |alpha|;
   body position q is the q-th letter. *)
type entry = {
  c : Constr.t;
  forward : bool;
  body : int array;
  split : int;
  head : int array;  (** gamma *)
  heap : int buf;
  mutable read : int;  (** delta edges read so far *)
}

(* The delta log holds every edge the graph gained since [create], in
   order: [ends] the packed endpoints, [labels] the label ids; each
   entry reads it from where it last stopped.  A constraint not yet
   asked starts from a full scan, so short chases pay only for the
   constraints they touch.  [xs], [ys] and [mids] hold walk results
   that must outlive the next walk: {!Eval}'s frontier is one per
   domain. *)
type t = {
  mg : Mg.t;
  sigma : Constr.t array;
  ends : int buf;
  labels : int buf;
  entries : entry option array;
  xs : int buf;
  ys : int buf;
  mids : int buf;
}

let compile t c =
  let alpha = Eval.word (Constr.prefix c) and beta = Eval.word (Constr.lhs c) in
  {
    c;
    forward = Constr.kind c = Constr.Forward;
    body = Array.append alpha beta;
    split = Array.length alpha;
    head = Eval.word (Constr.rhs c);
    heap = buf ();
    read = t.ends.n;
  }

let create mg sigma =
  {
    mg;
    sigma;
    ends = buf ();
    labels = buf ();
    entries = Array.make (Array.length sigma) None;
    xs = buf ();
    ys = buf ();
    mids = buf ();
  }

let record t u k v =
  Obs.Counter.incr c_delta;
  push t.ends (pack u v);
  push t.labels (Label.id k)

(* [b] := the frontier's nodes *)
let keep b f =
  b.n <- 0;
  for i = 0 to Eval.size f - 1 do
    push b (Eval.get f i)
  done

(* The nodes the word [w.(lo) .. w.(hi-1)] leads to from [x] (forward)
   or from which it leads to [x] (backward). *)
let walk g x w lo hi =
  let f = Eval.start g x in
  Eval.image g f w lo hi;
  f

let walk_back g x w lo hi =
  let f = Eval.start g x in
  Eval.preimage g f w lo hi;
  f

(* The nodes from which gamma leads to [z]. *)
let head_back g e z = walk_back g z e.head 0 (Array.length e.head)

(* Offer every pair of [xs] x [ys] whose head fails.  The head is
   checked by a backward walk from its far end (y for a forward
   constraint, x for a backward one), once per far node: walking
   forward from x would build gamma's whole image of x, which for
   [K.l -> K] is the whole graph. *)
let offer_product g e xs ys =
  let far, near = if e.forward then (ys, xs) else (xs, ys) in
  for i = 0 to far.n - 1 do
    let z = far.a.(i) in
    let ok = head_back g e z in
    for j = 0 to near.n - 1 do
      let w = near.a.(j) in
      if not (Eval.mem ok w) then
        heap_add e.heap (if e.forward then pack w z else pack z w)
    done
  done

(* Every body match through the edge (u, k, v) at body position [q]:
   walk from u back to x (q >= split) or to the root (q < split), and
   from v on to y (q >= split) or to x (q < split). *)
let delta t g e u v q =
  let root = Graph.root g and m = Array.length e.body in
  if q >= e.split then begin
    keep t.xs (walk_back g u e.body e.split q);
    let xs = t.xs and n = ref 0 in
    for i = 0 to xs.n - 1 do
      let x = xs.a.(i) in
      if Eval.mem (walk_back g x e.body 0 e.split) root then begin
        xs.a.(!n) <- x;
        incr n
      end
    done;
    xs.n <- !n;
    if xs.n > 0 then begin
      keep t.ys (walk g v e.body (q + 1) m);
      offer_product g e xs t.ys
    end
  end
  else if Eval.mem (walk_back g u e.body 0 q) root then begin
    keep t.mids (walk g v e.body (q + 1) e.split);
    for i = 0 to t.mids.n - 1 do
      let x = t.mids.a.(i) in
      t.xs.n <- 0;
      push t.xs x;
      keep t.ys (walk g x e.body e.split m);
      offer_product g e t.xs t.ys
    done
  end

let head_holds g e x y =
  let far, near = if e.forward then (y, x) else (x, y) in
  Eval.mem (head_back g e far) near

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
        let k = t.labels.a.(j) in
        if Mg.find t.mg u = u && Mg.find t.mg v = v then
          for q = 0 to Array.length e.body - 1 do
            if e.body.(q) = k then delta t g e u v q
          done
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
