(* Each potential edge (x, k, y) is one bit of a mask, bit
   [(x * L + k) * n + y]; we count through all masks.  [bits] computes
   the exponent without wrapping, so absurd bounds are rejected up front
   instead of silently overflowing [2^(L*n^2)] past the 62 usable bits
   of an int. *)

module Constr = Pathlang.Constr

(* [L * n^2] with every multiplication overflow-checked; [None] when the
   instance has 62 or more potential edges (not enumerable in an int
   bitmask — and not enumerable before the heat death of anything). *)
let bits ~nodes ~labels =
  let l = List.length labels in
  if nodes < 0 then invalid_arg "Enumerate: negative node count";
  if nodes = 0 || l = 0 then Some 0
  else if nodes > max_int / nodes then None
  else
    let nn = nodes * nodes in
    if nn > max_int / l then None
    else
      let b = nn * l in
      if b >= 62 then None else Some b

let count ~nodes ~labels =
  match bits ~nodes ~labels with Some b -> Some (1 lsl b) | None -> None

(* The candidate a mask stands for, its edges added in ascending bit
   order: the order that fixes [Io.to_string] of a witness. *)
let graph ~nodes ~labels mask =
  let labels = Array.of_list labels in
  let l = Array.length labels in
  let g = Graph.create () in
  for _ = 2 to nodes do
    ignore (Graph.add_node g)
  done;
  for i = 0 to (l * nodes * nodes) - 1 do
    if mask land (1 lsl i) <> 0 then
      Graph.add_edge g (i / (l * nodes)) labels.(i / nodes mod l) (i mod nodes)
  done;
  g

(* --- the mask model check ----------------------------------------------- *)

(* The first index [>= k] of label [a] in [labels], or -1. *)
let rec index_from labels a k =
  if k >= Array.length labels then -1
  else if Pathlang.Label.equal labels.(k) a then k
  else index_from labels a (k + 1)

(* The alphabet of an [n]-node candidate: [same.(k)] is the next index
   after [k] holding the same label, or -1, so a label listed twice
   reads the union of its rows. *)
type alphabet = { n : int; l : int; full : int; same : int array }

let same_label labels =
  Array.mapi (fun k a -> index_from labels a (k + 1)) labels

let alphabet ~nodes ~same =
  { n = nodes; l = Array.length same; full = (1 lsl nodes) - 1; same }

(* A path as label indices; a label outside the alphabet is -1, whose
   image is empty. *)
let compile_path labels p =
  Array.of_list
    (List.map (fun a -> index_from labels a 0) (Pathlang.Path.to_labels p))

type compiled = {
  forward : bool;
  prefix : int array;
  lhs : int array;
  rhs : int array;
}

let compile labels c =
  {
    forward = Constr.kind c = Constr.Forward;
    prefix = compile_path labels (Constr.prefix c);
    lhs = compile_path labels (Constr.lhs c);
    rhs = compile_path labels (Constr.rhs c);
  }

(* Node sets are ints, bit [x] for node [x].  [succ_k(x)] is the row at
   bit [(x * L + k) * n]; the image of [s] under [k] ORs the rows of
   [s]'s nodes. *)
let image a mask s k =
  let r = ref 0 in
  if k >= 0 then
    for x = 0 to a.n - 1 do
      if s land (1 lsl x) <> 0 then begin
        let k = ref k in
        while !k >= 0 do
          r := !r lor ((mask lsr (((x * a.l) + !k) * a.n)) land a.full);
          k := a.same.(!k)
        done
      end
    done;
  !r

let walk a mask s p =
  let s = ref s and i = ref 0 in
  while !s <> 0 && !i < Array.length p do
    s := image a mask !s p.(!i);
    incr i
  done;
  !s

(* [Check.scan] on a mask: for every [x] the prefix reaches from the
   root and every [y] in [lhs(x)], forward needs [y] in [rhs(x)] and
   backward needs [x] in [rhs(y)]. *)
let holds_compiled a c mask =
  let xs = walk a mask 1 c.prefix in
  let ok = ref true and x = ref 0 in
  while !ok && !x < a.n do
    if xs land (1 lsl !x) <> 0 then begin
      let ys = walk a mask (1 lsl !x) c.lhs in
      if ys = 0 then ()
      else if c.forward then
        ok := ys land lnot (walk a mask (1 lsl !x) c.rhs) = 0
      else begin
        let y = ref 0 in
        while !ok && !y < a.n do
          if ys land (1 lsl !y) <> 0 then
            ok := walk a mask (1 lsl !y) c.rhs land (1 lsl !x) <> 0;
          incr y
        done
      end
    end;
    incr x
  done;
  !ok

let rec holds_all a cs mask i =
  i >= Array.length cs
  || (holds_compiled a cs.(i) mask && holds_all a cs mask (i + 1))

let holds ~nodes ~labels c =
  let labels = Array.of_list labels in
  holds_compiled (alphabet ~nodes ~same:(same_label labels)) (compile labels c)

(* --- the scanner ---------------------------------------------------------- *)

let no_interrupt () = false

let c_graphs = Obs.Counter.make ~unit_:"graphs" "enumerate.graphs_visited"

(* per-call cost of the brute-force fallback; long right tails here are
   the enumeration blow-ups the typed routes exist to avoid *)
let h_graphs =
  Obs.Histogram.make ~unit_:"graphs" "enumerate.graphs_per_call"

(* Walk masks [lo, hi) in ascending order; the unit of work both the
   sequential scan and each parallel chunk share, so a partitioned run
   visits candidates in exactly the sequential order within a chunk.
   The masks visited are added to [visited] and [c_graphs] once per
   range, so pool workers do not contend on a shared counter per
   mask. *)
let scan_range ~interrupt ~visited ~lo ~hi test =
  let rec go mask =
    if mask >= hi || interrupt () then (mask, None)
    else if test mask then (mask + 1, Some mask)
    else go (mask + 1)
  in
  let stop, r = go lo in
  Obs.Counter.add c_graphs (stop - lo);
  ignore (Atomic.fetch_and_add visited (stop - lo));
  r

(* Below this many candidates the fan-out overhead dwarfs the work. *)
let parallel_threshold = 256

(* The least mask of [0, total) passing [test]. *)
let scan ~interrupt ~visited ?pool ~total test =
  match pool with
  | Some p when Par.jobs p > 1 && total >= parallel_threshold ->
      (* Contiguous ascending chunks + least-index-wins reduce: the
         result is the minimal mask, the one the sequential scan
         returns.  [test] runs on worker domains: it must be pure up
         to obs metrics. *)
      let ranges =
        Array.of_list (Par.chunks ~chunks:(Par.jobs p * 4) ~total)
      in
      Par.find_min p ~stop:interrupt ~tasks:(Array.length ranges)
        (fun ~stop i ->
          let lo, hi = ranges.(i) in
          scan_range ~interrupt:stop ~visited ~lo ~hi test)
  | _ -> scan_range ~interrupt ~visited ~lo:0 ~hi:total test

let iter ?(interrupt = no_interrupt) ?pool ~nodes ~labels f =
  let total =
    match count ~nodes ~labels with
    | Some t -> t
    | None -> invalid_arg "Enumerate.iter: instance too large"
  in
  Option.map (graph ~nodes ~labels)
    (scan ~interrupt ~visited:(Atomic.make 0) ?pool ~total (fun mask ->
         f (graph ~nodes ~labels mask)))

let find_countermodel ?(interrupt = no_interrupt) ?pool ~max_nodes ~labels
    ~sigma ~phi () =
  Obs.Span.with_ "enumerate.find_countermodel"
    ~args:[ ("max_nodes", string_of_int max_nodes) ]
    (fun () ->
      let visited = Atomic.make 0 in
      let alpha = Array.of_list labels in
      let same = same_label alpha in
      let phi = compile alpha phi
      and sigma = Array.of_list (List.map (compile alpha) sigma) in
      let rec go n =
        if n > max_nodes || interrupt () then None
        else
          match count ~nodes:n ~labels with
          | None ->
              (* the space for [n] nodes alone exceeds 2^62 graphs:
                 larger sizes only grow, so stop instead of looping
                 forever *)
              None
          | Some total -> (
              let a = alphabet ~nodes:n ~same in
              let test mask =
                (not (holds_compiled a phi mask)) && holds_all a sigma mask 0
              in
              match scan ~interrupt ~visited ?pool ~total test with
              | Some mask -> Some (graph ~nodes:n ~labels mask)
              | None -> go (n + 1))
      in
      let r = go 1 in
      if Obs.enabled () then
        Obs.Histogram.observe h_graphs (float_of_int (Atomic.get visited));
      r)
