module Constr = Pathlang.Constr
module Path = Pathlang.Path
module Graph = Sgraph.Graph
module Check = Sgraph.Check
module Eval = Sgraph.Eval
module Engine = Core.Engine
module Verdict = Core.Verdict

(* The historical copy-per-step chase, the differential-testing oracle
   for [Core.Chase]: every repair rebuilds the graph with renumbered
   ids, every step rescans all of Sigma with [Check.first_violation].
   [Core.Chase]'s violation index answers exactly
   [Check.first_violation], and its [union] absorbs into the smaller id
   exactly like [merge] does here, so a run of either engine performs
   the same repair sequence and their results are isomorphic via the
   order-preserving renaming. *)

let conclusion_holds g phi x y =
  match Constr.kind phi with
  | Constr.Forward -> Eval.holds_between g x (Constr.rhs phi) y
  | Constr.Backward -> Eval.holds_between g y (Constr.rhs phi) x

let merge g a b =
  if a = b then (Graph.copy g, fun n -> n)
  else begin
    (* Keep the root: merge into the smaller id (so 0 absorbs). *)
    let target = min a b and victim = max a b in
    let rename n =
      let n = if n = victim then target else n in
      if n > victim then n - 1 else n
    in
    let h = Graph.create () in
    for _ = 2 to Graph.node_count g - 1 do
      ignore (Graph.add_node h)
    done;
    Graph.iter_edges g (fun x k y -> Graph.add_edge h (rename x) k (rename y));
    (h, rename)
  end

(* One repair for the first violation found; [None] when G |= Sigma. *)
let repair_reference g sigma =
  let rec find = function
    | [] -> None
    | c :: rest -> (
        match Check.first_violation g c with
        | None -> find rest
        | Some (x, y) -> Some (c, x, y))
  in
  match find sigma with
  | None -> None
  | Some (c, x, y) ->
      let rhs = Constr.rhs c in
      let merged_or_added =
        match (Constr.kind c, Path.is_empty rhs) with
        | Constr.Forward, true -> `Merge (x, y)
        | Constr.Backward, true -> `Merge (y, x)
        | Constr.Forward, false -> `Add (x, rhs, y)
        | Constr.Backward, false -> `Add (y, rhs, x)
      in
      Some
        (match merged_or_added with
        | `Merge (a, b) ->
            let g', rename = merge g a b in
            (g', rename)
        | `Add (node_src, rho, dst) ->
            let g' = Graph.copy g in
            Graph.add_path g' node_src rho dst;
            (g', fun n -> n))

(* Fairness: rotate the constraint list as steps accumulate so a diverging
   dependency cannot starve the others. *)
let rotate sigma steps =
  match sigma with
  | [] -> []
  | _ ->
      let n = List.length sigma in
      let k = steps mod n in
      let rec split i acc = function
        | rest when i = k -> rest @ List.rev acc
        | x :: rest -> split (i + 1) (x :: acc) rest
        | [] -> List.rev acc
      in
      split 0 [] sigma

let run_reference ?ctl ?(tracked = []) g sigma =
  let ctl = match ctl with Some c -> c | None -> Engine.default () in
  let rec go steps g tracked =
    if not (Engine.tick ctl ~nodes:(Graph.node_count g) ()) then
      (Core.Chase.Exhausted (g, Engine.exhaustion ctl), tracked)
    else
      match repair_reference g (rotate sigma steps) with
      | None -> (Core.Chase.Fixpoint g, tracked)
      | Some (g', rename) -> go (steps + 1) g' (List.map rename tracked)
  in
  go 0 (Graph.copy g) tracked

let implies_reference ?ctl ~sigma phi =
  let ctl = match ctl with Some c -> c | None -> Engine.default () in
  let g = Graph.create () in
  let x = Graph.ensure_path g (Graph.root g) (Constr.prefix phi) in
  let y = Graph.ensure_path g x (Constr.lhs phi) in
  let rec go steps g x y =
    if conclusion_holds g phi x y then Verdict.Implied
    else if not (Engine.tick ctl ~nodes:(Graph.node_count g) ()) then
      Verdict.Unknown (Engine.exhaustion ctl)
    else
      match repair_reference g (rotate sigma steps) with
      | None -> Verdict.Refuted g
      | Some (g', rename) -> go (steps + 1) g' (rename x) (rename y)
  in
  go 0 g x y
