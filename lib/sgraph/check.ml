module Constr = Pathlang.Constr
module NS = Graph.Node_set

let c_checks = Obs.Counter.make ~unit_:"checks" "check.constraint_checks"

let c_violations =
  Obs.Counter.make ~unit_:"violations" "check.violations_found"

(* The one violation scan: [f x y] on every violating pair, in
   ascending (x, y) order.  The three paths are compiled once per
   call, not once per x. *)
let scan g c f =
  Obs.Counter.incr c_checks;
  let lhs = Eval.chain (Constr.lhs c) and rhs = Eval.chain (Constr.rhs c) in
  NS.iter
    (fun x ->
      let ys = Eval.run g x lhs in
      match Constr.kind c with
      | Constr.Forward ->
          let zs = Eval.run g x rhs in
          NS.iter (fun y -> if not (NS.mem y zs) then f x y) ys
      | Constr.Backward ->
          NS.iter (fun y -> if not (NS.mem x (Eval.run g y rhs)) then f x y) ys)
    (Eval.run g (Graph.root g) (Eval.chain (Constr.prefix c)))

let violations g c =
  let vs = ref [] in
  scan g c (fun x y -> vs := (x, y) :: !vs);
  Obs.Counter.add c_violations (List.length !vs);
  !vs

exception Found of (Graph.node * Graph.node)

(* First violation in ascending (x, y) order, short-circuiting.  This
   is the chase's selection rule: the reference chase calls it and the
   violation index answers the same pair, which is what makes their
   runs comparable repair-for-repair. *)
let first_violation g c =
  try
    scan g c (fun x y -> raise_notrace (Found (x, y)));
    None
  with Found v -> Some v

let holds g c =
  match scan g c (fun _ _ -> raise_notrace Exit) with
  | () -> true
  | exception Exit -> false

let holds_all g cs = List.for_all (holds g) cs
