module Nfa = Automata.Nfa
module Label = Pathlang.Label

(* Per state, its labeled moves and its ε moves. *)
let moves a =
  let out = Array.make (Nfa.state_count a) [] and eps = Array.make (Nfa.state_count a) [] in
  List.iter (fun (s, k, t) -> out.(s) <- (k, t) :: out.(s)) (Nfa.transitions a);
  List.iter (fun (s, t) -> eps.(s) <- t :: eps.(s)) (Nfa.eps_transitions a);
  (out, eps)

(* The construction is itself the reachability fixpoint: a worklist of
   discovered pairs, saturated until no new pair appears. *)
let product a b ~start =
  let prod = Nfa.create () in
  let out_a, eps_a = moves a and out_b, eps_b = moves b in
  let index = Hashtbl.create 64 and pairs = ref [] and queue = Queue.create () in
  let id pair =
    match Hashtbl.find_opt index pair with
    | Some i -> i
    | None ->
        let i = Nfa.add_state prod in
        Hashtbl.add index pair i;
        pairs := pair :: !pairs;
        Queue.add pair queue;
        i
  in
  ignore (id start);
  while not (Queue.is_empty queue) do
    let ((s, t) as pair) = Queue.pop queue in
    let i = Hashtbl.find index pair in
    if Nfa.is_final a s && Nfa.is_final b t then Nfa.set_final prod i;
    List.iter
      (fun (k, s') ->
        List.iter
          (fun (k', t') -> if Label.equal k k' then Nfa.add_trans prod i k (id (s', t')))
          out_b.(t))
      out_a.(s);
    List.iter (fun s' -> Nfa.add_eps prod i (id (s', t))) eps_a.(s);
    List.iter (fun t' -> Nfa.add_eps prod i (id (s, t'))) eps_b.(t)
  done;
  (prod, Array.of_list (List.rev !pairs))
