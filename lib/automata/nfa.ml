module Label = Pathlang.Label

type state = int

module State_set = Set.Make (Int)

type t = {
  mutable size : int;
  delta : (state * Label.t, State_set.t) Hashtbl.t;
  eps : (state, State_set.t) Hashtbl.t;
  mutable final : State_set.t;
}

let create () =
  {
    size = 0;
    delta = Hashtbl.create 64;
    eps = Hashtbl.create 16;
    final = State_set.empty;
  }

let add_state a =
  let s = a.size in
  a.size <- s + 1;
  s

let ensure_states a n = while a.size < n do ignore (add_state a) done
let state_count a = a.size

let targets a s k =
  Option.value ~default:State_set.empty (Hashtbl.find_opt a.delta (s, k))

let mem_trans a s k t = State_set.mem t (targets a s k)

let add_trans a s k t =
  if not (mem_trans a s k t) then
    Hashtbl.replace a.delta (s, k) (State_set.add t (targets a s k))

let eps_targets a s = Option.value ~default:State_set.empty (Hashtbl.find_opt a.eps s)

let add_eps a s t =
  if not (State_set.mem t (eps_targets a s)) then
    Hashtbl.replace a.eps s (State_set.add t (eps_targets a s))

let set_final a s = a.final <- State_set.add s a.final
let is_final a s = State_set.mem s a.final
let finals a = a.final

let eps_closure a set =
  let rec go seen = function
    | [] -> seen
    | s :: rest ->
        let next =
          State_set.filter (fun t -> not (State_set.mem t seen)) (eps_targets a s)
        in
        go (State_set.union seen next) (State_set.elements next @ rest)
  in
  go set (State_set.elements set)

let step a set k =
  let set = eps_closure a set in
  let after =
    State_set.fold (fun s acc -> State_set.union acc (targets a s k)) set
      State_set.empty
  in
  eps_closure a after

let reach a s word =
  List.fold_left (step a) (eps_closure a (State_set.singleton s)) word

let accepts_from a s word =
  not (State_set.is_empty (State_set.inter (reach a s word) a.final))

let transitions a =
  Hashtbl.fold
    (fun (s, k) ts acc -> State_set.fold (fun t acc -> (s, k, t) :: acc) ts acc)
    a.delta []

let eps_transitions a =
  Hashtbl.fold
    (fun s ts acc -> State_set.fold (fun t acc -> (s, t) :: acc) ts acc)
    a.eps []

let copy a =
  {
    size = a.size;
    delta = Hashtbl.copy a.delta;
    eps = Hashtbl.copy a.eps;
    final = a.final;
  }
