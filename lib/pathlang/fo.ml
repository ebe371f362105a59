type term = Root | Var of string

type formula =
  | True
  | False
  | Atom of Label.t * term * term
  | Eq of term * term
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Forall of string * formula
  | Exists of string * formula

let of_path rho ~src ~dst =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "_p%d" !counter
  in
  let rec go src = function
    | [] -> Eq (src, dst)
    | [ k ] -> Atom (k, src, dst)
    | k :: rest ->
        let z = fresh () in
        Exists (z, And (Atom (k, src, Var z), go (Var z) rest))
  in
  go src (Path.to_labels rho)

let of_constraint c =
  let x = Var "x" and y = Var "y" in
  let premise = of_path (Constr.prefix c) ~src:Root ~dst:x in
  let body_lhs = of_path (Constr.lhs c) ~src:x ~dst:y in
  let body_rhs =
    match Constr.kind c with
    | Constr.Forward -> of_path (Constr.rhs c) ~src:x ~dst:y
    | Constr.Backward -> of_path (Constr.rhs c) ~src:y ~dst:x
  in
  Forall ("x", Implies (premise, Forall ("y", Implies (body_lhs, body_rhs))))

let free_vars f =
  let module S = Set.Make (String) in
  let term_vars bound acc = function
    | Root -> acc
    | Var v -> if S.mem v bound then acc else S.add v acc
  in
  let rec go bound acc = function
    | True | False -> acc
    | Atom (_, s, t) | Eq (s, t) -> term_vars bound (term_vars bound acc s) t
    | Not f -> go bound acc f
    | And (f, g) | Or (f, g) | Implies (f, g) -> go bound (go bound acc f) g
    | Forall (v, f) | Exists (v, f) -> go (S.add v bound) acc f
  in
  S.elements (go S.empty S.empty f)

let pp_term ppf = function
  | Root -> Format.pp_print_string ppf "r"
  | Var v -> Format.pp_print_string ppf v

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Atom (k, s, t) -> Format.fprintf ppf "%a(%a, %a)" Label.pp k pp_term s pp_term t
  | Eq (s, t) -> Format.fprintf ppf "%a = %a" pp_term s pp_term t
  | Not f -> Format.fprintf ppf "~(%a)" pp f
  | And (f, g) -> Format.fprintf ppf "(%a /\\ %a)" pp f pp g
  | Or (f, g) -> Format.fprintf ppf "(%a \\/ %a)" pp f pp g
  | Implies (f, g) -> Format.fprintf ppf "(%a -> %a)" pp f pp g
  | Forall (v, f) -> Format.fprintf ppf "forall %s (%a)" v pp f
  | Exists (v, f) -> Format.fprintf ppf "exists %s (%a)" v pp f

let to_string f = Format.asprintf "%a" pp f
