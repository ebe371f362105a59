type reason = Steps | Nodes | Deadline | Cancelled | Crashed

type exhaustion = {
  reason : reason;
  steps : int;
  nodes : int;
  elapsed_ns : int64;
  rounds : int;
  notes : string list;
  counters : (string * int) list;
}

type t = Implied | Refuted of Sgraph.Graph.t | Unknown of exhaustion

let is_implied = function Implied -> true | Refuted _ | Unknown _ -> false
let is_refuted = function Refuted _ -> true | Implied | Unknown _ -> false
let is_unknown = function Unknown _ -> true | Implied | Refuted _ -> false

let elapsed_s e = Int64.to_float e.elapsed_ns /. 1e9

let reason_keyword = function
  | Steps -> "steps"
  | Nodes -> "nodes"
  | Deadline -> "deadline"
  | Cancelled -> "cancelled"
  | Crashed -> "crashed"

let pp_reason ppf = function
  | Steps -> Format.pp_print_string ppf "step budget exhausted"
  | Nodes -> Format.pp_print_string ppf "node budget exhausted"
  | Deadline -> Format.pp_print_string ppf "deadline reached"
  | Cancelled -> Format.pp_print_string ppf "cancelled"
  | Crashed -> Format.pp_print_string ppf "crashed (state parked, resumable)"

let pp_exhaustion ppf e =
  Format.fprintf ppf "%a after %d steps, %d nodes, %.3f s, %d round%s"
    pp_reason e.reason e.steps e.nodes (elapsed_s e) e.rounds
    (if e.rounds = 1 then "" else "s");
  List.iter (fun n -> Format.fprintf ppf "; %s" n) e.notes;
  match e.counters with
  | [] -> ()
  | cs ->
      Format.fprintf ppf "; spent on: %s"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs))

let pp ppf = function
  | Implied -> Format.pp_print_string ppf "implied"
  | Refuted g ->
      Format.fprintf ppf "refuted (countermodel with %d nodes)"
        (Sgraph.Graph.node_count g)
  | Unknown e -> Format.fprintf ppf "unknown (%a)" pp_exhaustion e
