module Label = Pathlang.Label

type atomic = string

let atomic s =
  if s = "" then invalid_arg "Mtype.atomic: empty name";
  s

let atomic_name s = s
let int_ = "int"
let string_ = "string"

type cname = string

let cname s =
  if s = "" then invalid_arg "Mtype.cname: empty name";
  s

let cname_name s = s

type t =
  | Atomic of atomic
  | Class of cname
  | Set of t
  | Record of (Label.t * t) list

let record fields =
  let labels = List.map fst fields in
  let distinct =
    List.length labels = List.length (List.sort_uniq String.compare labels)
  in
  if not distinct then invalid_arg "Mtype.record: duplicate field label";
  Record (List.map (fun (l, tau) -> (Label.make l, tau)) fields)

let sort_fields fields =
  List.sort (fun (l1, _) (l2, _) -> Label.compare l1 l2) fields

let rec canon = function
  | (Atomic _ | Class _) as t -> t
  | Set t -> Set (canon t)
  | Record fields ->
      Record (sort_fields (List.map (fun (l, t) -> (l, canon t)) fields))

let equal a b = canon a = canon b
let compare a b = Stdlib.compare (canon a) (canon b)

let rec pp ppf = function
  | Atomic b -> Format.pp_print_string ppf b
  | Class c -> Format.pp_print_string ppf c
  | Set t -> Format.fprintf ppf "{%a}" pp t
  | Record fields ->
      Format.fprintf ppf "[%s]"
        (String.concat "; "
           (List.map
              (fun (l, t) ->
                Format.asprintf "%a : %a" Label.pp l pp t)
              fields))

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set_of = Set.Make (Ord)
