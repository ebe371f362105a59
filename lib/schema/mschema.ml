module Label = Pathlang.Label

type kind = M | M_plus

type t = {
  kind : kind;
  classes : (Mtype.cname * Mtype.t) list;
  dbtype : Mtype.t;
}

let class_declared classes c =
  List.exists (fun (c', _) -> Mtype.cname_name c' = Mtype.cname_name c) classes

let rec classes_mentioned = function
  | Mtype.Atomic _ -> []
  | Mtype.Class c -> [ c ]
  | Mtype.Set t -> classes_mentioned t
  | Mtype.Record fields -> List.concat_map (fun (_, t) -> classes_mentioned t) fields

let rec atomics_mentioned = function
  | Mtype.Atomic b -> [ Mtype.atomic_name b ]
  | Mtype.Class _ -> []
  | Mtype.Set t -> atomics_mentioned t
  | Mtype.Record fields ->
      List.concat_map (fun (_, t) -> atomics_mentioned t) fields

let m_ok_inner = function
  | Mtype.Atomic _ | Mtype.Class _ -> true
  | Mtype.Set _ | Mtype.Record _ -> false

let m_ok_top = function
  | Mtype.Atomic _ | Mtype.Class _ -> false (* nu(C), DBtype must be composite *)
  | Mtype.Set _ -> false
  | Mtype.Record fields -> List.for_all (fun (_, t) -> m_ok_inner t) fields

let rec has_set = function
  | Mtype.Atomic _ | Mtype.Class _ -> false
  | Mtype.Set _ -> true
  | Mtype.Record fields -> List.exists (fun (_, t) -> has_set t) fields

(* labels are functional on records: no record repeats a field label *)
let rec distinct_fields = function
  | Mtype.Atomic _ | Mtype.Class _ -> true
  | Mtype.Set t -> distinct_fields t
  | Mtype.Record fields ->
      let labels = List.map fst fields in
      List.length (List.sort_uniq Label.compare labels) = List.length labels
      && List.for_all (fun (_, t) -> distinct_fields t) fields

let composite = function
  | Mtype.Record _ | Mtype.Set _ -> true
  | Mtype.Atomic _ | Mtype.Class _ -> false

let make ~kind ~classes ~dbtype =
  let names = List.map (fun (c, _) -> Mtype.cname_name c) classes in
  if List.length names <> List.length (List.sort_uniq String.compare names) then
    Error "duplicate class names"
  else if not (List.for_all (fun (_, body) -> composite body) classes) then
    Error "nu(C) must be a record or set type"
  else if not (composite dbtype) then Error "DBtype must be a record or set type"
  else
    let all_bodies = dbtype :: List.map snd classes in
    let mentioned = List.concat_map classes_mentioned all_bodies in
    (* a name that is both would print alike for two sorts *)
    let both =
      List.find_opt
        (fun b -> List.mem b names)
        (List.concat_map atomics_mentioned all_bodies)
    in
    if not (List.for_all (fun c -> class_declared classes c) mentioned) then
      Error "undeclared class mentioned in a type"
    else if Option.is_some both then
      Error (Option.get both ^ " names both a class and an atomic type")
    else if not (List.for_all distinct_fields all_bodies) then
      Error "a record type repeats a field label"
    else if kind = M && List.exists has_set all_bodies then
      Error "model M does not allow set types"
    else if kind = M && not (List.for_all m_ok_top all_bodies) then
      Error "model M allows only flat records of atomic/class types"
    else Ok { kind; classes; dbtype }

let make_exn ~kind ~classes ~dbtype =
  match make ~kind ~classes ~dbtype with
  | Ok s -> s
  | Error e -> invalid_arg ("Mschema.make_exn: " ^ e)

let kind s = s.kind
let dbtype s = s.dbtype
let classes s = s.classes

let class_body s c =
  match
    List.find_opt
      (fun (c', _) -> Mtype.cname_name c' = Mtype.cname_name c)
      s.classes
  with
  | Some (_, body) -> body
  | None -> raise Not_found

let example_3_1 =
  let person = Mtype.cname "Person" and book = Mtype.cname "Book" in
  let str = Mtype.Atomic Mtype.string_ and int_t = Mtype.Atomic Mtype.int_ in
  make_exn ~kind:M_plus
    ~classes:
      [
        ( person,
          Mtype.record
            [
              ("name", str);
              ("SSN", str);
              ("age", Mtype.Set int_t);
              ("wrote", Mtype.Set (Mtype.Class book));
            ] );
        ( book,
          Mtype.record
            [
              ("title", str);
              ("ISBN", str);
              ("year", Mtype.Set int_t);
              ("ref", Mtype.Set (Mtype.Class book));
              ("author", Mtype.Set (Mtype.Class person));
            ] );
      ]
    ~dbtype:
      (Mtype.record
         [
           ("person", Mtype.Set (Mtype.Class person));
           ("book", Mtype.Set (Mtype.Class book));
         ])

let bib_m =
  let person = Mtype.cname "Person" and book = Mtype.cname "Book" in
  let str = Mtype.Atomic Mtype.string_ and int_t = Mtype.Atomic Mtype.int_ in
  make_exn ~kind:M
    ~classes:
      [
        ( person,
          Mtype.record
            [ ("name", str); ("SSN", str); ("wrote", Mtype.Class book) ] );
        ( book,
          Mtype.record
            [
              ("title", str);
              ("year", int_t);
              ("ref", Mtype.Class book);
              ("author", Mtype.Class person);
            ] );
      ]
    ~dbtype:
      (Mtype.record
         [ ("person", Mtype.Class person); ("book", Mtype.Class book) ])

let random_m ~rng ~classes:n ~fields ~atoms =
  let cname i = Mtype.cname (Printf.sprintf "C%d" i) in
  let atom i = Mtype.Atomic (Mtype.atomic (Printf.sprintf "b%d" i)) in
  let random_target () =
    let pick = Random.State.int rng (n + atoms) in
    if pick < n then Mtype.Class (cname pick) else atom (pick - n)
  in
  let classes =
    List.init n (fun i ->
        ( cname i,
          Mtype.record
            (List.init fields (fun j -> (Printf.sprintf "f%d" j, random_target ())))
        ))
  in
  let dbtype =
    Mtype.record
      (List.init n (fun i -> (Printf.sprintf "c%d" i, Mtype.Class (cname i))))
  in
  make_exn ~kind:M ~classes ~dbtype

let pp ppf s =
  Format.fprintf ppf "@[<v>schema (%s):@,"
    (match s.kind with M -> "M" | M_plus -> "M+");
  List.iter
    (fun (c, body) ->
      Format.fprintf ppf "  %s |-> %a@," (Mtype.cname_name c) Mtype.pp body)
    s.classes;
  Format.fprintf ppf "  DBtype = %a@]" Mtype.pp s.dbtype
