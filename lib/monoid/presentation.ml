module Label = Pathlang.Label
module Path = Pathlang.Path

type t = { gens : Label.t list; relations : (Path.t * Path.t) list }

let valid_word_in gens w =
  Label.Set.subset (Path.labels_used w)
    (List.fold_left (fun s g -> Label.Set.add g s) Label.Set.empty gens)

let make ~gens ~relations =
  let distinct =
    List.length gens = Label.Set.cardinal (List.fold_left (fun s g -> Label.Set.add g s) Label.Set.empty gens)
  in
  if not distinct then Error "duplicate generators"
  else if
    not (List.for_all (fun (u, v) -> valid_word_in gens u && valid_word_in gens v) relations)
  then Error "relation uses a symbol that is not a generator"
  else Ok { gens; relations }

let make_exn ~gens ~relations =
  match make ~gens ~relations with
  | Ok p -> p
  | Error e -> invalid_arg ("Presentation.make_exn: " ^ e)

let of_strings ~gens ~relations =
  make_exn
    ~gens:(List.map Label.make gens)
    ~relations:(List.map (fun (u, v) -> (Path.of_string u, Path.of_string v)) relations)

let gens p = p.gens
let relations p = p.relations

let parse src =
  let lines = String.split_on_char '\n' src in
  let rec go n gens relations = function
    | [] -> (
        match make ~gens ~relations:(List.rev relations) with
        | Ok p -> Ok p
        | Error e -> Error e)
    | line :: rest -> (
        let t = String.trim line in
        if t = "" || t.[0] = '#' then go (n + 1) gens relations rest
        else if String.length t > 5 && String.sub t 0 5 = "gens " then
          let names =
            String.split_on_char ' ' (String.sub t 5 (String.length t - 5))
            |> List.filter (fun s -> s <> "")
          in
          match List.map Label.make names with
          | gens' -> go (n + 1) (gens @ gens') relations rest
          | exception Invalid_argument m ->
              Error (Printf.sprintf "line %d: %s" n m)
        else
          match String.index_opt t '=' with
          | None -> Error (Printf.sprintf "line %d: expected 'u = v'" n)
          | Some i -> (
              let u = String.trim (String.sub t 0 i) in
              let v =
                String.trim (String.sub t (i + 1) (String.length t - i - 1))
              in
              match (Path.of_string u, Path.of_string v) with
              | u, v -> go (n + 1) gens ((u, v) :: relations) rest
              | exception Invalid_argument m ->
                  Error (Printf.sprintf "line %d: %s" n m)))
  in
  go 1 [] [] lines

let print p =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    ("gens " ^ String.concat " " (List.map Label.to_string p.gens) ^ "\n");
  List.iter
    (fun (u, v) ->
      Buffer.add_string buf
        (Path.to_string u ^ " = " ^ Path.to_string v ^ "\n"))
    p.relations;
  Buffer.contents buf

let pp ppf p =
  Format.fprintf ppf "@[<v>generators: %s@,"
    (String.concat ", " (List.map Label.to_string p.gens));
  List.iter
    (fun (u, v) -> Format.fprintf ppf "  %a = %a@," Path.pp u Path.pp v)
    p.relations;
  Format.fprintf ppf "@]"
