module Path = Pathlang.Path
module Label = Pathlang.Label

type word = Path.t

type rule = { lhs : word; rhs : word }

let orient (u, v) =
  match Path.compare u v with
  | 0 -> None
  | c when c > 0 -> Some { lhs = u; rhs = v }
  | _ -> Some { lhs = v; rhs = u }

let factor_at l w =
  let l = Path.to_labels l and w = Path.to_labels w in
  let ll = List.length l and lw = List.length w in
  let arr = Array.of_list w and larr = Array.of_list l in
  let matches i =
    let rec go j = j >= ll || (Label.equal arr.(i + j) larr.(j) && go (j + 1)) in
    go 0
  in
  let rec scan i = if i + ll > lw then None else if matches i then Some i else scan (i + 1) in
  scan 0

let split_at w i =
  let rec go front rest i =
    if i = 0 then (List.rev front, rest)
    else
      match rest with
      | [] -> invalid_arg "split_at"
      | x :: rest -> go (x :: front) rest (i - 1)
  in
  go [] w i

let apply_at r w i =
  let labels = Path.to_labels w in
  let front, rest = split_at labels i in
  let _, tail = split_at rest (Path.length r.lhs) in
  Path.of_labels (front @ Path.to_labels r.rhs @ tail)

let rewrite_once rules w =
  let best =
    List.fold_left
      (fun acc r ->
        match factor_at r.lhs w with
        | None -> acc
        | Some i -> (
            match acc with
            | Some (j, _) when j <= i -> acc
            | _ -> Some (i, r)))
      None rules
  in
  Option.map (fun (i, r) -> apply_at r w i) best

let normalize rules w =
  List.iter
    (fun r ->
      if Path.compare r.lhs r.rhs <= 0 then
        invalid_arg "Srs.normalize: rule does not decrease shortlex")
    rules;
  let rec go w = match rewrite_once rules w with None -> w | Some w' -> go w' in
  go w

let joinable rules u v = Path.equal (normalize rules u) (normalize rules v)

(* Critical pairs of r1 = (l1 -> r1') and r2 = (l2 -> r2'):
   - overlap: l1 = x . o, l2 = o . y with o non-empty and x, y not both
     empty covered below; superposition x.o.y reduces to r1'.y and x.r2'.
   - containment: l1 = x . l2 . y; superposition l1 reduces to r1' and
     x . r2' . y. *)
let pairs_of r1 r2 =
  let l1 = Path.to_labels r1.lhs and l2 = Path.to_labels r2.lhs in
  let n1 = List.length l1 in
  let acc = ref [] in
  (* proper overlaps: non-empty suffix of l1 = non-empty prefix of l2,
     shorter than both *)
  for k = 1 to min n1 (List.length l2) - 0 do
    if k < List.length l2 || k < n1 then begin
      let x, o = split_at l1 (n1 - k) in
      if Path.is_prefix (Path.of_labels o) (Path.of_labels l2) then begin
        let _, y = split_at l2 k in
        let left = Path.of_labels (Path.to_labels r1.rhs @ y) in
        let right = Path.of_labels (x @ Path.to_labels r2.rhs) in
        acc := (left, right) :: !acc
      end
    end
  done;
  (* containments: l2 occurs inside l1 *)
  if List.length l2 <= n1 then begin
    let rec positions i =
      if i + List.length l2 > n1 then []
      else
        let _, rest = split_at l1 i in
        let seg, _ = split_at rest (List.length l2) in
        if Path.equal (Path.of_labels seg) (Path.of_labels l2) then i :: positions (i + 1)
        else positions (i + 1)
    in
    List.iter
      (fun i ->
        let x, rest = split_at l1 i in
        let _, y = split_at rest (List.length l2) in
        let left = r1.rhs in
        let right = Path.of_labels (x @ Path.to_labels r2.rhs @ y) in
        acc := (left, right) :: !acc)
      (positions 0)
  end;
  !acc

let critical_pairs rules =
  List.concat_map
    (fun r1 -> List.concat_map (fun r2 -> pairs_of r1 r2) rules)
    rules

let is_locally_confluent rules =
  List.for_all (fun (u, v) -> joinable rules u v) (critical_pairs rules)

