(* Hash-consed paths.

   A path value is a unique physical representative of its label
   sequence: construction goes through a weak hash-set keyed on the
   interned label ids, so two live paths with the same labels are the
   same object.  Equality and hashing are therefore O(1); the shortlex
   [compare] keeps its documented order (it is the reduction order of
   the Knuth-Bendix substrate) but short-circuits on physical equality
   and on the precomputed length.  The weak table lets unreferenced
   paths be collected, so transient words produced by the rewriting
   engines do not accumulate. *)

type t = {
  labels : Label.t list;
  len : int;
  hash : int;
  mutable id : int;  (* unique among live paths; set once at interning *)
}

module HC = Weak.Make (struct
  type nonrec t = t

  let equal a b =
    a.len = b.len
    && (try List.for_all2 Label.equal a.labels b.labels
        with Invalid_argument _ -> false)

  let hash a = a.hash
end)

let table = HC.create 1024
let next_id = ref 0

(* The hash fold reads label ids (field reads) outside the critical
   section; only the weak-set probe and the id assignment need the
   interning lock. *)
let make labels =
  let len, h =
    List.fold_left
      (fun (n, h) k -> (n + 1, (h * 31) + Label.id k))
      (0, 17) labels
  in
  let probe = { labels; len; hash = h land max_int; id = -1 } in
  Intern_lock.with_lock (fun () ->
      let r = HC.merge table probe in
      if r == probe then begin
        r.id <- !next_id;
        incr next_id
      end;
      r)

let empty = make []
let is_empty p = p.len = 0
let of_labels = make
let to_labels p = p.labels
let of_strings ss = make (List.map Label.make ss)
let singleton k = make [ k ]
let cons k p = make (k :: p.labels)
let snoc p k = make (p.labels @ [ k ])
let concat p q = if p.len = 0 then q else if q.len = 0 then p else make (p.labels @ q.labels)
let length p = p.len

let head p = match p.labels with [] -> None | k :: _ -> Some k

let uncons p =
  match p.labels with [] -> None | k :: rest -> Some (k, make rest)

let rec last_labels = function
  | [] -> None
  | [ k ] -> Some k
  | _ :: p -> last_labels p

let last p = last_labels p.labels

let split_last p =
  let rec go acc = function
    | [] -> None
    | [ k ] -> Some (make (List.rev acc), k)
    | k :: rest -> go (k :: acc) rest
  in
  go [] p.labels

let is_prefix p q =
  let rec go p q =
    match (p, q) with
    | [], _ -> true
    | _, [] -> false
    | a :: p', b :: q' -> Label.equal a b && go p' q'
  in
  p.len <= q.len && go p.labels q.labels

let strip_prefix ~prefix q =
  let rec go p q =
    match (p, q) with
    | [], rest -> Some (make rest)
    | _, [] -> None
    | a :: p', b :: q' -> if Label.equal a b then go p' q' else None
  in
  if prefix.len > q.len then None else go prefix.labels q.labels

let prefixes p =
  let rec go acc rev_cur = function
    | [] -> List.rev acc
    | k :: rest -> go (make (List.rev (k :: rev_cur)) :: acc) (k :: rev_cur) rest
  in
  go [ empty ] [] p.labels

let rev p = make (List.rev p.labels)

let labels_used p =
  List.fold_left (fun s k -> Label.Set.add k s) Label.Set.empty p.labels

(* Hash-consing invariant: two live paths are structurally equal iff
   they are the same object (the property test cross-checks this
   against the label-list comparison). *)
let equal p q = p == q

let compare_lex p q = List.compare Label.compare p.labels q.labels

let compare p q =
  if p == q then 0
  else
    let c = Int.compare p.len q.len in
    if c <> 0 then c else compare_lex p q

let hash p = p.hash
let id p = p.id

let to_string p =
  match p.labels with
  | [] -> "eps"
  | ls -> String.concat "." (List.map Label.to_string ls)

let pp ppf p = Format.pp_print_string ppf (to_string p)

let of_string s =
  let s = String.trim s in
  if s = "" || s = "eps" then empty
  else make (List.map Label.make (String.split_on_char '.' s))

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
