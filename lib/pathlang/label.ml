(* [name] comes first, so polymorphic [compare] on labels orders them
   by name, as {!compare} does. *)
type t = { name : string; id : int }

(* Control characters (NUL to US, and DEL) are never part of a label:
   a stray form feed or NUL would otherwise make a label distinct from
   the one it looks like. *)
let valid_char = function
  | '.' | '(' | ')' | '[' | ']' | ':' | '>' | '<' | '-' | '=' | ',' | ' '
  | '\000' .. '\031' | '\127' ->
      false
  | _ -> true

(* Interning: one record per distinct name, with a dense id assigned on
   first use.  The id is what graph runs, the hash-consed path layer and
   the constraint store key on, so label comparison on the hot paths is
   an integer test instead of a string walk.  Ids are stable within a
   process, not across runs; nothing durable may depend on them.  Reads
   are locked too once parallel mode is armed: a concurrent
   [Hashtbl.add] can resize the table under a reader's feet. *)
let table : (string, t) Hashtbl.t = Hashtbl.create 64

let intern s =
  Intern_lock.with_lock (fun () ->
      match Hashtbl.find_opt table s with
      | Some k -> k
      | None ->
          let k = { name = s; id = Hashtbl.length table } in
          Hashtbl.add table s k;
          k)

let make s =
  if String.length s = 0 then invalid_arg "Label.make: empty label";
  for i = 0 to String.length s - 1 do
    let c = s.[i] in
    if not (valid_char c) then
      invalid_arg (Printf.sprintf "Label.make: forbidden character %C in %S" c s)
  done;
  intern s

let of_string = make
let to_string k = k.name
let id k = k.id
let interned () = Intern_lock.with_lock (fun () -> Hashtbl.length table)
let equal = ( == )
let compare a b = if a == b then 0 else String.compare a.name b.name
let hash k = k.id
let pp ppf k = Format.pp_print_string ppf k.name

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
