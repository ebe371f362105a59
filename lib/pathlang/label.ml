type t = string

let valid_char = function
  | '.' | '(' | ')' | '[' | ']' | ':' | '>' | '<' | '-' | '=' | ','
  | ' ' | '\t' | '\n' | '\r' ->
      false
  | _ -> true

let make s =
  if String.length s = 0 then invalid_arg "Label.make: empty label";
  for i = 0 to String.length s - 1 do
    let c = s.[i] in
    if not (valid_char c) then
      invalid_arg (Printf.sprintf "Label.make: forbidden character %C in %S" c s)
  done;
  s

let of_string = make
let to_string s = s
let equal = String.equal
let compare = String.compare
let hash = Hashtbl.hash
let pp = Format.pp_print_string

(* Interning: a dense integer per distinct label, assigned on first
   use.  The id is what the hash-consed path layer and the constraint
   store key their tries on, so label comparison on the hot paths is an
   integer test instead of a string walk.  Ids are stable within a
   process, not across runs; nothing durable may depend on them. *)
let intern : (string, int) Hashtbl.t = Hashtbl.create 64
let next_id = ref 0

(* Reads must be locked too once parallel mode is armed: a concurrent
   [Hashtbl.add] can resize the table under a reader's feet. *)
let id s =
  Intern_lock.with_lock (fun () ->
      match Hashtbl.find_opt intern s with
      | Some i -> i
      | None ->
          let i = !next_id in
          incr next_id;
          Hashtbl.add intern s i;
          i)

module Set = Set.Make (String)
module Map = Map.Make (String)
