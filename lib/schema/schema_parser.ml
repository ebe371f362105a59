(* Hand-rolled recursive descent over a cursor, mirroring Xmlrep.Xml. *)

module Span = Pathlang.Span
module Pparser = Pathlang.Parser

type error = Pparser.error

type spans = {
  class_spans : (string * Span.t) list;
  db_span : Span.t option;
}

type cursor = { src : string; mutable pos : int }

exception Err of error

let error_at src pos token reason =
  let line, col = Span.of_offset src pos in
  { Pparser.line; col; token; reason }

let fail_at cur pos token reason = raise (Err (error_at cur.src pos token reason))

let peek cur =
  if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

(* failure at the cursor: the offending token is the next character *)
let fail cur msg =
  let token = match peek cur with Some c -> String.make 1 c | None -> "" in
  fail_at cur cur.pos token msg

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance cur;
        go ()
    | Some '#' ->
        (* comment to end of line *)
        let rec eat () =
          match peek cur with
          | Some '\n' | None -> ()
          | Some _ ->
              advance cur;
              eat ()
        in
        eat ();
        go ()
    | _ -> ()
  in
  go ()

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* an identifier together with its start offset *)
let ident_at cur =
  skip_ws cur;
  let start = cur.pos in
  let rec go () =
    match peek cur with
    | Some c when is_ident_char c ->
        advance cur;
        go ()
    | _ -> ()
  in
  go ();
  if cur.pos = start then fail cur "expected an identifier";
  (String.sub cur.src start (cur.pos - start), start)

let ident cur = fst (ident_at cur)

(* idents never span lines, so the span is one line wide *)
let span_of_token cur start text =
  let line, col = Span.of_offset cur.src start in
  Span.v ~line ~start_col:col ~end_col:(col + String.length text)

let expect cur c =
  skip_ws cur;
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected %C" c)

let accept cur c =
  skip_ws cur;
  match peek cur with
  | Some c' when c' = c ->
      advance cur;
      true
  | _ -> false

(* type expressions; class-ness resolved afterwards *)
type raw = Rname of string | Rset of raw | Rrecord of (string * raw) list

let rec parse_type cur =
  skip_ws cur;
  match peek cur with
  | Some '{' ->
      advance cur;
      let t = parse_type cur in
      expect cur '}';
      Rset t
  | Some '[' ->
      advance cur;
      let rec fields acc =
        let l = ident cur in
        expect cur ':';
        let t = parse_type cur in
        let acc = (l, t) :: acc in
        if accept cur ';' then fields acc
        else begin
          expect cur ']';
          Rrecord (List.rev acc)
        end
      in
      if accept cur ']' then Rrecord [] else fields []
  | _ -> Rname (ident cur)

let rec resolve class_names = function
  | Rname n ->
      if List.mem n class_names then Mtype.Class (Mtype.cname n)
      else Mtype.Atomic (Mtype.atomic n)
  | Rset t -> Mtype.Set (resolve class_names t)
  | Rrecord fields ->
      Mtype.Record
        (List.map
           (fun (l, t) -> (Pathlang.Label.make l, resolve class_names t))
           fields)

(* schema-level validation errors from [Mschema.make] carry no source
   position; anchor them at the start of the document *)
let no_position reason = { Pparser.line = 1; col = 1; token = ""; reason }

let of_string_spanned src =
  let cur = { src; pos = 0 } in
  try
    let kind = ref None in
    let classes = ref [] in
    let db = ref None in
    let class_spans = ref [] in
    let db_span = ref None in
    let rec loop () =
      skip_ws cur;
      if peek cur = None then ()
      else begin
        let kw, kw_start = ident_at cur in
        (match kw with
        | "kind" -> (
            let k, k_start = ident_at cur in
            match k with
            | "M" ->
                (* the ident parser stops at '+', so "M+" arrives as "M"
                   followed by a '+' character *)
                if accept cur '+' then kind := Some Mschema.M_plus
                else kind := Some Mschema.M
            | "Mplus" | "M_plus" -> kind := Some Mschema.M_plus
            | k -> fail_at cur k_start k "unknown kind")
        | "class" ->
            let name, name_start = ident_at cur in
            class_spans :=
              (name, span_of_token cur name_start name) :: !class_spans;
            expect cur '=';
            let t = parse_type cur in
            classes := (name, t) :: !classes
        | "db" ->
            db_span := Some (span_of_token cur kw_start kw);
            expect cur '=';
            db := Some (parse_type cur)
        | other -> fail_at cur kw_start other "unknown directive");
        loop ()
      end
    in
    loop ();
    match !db with
    | None -> Error (no_position "missing 'db = ...' line")
    | Some raw_db -> (
        let class_names = List.map fst !classes in
        let resolved_classes =
          List.rev_map
            (fun (n, t) -> (Mtype.cname n, resolve class_names t))
            !classes
        in
        let dbtype = resolve class_names raw_db in
        let try_kind k =
          Mschema.make ~kind:k ~classes:resolved_classes ~dbtype
        in
        let spans =
          { class_spans = List.rev !class_spans; db_span = !db_span }
        in
        let finish = function
          | Ok s -> Ok (s, spans)
          | Error m -> Error (no_position m)
        in
        match !kind with
        | Some k -> finish (try_kind k)
        | None -> (
            match try_kind Mschema.M with
            | Ok s -> Ok (s, spans)
            | Error _ -> finish (try_kind Mschema.M_plus)))
  with Err e -> Error e

let of_string src =
  match of_string_spanned src with
  | Ok (s, _) -> Ok s
  | Error e -> Error (Pparser.error_to_string e)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> of_string src
  | exception Sys_error m -> Error (Pparser.error_to_string (no_position m))

let rec type_to_string = function
  | Mtype.Atomic b -> Mtype.atomic_name b
  | Mtype.Class c -> Mtype.cname_name c
  | Mtype.Set t -> "{" ^ type_to_string t ^ "}"
  | Mtype.Record fields ->
      "[ "
      ^ String.concat "; "
          (List.map
             (fun (l, t) ->
               Pathlang.Label.to_string l ^ ": " ^ type_to_string t)
             fields)
      ^ " ]"

let to_string schema =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (match Mschema.kind schema with
    | Mschema.M -> "kind M\n"
    | Mschema.M_plus -> "kind M+\n");
  List.iter
    (fun (c, body) ->
      Buffer.add_string buf
        (Printf.sprintf "class %s = %s\n" (Mtype.cname_name c)
           (type_to_string body)))
    (Mschema.classes schema);
  Buffer.add_string buf
    (Printf.sprintf "db = %s\n" (type_to_string (Mschema.dbtype schema)));
  Buffer.contents buf
