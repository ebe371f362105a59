module Label = Pathlang.Label
module Path = Pathlang.Path
module Constr = Pathlang.Constr

type spec = {
  schema : Mschema.t;
  extent_constraints : Constr.t list;
  inverse_constraints : Constr.t list;
}

(* --- lexer ------------------------------------------------------------- *)

type token = Ident of string | Punct of string

let tok_text = function Ident s -> s | Punct p -> p

(* each token is paired with its start offset in the source, so parse
   errors can report a line/column position *)
let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_'
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if is_ident c then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do
        incr i
      done;
      toks := (Ident (String.sub src start (!i - start)), start) :: !toks
    end
    else if c = ':' && !i + 1 < n && src.[!i + 1] = ':' then begin
      toks := (Punct "::", !i) :: !toks;
      i := !i + 2
    end
    else begin
      toks := (Punct (String.make 1 c), !i) :: !toks;
      incr i
    end
  done;
  List.rev !toks

(* --- parser ------------------------------------------------------------- *)

exception Err of string

exception Err_at of int * string * string
(** (offset, offending token, reason) *)

type member =
  | Attr of string * string  (** type name, field *)
  | Rel of {
      set : bool;
      target : string;
      field : string;
      inverse : (string * string) option;
    }

type iface = { name : string; extent : string option; members : member list }

let parse_interfaces ~eof toks =
  let toks = ref toks in
  let peek () = match !toks with (t, _) :: _ -> Some t | [] -> None in
  let next_at () =
    match !toks with
    | t :: rest ->
        toks := rest;
        t
    | [] -> raise (Err_at (eof, "", "unexpected end of input"))
  in
  let next () = fst (next_at ()) in
  let expect_punct p =
    match next_at () with
    | Punct p', _ when p' = p -> ()
    | t, pos -> raise (Err_at (pos, tok_text t, Printf.sprintf "expected '%s'" p))
  in
  let expect_ident () =
    match next_at () with
    | Ident s, _ -> s
    | Punct p, pos -> raise (Err_at (pos, p, "expected an identifier"))
  in
  let parse_member () =
    match next_at () with
    | Ident "attribute", _ ->
        let ty = expect_ident () in
        let field = expect_ident () in
        expect_punct ";";
        Attr (ty, field)
    | Ident "relationship", _ ->
        let set, target =
          match next_at () with
          | Ident "set", _ ->
              expect_punct "<";
              let t = expect_ident () in
              expect_punct ">";
              (true, t)
          | Ident t, _ -> (false, t)
          | Punct p, pos ->
              raise (Err_at (pos, p, "unexpected punctuation after relationship"))
        in
        let field = expect_ident () in
        let inverse =
          match peek () with
          | Some (Ident "inverse") ->
              ignore (next ());
              let cls = expect_ident () in
              expect_punct "::";
              let g = expect_ident () in
              Some (cls, g)
          | _ -> None
        in
        expect_punct ";";
        Rel { set; target; field; inverse }
    | Ident other, pos -> raise (Err_at (pos, other, "unknown member kind"))
    | Punct p, pos -> raise (Err_at (pos, p, "unexpected punctuation"))
  in
  let parse_iface () =
    (match next_at () with
    | Ident "interface", _ -> ()
    | t, pos -> raise (Err_at (pos, tok_text t, "expected 'interface'")));
    let name = expect_ident () in
    let extent =
      match peek () with
      | Some (Punct "(") ->
          ignore (next ());
          (match next_at () with
          | Ident "extent", _ -> ()
          | t, pos -> raise (Err_at (pos, tok_text t, "expected 'extent'")));
          let e = expect_ident () in
          expect_punct ")";
          Some e
      | _ -> None
    in
    expect_punct "{";
    let members = ref [] in
    let rec members_loop () =
      match peek () with
      | Some (Punct "}") ->
          ignore (next ());
          (* optional trailing ; *)
          (match peek () with
          | Some (Punct ";") -> ignore (next ())
          | _ -> ())
      | Some _ ->
          members := parse_member () :: !members;
          members_loop ()
      | None -> raise (Err_at (eof, "", "unterminated interface"))
    in
    members_loop ();
    { name; extent; members = List.rev !members }
  in
  let rec loop acc =
    match peek () with
    | None -> List.rev acc
    | Some _ -> loop (parse_iface () :: acc)
  in
  loop []

(* --- semantics ------------------------------------------------------------ *)

let atomic_of_odl = function
  | "String" -> Mtype.string_
  | "Long" | "Int" | "Integer" -> Mtype.int_
  | other -> Mtype.atomic (String.lowercase_ascii other)

let build ifaces =
  if ifaces = [] then raise (Err "no interfaces");
  let declared n = List.exists (fun i -> i.name = n) ifaces in
  let extent_of n =
    List.find_map (fun i -> if i.name = n then i.extent else None) ifaces
  in
  (* classes *)
  let classes =
    List.map
      (fun i ->
        let fields =
          List.map
            (function
              | Attr (ty, f) -> (Label.make f, Mtype.Atomic (atomic_of_odl ty))
              | Rel { set; target; field; _ } ->
                  if not (declared target) then
                    raise (Err ("undeclared interface " ^ target));
                  let t = Mtype.Class (Mtype.cname target) in
                  (Label.make field, if set then Mtype.Set t else t))
            i.members
        in
        (Mtype.cname i.name, Mtype.Record fields))
      ifaces
  in
  let extents = List.filter_map (fun i -> Option.map (fun e -> (e, i.name)) i.extent) ifaces in
  if extents = [] then raise (Err "no interface declares an extent");
  let dbtype =
    Mtype.Record
      (List.map
         (fun (e, cls) -> (Label.make e, Mtype.Set (Mtype.Class (Mtype.cname cls))))
         extents)
  in
  let schema =
    match Mschema.make ~kind:Mschema.M_plus ~classes ~dbtype with
    | Ok s -> s
    | Error e -> raise (Err e)
  in
  let star = Schema_graph.star in
  let extent_path e = Path.of_labels [ Label.make e; star ] in
  let field_path field set =
    let p = Path.singleton (Label.make field) in
    if set then Path.snoc p star else p
  in
  let is_set_field cls g =
    List.exists
      (fun i ->
        i.name = cls
        && List.exists
             (function
               | Rel { set; field; _ } -> field = g && set
               | Attr _ -> false)
             i.members)
      ifaces
  in
  let extent_constraints =
    List.concat_map
      (fun i ->
        match i.extent with
        | None -> []
        | Some e ->
            List.filter_map
              (function
                | Rel { set; target; field; _ } -> (
                    match extent_of target with
                    | Some d ->
                        Some
                          (Constr.word
                             ~lhs:(Path.concat (extent_path e) (field_path field set))
                             ~rhs:(extent_path d))
                    | None -> None)
                | Attr _ -> None)
              i.members)
      ifaces
  in
  let inverse_constraints =
    List.concat_map
      (fun i ->
        match i.extent with
        | None -> []
        | Some e ->
            List.filter_map
              (function
                | Rel { set; field; inverse = Some (cls, g); _ } ->
                    Some
                      (Constr.backward ~prefix:(extent_path e)
                         ~lhs:(field_path field set)
                         ~rhs:(field_path g (is_set_field cls g)))
                | Rel _ | Attr _ -> None)
              i.members)
      ifaces
  in
  { schema; extent_constraints; inverse_constraints }

let parse src =
  match build (parse_interfaces ~eof:(String.length src) (tokenize src)) with
  | spec -> Ok spec
  | exception Err reason ->
      Error { Pathlang.Parser.line = 0; col = 0; token = ""; reason }
  | exception Err_at (pos, token, reason) ->
      let line, col = Pathlang.Span.of_offset src pos in
      Error { Pathlang.Parser.line; col; token; reason }

(* --- rendering --------------------------------------------------------------- *)

let odl_type_name b =
  match Mtype.atomic_name b with
  | "string" -> "String"
  | "int" -> "Long"
  | other -> String.capitalize_ascii other

let render spec =
  let buf = Buffer.create 256 in
  let dbfields =
    match Mschema.dbtype spec.schema with
    | Mtype.Record fs -> fs
    | _ -> []
  in
  let extent_of cls =
    List.find_map
      (fun (l, t) ->
        match t with
        | Mtype.Set (Mtype.Class c) when Mtype.cname_name c = cls ->
            Some (Label.to_string l)
        | _ -> None)
      dbfields
  in
  let star = Schema_graph.star in
  let inverse_for cls field set =
    (* find a backward constraint with prefix <extent cls>.star and lhs
       field (with star when set-valued) *)
    match extent_of cls with
    | None -> None
    | Some e ->
        let lhs = if set then Path.of_labels [ Label.make field; star ] else Path.singleton (Label.make field) in
        List.find_map
          (fun c ->
            if
              Path.equal (Constr.prefix c) (Path.of_labels [ Label.make e; star ])
              && Path.equal (Constr.lhs c) lhs
            then
              match Path.to_labels (Constr.rhs c) with
              | g :: _ -> Some (Label.to_string g)
              | [] -> None
            else None)
          spec.inverse_constraints
  in
  List.iter
    (fun (c, body) ->
      let cls = Mtype.cname_name c in
      Buffer.add_string buf (Printf.sprintf "interface %s" cls);
      (match extent_of cls with
      | Some e -> Buffer.add_string buf (Printf.sprintf " (extent %s)" e)
      | None -> ());
      Buffer.add_string buf " {\n";
      (match body with
      | Mtype.Record fields ->
          List.iter
            (fun (l, t) ->
              let f = Label.to_string l in
              match t with
              | Mtype.Atomic b ->
                  Buffer.add_string buf
                    (Printf.sprintf "  attribute %s %s;\n" (odl_type_name b) f)
              | Mtype.Class d ->
                  let inv =
                    match inverse_for cls f false with
                    | Some g ->
                        Printf.sprintf " inverse %s::%s" (Mtype.cname_name d) g
                    | None -> ""
                  in
                  Buffer.add_string buf
                    (Printf.sprintf "  relationship %s %s%s;\n"
                       (Mtype.cname_name d) f inv)
              | Mtype.Set (Mtype.Class d) ->
                  let inv =
                    match inverse_for cls f true with
                    | Some g ->
                        Printf.sprintf " inverse %s::%s" (Mtype.cname_name d) g
                    | None -> ""
                  in
                  Buffer.add_string buf
                    (Printf.sprintf "  relationship set<%s> %s%s;\n"
                       (Mtype.cname_name d) f inv)
              | _ ->
                  Buffer.add_string buf
                    (Printf.sprintf "  // unrepresentable field %s\n" f))
            fields
      | _ -> ());
      Buffer.add_string buf "};\n")
    (Mschema.classes spec.schema);
  Buffer.contents buf

let paper_example =
  {|interface Book (extent book) {
  attribute String title;
  relationship set<Person> author inverse Person::wrote;
};
interface Person (extent person) {
  attribute String name;
  relationship set<Book> wrote inverse Book::author;
};|}
