(* A small, strict TOML subset: [section] headers, key = value lines,
   full-line and trailing comments.  Three sections are understood:

     [severity]   PC300 = "info" | "ignore" | ...   (per-code override)
     [passes]     redundancy = false                (pass selection)
     [lint]       max-warnings = 50
                  explain = true
                  cache = ".pathctl-cache"

   Anything else is a parse error (PC003): a tool that silently ignores
   a typoed key is worse than one that rejects it. *)

type t = {
  severity : (string * Diagnostic.severity option) list;
      (* [None] means the code is ignored entirely *)
  passes : (string * bool) list;
  max_warnings : int option;
  explain : bool;
  cache_dir : string option;
}

let default =
  {
    severity = [];
    passes = [];
    max_warnings = None;
    explain = false;
    cache_dir = None;
  }

let pass_names =
  [
    "classify";
    "typeflow";
    "vacuity";
    "redundancy";
    "inconsistency";
    "hygiene";
    "interact";
    "querycheck";
  ]

let pass_enabled t name =
  match List.assoc_opt name t.passes with Some b -> b | None -> true

(* input errors must never be demoted or hidden: a file that does not
   parse invalidates every other finding *)
let protected_codes = [ "PC001"; "PC002"; "PC003" ]

(* [severity] keys are exact codes or whole families ([PC7xx]); a family
   key must actually match some rule, and may not cover a protected
   code (which rules out [PC0xx] wholesale). *)
let family_key key =
  String.length key = 5
  && String.sub key 3 2 = "xx"
  && List.exists
       (fun (c, _, _) -> Suppress.code_matches key c)
       Diagnostic.rules
  && not (List.exists (Suppress.code_matches key) protected_codes)

let severity_override t code =
  match List.assoc_opt code t.severity with
  | Some _ as exact -> exact
  | None ->
      List.find_map
        (fun (pat, sev) ->
          if pat <> code && Suppress.code_matches pat code then Some sev
          else None)
        t.severity

let severity_of_name = function
  | "error" -> Some (Some Diagnostic.Error)
  | "warning" -> Some (Some Diagnostic.Warning)
  | "info" -> Some (Some Diagnostic.Info)
  | "hint" -> Some (Some Diagnostic.Hint)
  | "ignore" -> Some None
  | _ -> None

let strip_comment line =
  (* a '#' outside quotes starts a comment *)
  let n = String.length line in
  let buf = Buffer.create n in
  let rec go i in_quote =
    if i >= n then Buffer.contents buf
    else
      match line.[i] with
      | '#' when not in_quote -> Buffer.contents buf
      | '"' ->
          Buffer.add_char buf '"';
          go (i + 1) (not in_quote)
      | c ->
          Buffer.add_char buf c;
          go (i + 1) in_quote
  in
  go 0 false

let unquote s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then
    Some (String.sub s 1 (n - 2))
  else if n > 0 && (s.[0] = '"' || s.[n - 1] = '"') then None
  else Some s

let parse src =
  let lines = String.split_on_char '\n' src in
  let err n fmt =
    Printf.ksprintf
      (fun reason ->
        Error { Pathlang.Parser.line = n; col = 1; token = ""; reason })
      fmt
  in
  let rec go n section acc = function
    | [] -> Ok acc
    | line :: rest -> (
        let line = String.trim (strip_comment line) in
        if line = "" then go (n + 1) section acc rest
        else if line.[0] = '[' then
          if String.length line >= 2 && line.[String.length line - 1] = ']'
          then
            let sec = String.sub line 1 (String.length line - 2) in
            match sec with
            | "severity" | "passes" | "lint" -> go (n + 1) sec acc rest
            | _ -> err n "unknown section [%s]" sec
          else err n "malformed section header %S" line
        else
          match String.index_opt line '=' with
          | None -> err n "expected 'key = value', got %S" line
          | Some eq -> (
              let key = String.trim (String.sub line 0 eq) in
              let raw =
                String.trim
                  (String.sub line (eq + 1) (String.length line - eq - 1))
              in
              match unquote raw with
              | None -> err n "unterminated string %S" raw
              | Some value -> (
                  match section with
                  | "severity" -> (
                      if
                        (not
                           (List.exists
                              (fun (c, _, _) -> c = key)
                              Diagnostic.rules))
                        && not (family_key key)
                      then err n "unknown diagnostic code or family %S" key
                      else if List.mem key protected_codes then
                        err n "severity of %s cannot be overridden" key
                      else
                        match severity_of_name value with
                        | Some sev ->
                            go (n + 1) section
                              { acc with severity = acc.severity @ [ (key, sev) ] }
                              rest
                        | None ->
                            err n
                              "bad severity %S (want error, warning, info, \
                               hint, or ignore)"
                              value)
                  | "passes" -> (
                      if not (List.mem key pass_names) then
                        err n "unknown pass %S (known: %s)" key
                          (String.concat ", " pass_names)
                      else
                        match value with
                        | "true" ->
                            go (n + 1) section
                              { acc with passes = acc.passes @ [ (key, true) ] }
                              rest
                        | "false" ->
                            go (n + 1) section
                              { acc with passes = acc.passes @ [ (key, false) ] }
                              rest
                        | _ -> err n "bad boolean %S for pass %s" value key)
                  | "lint" -> (
                      match key with
                      | "max-warnings" -> (
                          match int_of_string_opt value with
                          | Some v when v >= 0 ->
                              go (n + 1) section
                                { acc with max_warnings = Some v }
                                rest
                          | _ ->
                              err n "bad max-warnings %S (want an integer >= 0)"
                                value)
                      | "explain" -> (
                          match value with
                          | "true" -> go (n + 1) section { acc with explain = true } rest
                          | "false" -> go (n + 1) section { acc with explain = false } rest
                          | _ -> err n "bad boolean %S for explain" value)
                      | "cache" ->
                          go (n + 1) section
                            { acc with cache_dir = Some value }
                            rest
                      | _ -> err n "unknown key %S in [lint]" key)
                  | _ ->
                      err n "key %S outside of a [severity]/[passes]/[lint] \
                             section"
                        key)))
  in
  go 1 "" default lines
