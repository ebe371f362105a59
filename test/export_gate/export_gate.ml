(* The export gate: every [val] declared in a [lib/**/*.mli] must be
   mentioned, as an identifier, in some [.ml]/[.mli] under lib/, bin/,
   bench/, test/ or examples/ other than its own module's two files.  Any
   mention counts (a comment, a qualified name, an unrelated value of
   the same name), so a module alias never raises a false alarm; an
   export the gate passes may still be dead.

   Usage: export_gate.exe ROOT.  Prints each unmentioned export and
   exits 1. *)

(* "lib/core/decide.mli", "val_name": exports kept on purpose *)
let allowed : (string * string) list = []

let roots = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let rec sources dir =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if name.[0] = '.' || name = "_build" then acc
      else if Sys.is_directory path then sources path @ acc
      else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
      then path :: acc
      else acc)
    []
    (try Sys.readdir dir with Sys_error _ -> [||])

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let idents text =
  let out = ref [] and start = ref (-1) in
  String.iteri
    (fun i c ->
      if is_ident_char c then (if !start < 0 then start := i)
      else if !start >= 0 then begin
        out := String.sub text !start (i - !start) :: !out;
        start := -1
      end)
    text;
  if !start >= 0 then
    out := String.sub text !start (String.length text - !start) :: !out;
  List.rev !out

let read path = In_channel.with_open_bin path In_channel.input_all

(* the value a line declares, when it starts with "val" (operators are
   skipped) *)
let val_name line =
  let line = String.trim line in
  if not (String.starts_with ~prefix:"val " line) then None
  else
    let rest = String.trim (String.sub line 4 (String.length line - 4)) in
    match idents rest with
    | name :: _ when String.starts_with ~prefix:name rest ->
        (match name.[0] with 'a' .. 'z' | '_' -> Some name | _ -> None)
    | _ -> None

let () =
  let root = Sys.argv.(1) in
  let files =
    List.concat_map (fun r -> sources (Filename.concat root r)) roots
  in
  let relative path =
    String.sub path (String.length root + 1)
      (String.length path - String.length root - 1)
  in
  (* identifier -> the files mentioning it *)
  let mentions = Hashtbl.create 4096 in
  List.iter
    (fun f ->
      List.iter
        (fun id ->
          match Hashtbl.find_opt mentions id with
          | Some (g :: _) when g = f -> ()
          | Some fs -> Hashtbl.replace mentions id (f :: fs)
          | None -> Hashtbl.replace mentions id [ f ])
        (idents (read f)))
    files;
  let unmentioned =
    List.concat_map
      (fun mli ->
        let rel = relative mli in
        if
          not
            (String.starts_with ~prefix:"lib/" rel
            && Filename.check_suffix mli ".mli")
        then []
        else
          let own = [ mli; Filename.chop_suffix mli ".mli" ^ ".ml" ] in
          List.filter_map
            (fun name ->
              let elsewhere =
                List.exists
                  (fun f -> not (List.mem f own))
                  (Option.value ~default:[] (Hashtbl.find_opt mentions name))
              in
              if elsewhere || List.mem (rel, name) allowed then None
              else Some (rel, name))
            (List.filter_map val_name
               (String.split_on_char '\n' (read mli))))
      (List.sort compare files)
  in
  List.iter
    (fun (rel, name) ->
      Printf.printf
        "%s: val %s is mentioned in no other source file; delete it, drop it \
         from the interface, or allowlist it in %s\n"
        rel name __FILE__)
    unmentioned;
  if unmentioned <> [] then exit 1
