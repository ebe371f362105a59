(* Safe textual autofixes for a subset of hygiene findings.

   Only theory-preserving edits are applied automatically:
   - PC500 (duplicate) and PC505 (prefix-subsumed): the constraint is
     entailed by the rest of Sigma syntactically, so deleting its line
     cannot change the constraint theory;
   - PC504 (trivially true): a tautology, deletable for the same reason;
   - PC503 (eps-conclusion EGD): removing an equality-generating
     constraint WOULD change the theory, so the fix comments the line
     out with a marker instead — the edit is visible and reversible.

   All fixes from one lint run are planned against the original line
   numbers and applied in a single pass, so they cannot interfere.
   Deleting removes exactly the lines of entailed/trivial constraints
   and commenting produces comment lines, neither of which can create a
   new fixable finding: the pipeline is idempotent (fix; re-lint; fix
   again is byte-identical), which the test suite asserts. *)

type action = Delete | Comment_out

type fix = { line : int; action : action; code : string }

let fixable_codes = [ "PC500"; "PC503"; "PC504"; "PC505" ]

let plan ~sigma_file diags =
  let raw =
    List.filter_map
      (fun (d : Diagnostic.t) ->
        match (d.Diagnostic.code, d.Diagnostic.span) with
        | (("PC500" | "PC504" | "PC505") as code), Some s
          when d.Diagnostic.file = sigma_file ->
            Some { line = s.Pathlang.Span.line; action = Delete; code }
        | "PC503", Some s when d.Diagnostic.file = sigma_file ->
            Some
              { line = s.Pathlang.Span.line; action = Comment_out; code = "PC503" }
        | _ -> None)
      diags
  in
  (* one fix per line; Delete wins over Comment_out *)
  List.fold_left
    (fun acc f ->
      match List.find_opt (fun g -> g.line = f.line) acc with
      | None -> f :: acc
      | Some g when g.action = Comment_out && f.action = Delete ->
          f :: List.filter (fun h -> h.line <> f.line) acc
      | Some _ -> acc)
    [] raw
  |> List.sort (fun a b -> compare a.line b.line)

let apply ~src fixes =
  let lines = String.split_on_char '\n' src in
  let fixed =
    List.concat
      (List.mapi
         (fun i line ->
           let n = i + 1 in
           match List.find_opt (fun f -> f.line = n) fixes with
           | Some { action = Delete; _ } -> []
           | Some { action = Comment_out; code; _ } ->
               [ Printf.sprintf "# pathctl-fix(%s) disabled: %s" code line ]
           | None -> [ line ])
         lines)
  in
  String.concat "\n" fixed

let fix_file ~lint ~sigma_file () =
  match Driver.read_file sigma_file with
  | Error m -> Error m
  | Ok src ->
      let t = String.trim src in
      if String.length t > 0 && t.[0] = '<' then
        Error
          (Printf.sprintf
             "%s: autofixes apply to the line DSL only, not the XML syntax"
             sigma_file)
      else
        let diags = lint () in
        let fixes = plan ~sigma_file diags in
        if fixes = [] then Ok (0, diags)
        else begin
          let fixed = apply ~src fixes in
          match
            Out_channel.with_open_text sigma_file (fun oc ->
                Out_channel.output_string oc fixed)
          with
          | () -> Ok (List.length fixes, lint ())
          | exception Sys_error m -> Error m
        end
