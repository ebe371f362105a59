(* Content-addressed result cache for whole lint runs.

   The key digests everything a run's output depends on: the analyzer
   version and rule table, the constraint/schema/config file paths and
   contents, the goal constraint, the explain flag and the budget.  A
   hit therefore implies bit-identical diagnostics, so on a hit every
   pass is skipped — the cache-hit test asserts the pass counter stays
   at zero.  Entries are JSON files named by the hex digest; any
   malformed, unreadable or version-skewed entry is a miss. *)

module Json = Obs.Json

let hits = Obs.Counter.make ~unit_:"lookups" "lint.cache.hits"
let misses = Obs.Counter.make ~unit_:"lookups" "lint.cache.misses"
let stores = Obs.Counter.make ~unit_:"entries" "lint.cache.stores"

let write_errors =
  Obs.Counter.make ~unit_:"failed stores" "lint.cache.write_errors"

let fs_store = Fault.site "cache.store"

(* Once a store fails (ENOSPC, permissions, an injected short write),
   the cache is off for the rest of the run: the disk condition that
   broke one write will break the next, and a lint must never spend its
   time retrying a broken cache — or worse, half-trusting it. *)
let degraded = ref false
let reset () = degraded := false

let version = 2

(* The fingerprint must cover the FULL rule table — code, default
   severity and description of every row — so that adding a rule family
   (or rewording a description that reaches rendered output) invalidates
   every cached run.  A fingerprint over a subset once let stale entries
   survive a rule-table change; the mutation test in the suite pins the
   full coverage. *)
let fingerprint_of_rules rules =
  String.concat ";"
    (List.map
       (fun (code, sev, descr) ->
         code ^ "=" ^ Diagnostic.severity_to_string sev ^ ":" ^ descr)
       rules)

(* Length-framed concatenation: no part boundary ambiguity. *)
let key_with_rules ~rules ~parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    (string_of_int version :: fingerprint_of_rules rules :: parts);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let key ~parts = key_with_rules ~rules:Diagnostic.rules ~parts

(* --- serialization -------------------------------------------------------- *)

let severity_of_string = function
  | "error" -> Some Diagnostic.Error
  | "warning" -> Some Diagnostic.Warning
  | "info" -> Some Diagnostic.Info
  | "hint" -> Some Diagnostic.Hint
  | _ -> None

let diag_of_json j =
  let str k = Option.bind (Json.member k j) Json.as_string in
  let int k = Option.bind (Json.member k j) Json.as_int in
  match (str "code", str "severity", str "file", str "message") with
  | Some code, Some sev, Some file, Some message -> (
      match severity_of_string sev with
      | None -> None
      | Some severity -> (
          let span =
            match (int "line", int "startColumn", int "endColumn") with
            | Some line, Some start_col, Some end_col ->
                Some (Pathlang.Span.v ~line ~start_col ~end_col)
            | _ -> None
          in
          match Diagnostic.make ~code ~severity ~file ?span message with
          | d -> Some d
          | exception Invalid_argument _ -> None))
  | _ -> None

let to_entry diags =
  Json.Obj [ ("diagnostics", Json.List (List.map Diagnostic.to_json diags)) ]

let of_entry j =
  match Option.bind (Json.member "diagnostics" j) Json.as_list with
  | None -> None
  | Some items ->
      let diags = List.map diag_of_json items in
      if List.for_all Option.is_some diags then
        Some (List.filter_map Fun.id diags)
      else None

(* --- the store ------------------------------------------------------------ *)

let entry_path ~dir ~key = Filename.concat dir (key ^ ".json")

let lookup ~dir ~key =
  let result =
    if !degraded then None
    else
      match
        In_channel.with_open_text (entry_path ~dir ~key) In_channel.input_all
      with
      | src -> (
          match Json.parse src with Ok j -> of_entry j | Error _ -> None)
      | exception Sys_error _ -> None
  in
  (match result with
  | Some _ -> Obs.Counter.incr hits
  | None -> Obs.Counter.incr misses);
  if Obs.Audit.enabled () then
    Obs.Audit.emit "lint.cache"
      ~fields:
        [
          ("key", Json.String key);
          ( "outcome",
            Json.String (if Option.is_some result then "hit" else "miss") );
        ];
  result

let rec mkdir_p dir =
  if dir = "" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let store ~dir ~key diags =
  if not !degraded then begin
    let fail () =
      degraded := true;
      Obs.Counter.incr write_errors
    in
    match mkdir_p dir with
    | exception Sys_error _ -> fail ()
    | () -> (
        let path = entry_path ~dir ~key in
        let body = Json.to_string (to_entry diags) ^ "\n" in
        (* Atomic temp + fsync + rename: a torn write can therefore
           never leave a readable-but-truncated entry under the final
           name — the injection test arms [cache.store] and asserts
           exactly that. *)
        match Fault.Io.write_atomic ~site:fs_store ~path body with
        | Ok () -> Obs.Counter.incr stores
        | Error _ -> fail ())
  end
