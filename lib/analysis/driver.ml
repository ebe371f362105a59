(* The one analyzer driver.  Constraint files (Lint) and query files
   (Querycheck) differ only in their parser, their passes and a few
   cache-key parts; everything else — configuration, the content-hash
   cache, input errors, suppression, severity overrides, the sort and
   the per-family tally — is this one pipeline. *)

module Span = Pathlang.Span

type schema = {
  schema : Schema.Mschema.t;
  schema_file : string;
  schema_spans : Schema.Schema_parser.spans;
}

type 'doc kind = {
  tag : string;
  parse : string -> ('doc, Span.t * string) result;
  pragmas : 'doc -> Pathlang.Parser.pragma list;
  key_parts : Config.t -> string list;
  passes :
    file:string ->
    config:Config.t ->
    explain:bool ->
    schema option ->
    'doc ->
    (Diagnostic.t list, Diagnostic.t) result;
}

let passes_run = Obs.Counter.make ~unit_:"passes" "lint.passes.run"

(* per-family diagnostic tallies as one labeled metric:
   [lint.diags{family="PC2xx"}] etc. *)
let f_diags = Obs.Counter.family ~unit_:"diagnostics" ~label:"family" "lint.diags"

(* every analyzer input read goes through the CLI's fault site, so a
   failed read is rehearsable end to end and lands as an input error *)
let fs_cli_read = Fault.site "cli.read"

let read_file path = Fault.Io.read_file ~site:fs_cli_read path

let parse_error { Pathlang.Parser.line; col; token; reason } =
  ( Span.v ~line ~start_col:col ~end_col:(col + String.length token),
    if token = "" then reason else Printf.sprintf "at %S: %s" token reason )

let whole_file_span = Span.v ~line:1 ~start_col:1 ~end_col:1

let input_error code ~file ?span m =
  Diagnostic.make ~code ~severity:Diagnostic.Error ~file ?span m

(* The two layers around the passes, so [--stats] can attribute a run:
   reading and parsing the inputs, and shaping the findings into the
   report. *)
let parsing f = Obs.Span.with_ "layer.parse" f
let rendering f = Obs.Span.with_ "layer.render" f

let run_pass name f =
  Obs.Span.with_ ("lint." ^ name) (fun () ->
      Obs.Counter.incr passes_run;
      f ())

let finish ~file ~config pragmas diags =
  rendering (fun () ->
      let all = Suppress.apply ~sigma_file:file pragmas diags in
      let all =
        List.filter_map
          (fun d ->
            match Config.severity_override config d.Diagnostic.code with
            | None -> Some d
            | Some None -> None
            | Some (Some severity) -> Some { d with Diagnostic.severity })
          all
      in
      let all = List.stable_sort Diagnostic.compare all in
      (* per-family tallies (PC2xx vacuity, PC3xx redundancy, ...) so that
         --stats output attributes diagnostics as well as time to passes *)
      List.iter
        (fun d ->
          let code = d.Diagnostic.code in
          let family =
            if String.length code >= 3 then String.sub code 0 3 ^ "xx" else code
          in
          Obs.Counter.incr (Obs.Counter.tag f_diags family))
        all;
      all)

let cache_key kind ~config ~explain ~file ~src ~schema_file ~schema_src
    ~config_src =
  Cache.key
    ~parts:
      ([
         kind.tag;
         file;
         src;
         schema_file;
         schema_src;
         config_src;
         (if explain then "explain" else "");
       ]
      @ kind.key_parts config)

let load_config = function
  | None -> Ok ("", Config.default)
  | Some path -> (
      match read_file path with
      | Error m -> Error (input_error "PC003" ~file:path m)
      | Ok src -> (
          match Config.parse src with
          | Ok c -> Ok (src, c)
          | Error e ->
              let span, m = parse_error e in
              Error (input_error "PC003" ~file:path ~span m)))

let load_schema = function
  | None -> Ok None
  | Some (path, Error m) ->
      Error (input_error "PC002" ~file:path ~span:whole_file_span m)
  | Some (path, Ok src) -> (
      match Schema.Schema_parser.of_string_spanned src with
      | Ok (schema, schema_spans) ->
          Ok (Some { schema; schema_file = path; schema_spans })
      | Error e ->
          let span, m = parse_error e in
          Error (input_error "PC002" ~file:path ~span m))

(* A pass that hit its wall-clock deadline or was cancelled says so
   with one of these; what it found before then depends on the host. *)
let cut_short (d : Diagnostic.t) = d.code = "PC302" || d.code = "PC703"

(* read → parse → schema → passes → finish; input errors short-circuit
   past suppression, severity overrides and the tally.  The flag says
   whether the result may be cached: not when a pass was cut short,
   even if a pragma or the configuration hides the notice. *)
let analyze kind ~config ~explain ~file src schema =
  let ( let* ) r k = match r with Error d -> ([ d ], true) | Ok v -> k v in
  let* src =
    Result.map_error (input_error "PC001" ~file ~span:whole_file_span) src
  in
  let* doc, schema =
    parsing (fun () ->
        match kind.parse src with
        | Error (span, m) -> Error (input_error "PC001" ~file ~span m)
        | Ok doc -> Result.map (fun schema -> (doc, schema)) (load_schema schema))
  in
  let* findings = kind.passes ~file ~config ~explain schema doc in
  ( finish ~file ~config (kind.pragmas doc) findings,
    not (List.exists cut_short findings) )

let run kind ?schema_file ?config_file ?cache_dir ?(explain = false)
    ?(on_config = ignore) ~file () =
  match parsing (fun () -> load_config config_file) with
  | Error d -> [ d ]
  | Ok (config_src, config) -> (
      on_config config;
      let explain = explain || config.Config.explain in
      let cache_dir =
        match cache_dir with Some _ -> cache_dir | None -> config.Config.cache_dir
      in
      let src, schema =
        parsing (fun () ->
            let src = read_file file in
            (src, Option.map (fun p -> (p, read_file p)) schema_file))
      in
      (* only fully read inputs are keyed; [pool] is deliberately never
         a part: -j N results are byte-identical to -j 1 by contract, so
         an entry is valid at any job count *)
      let key =
        match (cache_dir, src, schema) with
        | Some dir, Ok src, (None | Some (_, Ok _)) ->
            let schema_file, schema_src =
              match schema with Some (p, Ok sc) -> (p, sc) | _ -> ("", "")
            in
            Some
              ( dir,
                cache_key kind ~config ~explain ~file ~src ~schema_file
                  ~schema_src ~config_src )
        | _ -> None
      in
      match Option.bind key (fun (dir, key) -> Cache.lookup ~dir ~key) with
      | Some diags -> diags
      | None ->
          let diags, cacheable =
            analyze kind ~config ~explain ~file src schema
          in
          if cacheable then
            Option.iter (fun (dir, key) -> Cache.store ~dir ~key diags) key;
          diags)
