(** The one analyzer driver, shared by [pathctl lint] (constraint files)
    and [pathctl query lint] (query files).

    One pipeline: configuration ([PC003] on failure) → cache key →
    read → parse ([PC001], positioned) → schema ([PC002], positioned) →
    the document kind's passes → suppression pragmas ([PC510] for unused
    ones) → severity overrides → presentation sort → per-family tally
    ([lint.diags{family=...}]) → cache store.  Input errors
    ([PC001]/[PC002]/[PC003]) short-circuit: they skip suppression,
    severity overrides and the tally, so CI consumers always see why a
    file was not analyzed.  With a configuration that does not parse,
    [PC003] is positioned at the line the parser stopped at.

    The configuration load, the input reads and the document and schema
    parses run under the [layer.parse] span, {!finish} under
    [layer.render], so [--stats] attributes them apart from the passes.

    A document {!kind} supplies what differs between the two file types:
    the parser, the passes, and the extra cache-key parts. *)

type schema = {
  schema : Schema.Mschema.t;
  schema_file : string;
  schema_spans : Schema.Schema_parser.spans;
}
(** A loaded schema and where its declarations sit. *)

type 'doc kind = {
  tag : string;
      (** the first cache-key part, so the two kinds never share keys *)
  parse : string -> ('doc, Pathlang.Span.t * string) result;
      (** parse a file's contents; the error carries its span and the
          message of the [PC001] diagnostic *)
  pragmas : 'doc -> Pathlang.Parser.pragma list;
  key_parts : Config.t -> string list;
      (** the kind's own cache-key parts, after the common ones *)
  passes :
    file:string ->
    config:Config.t ->
    explain:bool ->
    schema option ->
    'doc ->
    (Diagnostic.t list, Diagnostic.t) result;
      (** the raw findings of the kind's passes, or one input error that
          short-circuits like [PC001] (lint's malformed [--phi]) *)
}

val read_file : string -> (string, string) result
(** Read an input file through the [cli.read] fault site; disarmed, a
    plain whole-file read. *)

val parsing : (unit -> 'a) -> 'a
(** Run under the [layer.parse] span: reading and parsing inputs. *)

val rendering : (unit -> 'a) -> 'a
(** Run under the [layer.render] span: shaping findings into a
    report. *)

val parse_error : Pathlang.Parser.error -> Pathlang.Span.t * string
(** The span and message of a token-shaped parse error: the span covers
    the offending token, the message quotes it. *)

val run_pass : string -> (unit -> Diagnostic.t list) -> Diagnostic.t list
(** Run one pass under the [lint.<name>] span, bumping
    [lint.passes.run]. *)

val finish :
  file:string ->
  config:Config.t ->
  Pathlang.Parser.pragma list ->
  Diagnostic.t list ->
  Diagnostic.t list
(** Suppression pragmas, then the configuration's severity overrides,
    then {!Diagnostic.compare} order; tallies the result per family.
    Runs under the [layer.render] span. *)

val cache_key :
  'doc kind ->
  config:Config.t ->
  explain:bool ->
  file:string ->
  src:string ->
  schema_file:string ->
  schema_src:string ->
  config_src:string ->
  string
(** {!Cache.key} over the kind's tag, the document's path and contents,
    the schema's path and contents ([""] without a schema), the
    configuration text, the explain flag, then the kind's
    [key_parts config].  Exposed so the mutation tests can flip each
    part of either kind. *)

val run :
  'doc kind ->
  ?schema_file:string ->
  ?config_file:string ->
  ?cache_dir:string ->
  ?explain:bool ->
  ?on_config:(Config.t -> unit) ->
  file:string ->
  unit ->
  Diagnostic.t list
(** The whole pipeline over one document file.  [config_file] supplies
    severity overrides, pass selection and defaults for [explain] and
    [cache_dir] (explicit arguments win); [on_config] receives it once
    loaded, so the caller need not read it again.  With a cache
    directory, a content hit returns the stored diagnostics and runs no
    pass.  A run
    in which a pass hit its deadline or was cancelled (PC302, PC703) is
    not stored, since its findings depend on the host. *)
