(** A minimal JSON tree, printer and parser.

    The observability layer has to emit (Chrome [trace_event] files,
    [--stats json], [BENCH_table1.json], lint's JSON and SARIF) and
    re-read (the bench regression gate, the trace validator in the
    test suite) JSON
    without pulling a serialization dependency into every library that
    carries instrumentation.  This is a deliberately small, strict
    implementation: UTF-8 strings, no comments, no trailing commas. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val write : Buffer.t -> t -> unit
(** Append the compact rendering.  Strings use the short escapes where
    JSON has one (including [\b], [\f]), [\u00XX] for other controls. *)

val to_string : t -> string
(** Compact (single-line) rendering.  Non-finite floats render as
    [null]; integral floats keep a [.0] so they re-parse as [Float]. *)

val parse : string -> (t, string) result
(** Strict parser; the error message carries a byte offset.  Numbers
    without [.], [e] or [E] that fit in an OCaml [int] parse as [Int],
    all others as [Float]. *)

(** {2 Accessors} — total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val as_string : t -> string option
val as_int : t -> int option
val as_float : t -> float option
(** [as_float] accepts both [Int] and [Float]. *)

val as_list : t -> t list option
val as_obj : t -> (string * t) list option
