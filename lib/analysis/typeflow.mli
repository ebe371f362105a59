(** Type flow: the sort of every prefix of every constraint walk.

    The schema graph is deterministic (one edge per record field, only
    [*] out of a set), so a root-anchored walk visits exactly one
    sequence of sorts, one {!Schema.Schema_graph.successor} step per
    label ({!Schema.Schema_graph.walk}).  Each prefix of a walk either
    has one sort or has left [Paths(Delta)], which gives per-token
    diagnostics:

    - {b PC600} (dead path): the first prefix with no sort, with the
      exact token and the schema edge that is missing;
    - {b PC601} (M+ trigger): over an M+ schema, the first live step
      whose sort is set-valued — the occurrence that places the
      instance in the undecidable M+ cell of Table 1 (Theorem 5.2),
      sharpening the file-level [PC102];
    - {b PC602} (explain): the full inferred sort chain of each walk.

    The [typeflow.product.states] counter adds, per walk, the number of
    reachable (prefix, sort) pairs, i.e. the live prefixes. *)

type step = {
  prefix : Pathlang.Path.t;
  sort : Schema.Mtype.t option;  (** [None] iff the prefix left Paths(Delta) *)
}

type flow = {
  path : Pathlang.Path.t;
  steps : step list;  (** one per prefix, epsilon first; length + 1 entries *)
  dies_at : int option;  (** least prefix length with no sort, if any *)
}

val of_path : Schema.Mschema.t -> Pathlang.Path.t -> flow
(** The flow of a single root-anchored walk. *)

val missing_edge : flow -> (Schema.Mtype.t * Pathlang.Path.t) option
(** For a flow that dies after at least one live step: the sort at the
    last live step and the first dead prefix, whose last label is the
    edge that sort lacks. *)

val sort_label : Schema.Mschema.t -> Schema.Mtype.t -> string
(** Reader-facing sort name: classes/atoms by name, sets braced, the db
    type as ["db"]. *)

val explain_flow : Schema.Mschema.t -> flow -> string
(** The inferred chain, e.g. ["db -[book]-> Book -[author]-> Person"];
    dead steps render as ["(dead)"]. *)

val pass :
  sigma_file:string ->
  schema:Schema.Mschema.t ->
  ?explain:bool ->
  Pathlang.Parser.located list ->
  Diagnostic.t list
(** The PC6xx lint pass over located constraints.  Findings carry
    token-level spans when the input syntax provided them (the line
    DSL), falling back to the constraint's span (XML).  [explain]
    (default false) additionally emits one [PC602] per walk. *)
