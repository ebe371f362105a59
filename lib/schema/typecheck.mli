(** Typed structures and the type constraint Phi(Delta)
    (Section 3.2.2).

    An {e abstract database} of a schema is a sigma(Delta)-structure: a
    rooted edge-labeled graph together with a sort assignment on nodes,
    satisfying the type constraint Phi(Delta).  [U_f(Delta)] is the set
    of finite such structures; this module decides membership. *)

type t = { graph : Sgraph.Graph.t; typing : (Sgraph.Graph.node, Mtype.t) Hashtbl.t }

val make : Sgraph.Graph.t -> (Sgraph.Graph.node * Mtype.t) list -> t
(** Pair a graph with a sort assignment (it may be partial here;
    {!validate} requires totality). *)

val type_of : t -> Sgraph.Graph.node -> Mtype.t option

val set_type : t -> Sgraph.Graph.node -> Mtype.t -> unit

val validate : Mschema.t -> t -> (unit, string list) result
(** Decides [G |= Phi(Delta)]:
    - every node has exactly one sort; the root has sort [DBtype];
    - an atomic-sorted node has no outgoing edge;
    - a set-sorted node (or class whose body is a set) has only
      [*]-edges, all leading to nodes of the member sort;
    - a record-sorted node (or class whose body is a record) has exactly
      one outgoing edge per field label and no others, each leading to a
      node of the field's sort;
    - extensionality for {e pure} set and record sorts (not classes):
      two distinct nodes of the same pure set (record) sort may not have
      identical member (field) sets — value nodes are identified by
      their contents, while class-typed oids are not (two oids with
      equal states remain distinct, exactly as in instances [I(Delta)]).

    Returns all violations (as human-readable strings). *)

