(** Serializing semistructured graphs back to XML.

    The inverse direction of {!To_graph}: a BFS spanning tree of the
    reachable part becomes the element nesting, every non-tree edge
    [x -k-> y] becomes a reference element [<k ref="#id"/>], and nodes
    that are reference targets receive [id] attributes.  Parsing the
    output with {!To_graph} reproduces a graph with the same reachable
    shape (same node and edge counts, same path semantics) — the test
    suite checks this on random graphs.

    Unreachable nodes are not serialized (XML documents are rooted). *)

val to_string : ?root_name:string -> Sgraph.Graph.t -> string
