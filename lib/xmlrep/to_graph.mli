(** XML documents as semistructured graphs (Section 1 / Figure 1).

    The encoding follows the paper's reading of an XML document as a
    rooted edge-labeled graph:
    - the document element is the root;
    - a child element [<c>...</c>] of a node adds a [c]-labeled edge to
      the child's node;
    - an attribute [k="v"] adds a [k]-labeled edge to a fresh leaf node
      — except that
    - an attribute value starting with [#] is a reference: [k="#i"]
      adds a [k]-labeled edge to the element with [id="i"] (this is how
      the author/wrote/ref cross-links of Figure 1 stay shared nodes
      rather than copies);
    - [id] attributes only name nodes and add no edge;
    - a child element carrying {e only} a reference attribute,
      [<k ref="#i"/>], is a pure reference: a [k]-labeled edge to the
      element with [id="i"] and no fresh node (this is what
      {!Of_graph} emits for non-spanning-tree edges);
    - pure text content adds no edge (string leaves are nodes with no
      outgoing edges, as in the paper's model). *)

val graph_of_string :
  string -> (Sgraph.Graph.t * (string * Sgraph.Graph.node) list, string) result
