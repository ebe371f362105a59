(** Path constraints in XML syntax.

    The paper closes with: "To include path constraints in XML
    documents to specify the semantics of the data, it is important to
    have a path constraint syntax that conforms to XML and XML DTD.  In
    [the technical report] we offered a preliminary proposal."  This
    module is such a syntax:

    {v
    <constraints>
      <word lhs="book.author" rhs="person"/>
      <forward prefix="MIT" lhs="book.author" rhs="person"/>
      <backward prefix="book" lhs="author" rhs="wrote"/>
    </constraints>
    v}

    [<word .../>] abbreviates a forward constraint with empty prefix;
    a missing [prefix] attribute means the empty path. *)

val render : Pathlang.Constr.t list -> string
val render_xml : Pathlang.Constr.t list -> Xml.t

val parse : string -> (Pathlang.Constr.t list, string) result

val parse_spanned :
  string -> ((Pathlang.Constr.t * Pathlang.Span.t) list, string) result
(** Like {!parse}, attaching to each constraint the span of its source
    element (clamped to the element's first line), so diagnostics on XML
    constraint files point at the offending element rather than the
    whole file. *)
