(** The ODL retrospective of Section 1, executable.

    The paper observes that an ODMG/ODL schema mixes two kinds of
    constraints: strike out the [extent] and [inverse] declarations and
    you are left with a plain class/type declaration; the struck-out
    parts are exactly path constraints (extent constraints and inverse
    constraints).  This module parses a small ODL subset and performs
    that separation: the result is an M+ schema (the type constraint)
    plus the P_c constraints the declarations denote.

    Accepted subset, following the paper's example:
    {v
    interface Book (extent book) {
      attribute String title;
      relationship set<Person> author inverse Person::wrote;
      relationship Book ref;
    };
    v}

    Attribute types: [String] and [Long] map to the atomic types
    [string] and [int]; any other identifier maps to an atomic type of
    the same (lowercased) name.  The database type is the record of all
    extents, each a set of the corresponding class — so the extent of
    class [Book] with [(extent book)] is the path [book.*].

    Generated path constraints (writing [s] for the set-membership
    label [*]):
    - {e extent}: for a relationship [f] of [C] targeting [D] with
      extent [d]:  [c.s.f.s -> d.s]  (the inner [s] only when [f] is
      set-valued);
    - {e inverse}: for [relationship ... f inverse D::g] on [C]:
      [c.s : f.s <- g.s] in backward form (again with [s] tracking
      set-valuedness of each field). *)

type spec = {
  schema : Mschema.t;
  extent_constraints : Pathlang.Constr.t list;
  inverse_constraints : Pathlang.Constr.t list;
}

val parse : string -> (spec, Pathlang.Parser.error) result
(** Syntax errors carry the offending token's position; declaration
    errors found after parsing (no extent, an undeclared interface, an
    invalid schema) have none ([line = 0]). *)

val render : spec -> string
(** Renders back to ODL (with the extent/inverse declarations
    reattached); [parse (render s)] reproduces the spec's schema and
    constraints (tested). *)

val paper_example : string
(** The Book/Person ODL text of Section 1. *)
