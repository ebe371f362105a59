type t = { node : node; span : Pathlang.Span.t }

and node =
  | Eps
  | Letter of Pathlang.Label.t
  | Concat of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t
