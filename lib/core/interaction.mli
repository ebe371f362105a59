(** One-call comparison of an implication instance across the paper's
    contexts — the "interaction" of the title as an API.

    Given [Sigma ∪ {phi}] (and optionally a schema), run every
    procedure that applies and report the verdicts side by side:
    - the PTIME word-constraint procedure (when everything is in P_w),
    - the Definition 2.3 local-extent procedure (when the instance is
      prefix-bounded),
    - the budgeted chase / bounded model search for general untyped P_c,
    - under an M schema: the cubic certified procedure,
    - under an M+ schema: bounded exhaustive refutation (implication
      itself being undecidable, Theorem 5.2).

    The examples and the bench use this to exhibit instances whose
    answer changes when the type system is imposed. *)

type typed_outcome =
  | M_decided of Typed_m.outcome
  | Mplus_refuted of Schema.Typecheck.t
      (** a bounded countermodel in U_f(Delta): definitely not implied *)
  | Mplus_open of string
      (** no bounded countermodel found; implication in M+ is
          undecidable, so this stays open *)
  | Typed_error of string

type report = {
  word_untyped : bool option option;
      (** [None] when some constraint is not in P_w; [Some None] when the
          word rules find no derivation where they are incomplete (an
          eps conclusion), see {!Decide.word} *)
  local_extent : (Pathlang.Path.t * Pathlang.Label.t * bool) option;
      (** the bound [(alpha, K)] used and the verdict, when the
          instance is prefix-bounded: the bound is the one
          {!Decide.cell} finds, {!Pathlang.Bounded.find_bound} *)
  chase : Verdict.t;
  typed : typed_outcome option;  (** when a schema was supplied *)
}

val compare :
  ?schema:Schema.Mschema.t ->
  ?budget:Engine.Budget.t ->
  ?search_bounds:Typed_search.bounds ->
  sigma:Pathlang.Constr.t list ->
  Pathlang.Constr.t ->
  report
(** [budget] (default [Engine.Budget.default]) governs each budgeted
    procedure — the chase/enumeration semi-decider and the bounded M+
    search each get a fresh controller started from it, so every row is
    deadline-bounded. *)

val pp : Format.formatter -> report -> unit
