(** Fragment / decidability classification: the paper's Table 1 as a
    static analysis.

    Which decision procedure applies to an implication instance — and
    whether implication is decidable at all — is determined by the shape
    of the input alone: the constraint fragment (P_w, prefix-bounded,
    P_w(K)/P_w(alpha), full P_c) and the schema model (untyped data, M,
    M+).  {!Core.Decide.cell} computes that cell; this pass reports it
    ([PC100]), warns when the instance lands in an undecidable cell
    ([PC101]/[PC102]), and hints the nearest decidable route out
    ([PC103]). *)

val run :
  sigma_file:string ->
  ?schema:Schema.Mschema.t ->
  ?schema_file:string ->
  ?schema_spans:Schema.Schema_parser.spans ->
  ?phi:Pathlang.Constr.t ->
  (Pathlang.Constr.t * Pathlang.Span.t) list ->
  Diagnostic.t list
(** The lint pass: [PC100] (always; on a decidable cell that is not
    exact it calls the procedure sound only, and says why),
    [PC101]/[PC102] on undecidable cells, [PC103] hints naming the
    nearest decidable route (drop the set type at a class to fall into
    M, restrict to P_w, supply an M schema, restructure as
    prefix-bounded). *)
