module Constr = Pathlang.Constr
module Path = Pathlang.Path
module Label = Pathlang.Label
module Bounded = Pathlang.Bounded
module Mschema = Schema.Mschema

type typed_outcome =
  | M_decided of Typed_m.outcome
  | Mplus_refuted of Schema.Typecheck.t
  | Mplus_open of string
  | Typed_error of string

type report = {
  word_untyped : bool option option;
  local_extent : (Path.t * Label.t * bool) option;
  chase : Verdict.t;
  typed : typed_outcome option;
}

(* the bound from the table's own search, then the Theorem 5.1
   procedure under it *)
let try_local ~sigma phi =
  match Bounded.find_bound ~phi sigma with
  | None -> None
  | Some (alpha, k) -> (
      match Local_extent.implies ~alpha ~k ~sigma ~phi with
      | Ok b -> Some (alpha, k, b)
      | Error _ -> None)

(* The typed row: the cubic procedure under M; under M+ only a bounded
   refutation, implication itself being undecidable (Theorem 5.2). *)
let typed_row ~budget ?search_bounds schema ~sigma phi =
  match Mschema.kind schema with
  | Mschema.M -> (
      match Decide.typed_m schema ~sigma phi with
      | Ok outcome -> M_decided outcome
      | Error e -> Typed_error e)
  | Mschema.M_plus -> (
      (* the search has its own structure budget (bounds.max_structures);
         the engine contributes the deadline and cancellation token *)
      let ctl =
        Engine.start
          { budget with Engine.Budget.max_steps = None; max_nodes = None }
      in
      match
        Decide.typed_search ~ctl ?bounds:search_bounds schema ~sigma phi
      with
      | Ok (Some t) -> Mplus_refuted t
      | Ok None -> (
          match Engine.tripped ctl with
          | Some _ ->
              Mplus_open
                (Format.asprintf "search gave up: %a" Verdict.pp_exhaustion
                   (Engine.exhaustion ctl))
          | None ->
              Mplus_open
                "no countermodel within the search bounds; M+ implication is \
                 undecidable (Theorem 5.2)")
      | Error e -> Typed_error e)

(* One audit record per 4-way comparison: the per-procedure outcomes
   side by side, which is the provenance the PC7xx interaction
   diagnostics are derived from. *)
let audit_compare r =
  if Obs.Audit.enabled () then begin
    let s v = Obs.Json.String v in
    Obs.Audit.emit "compare"
      ~fields:
        [
          ( "word",
            s
              (match r.word_untyped with
              | Some (Some true) -> "implied"
              | Some (Some false) -> "refuted"
              | Some None -> "unknown"
              | None -> "n/a") );
          ( "local_extent",
            s
              (match r.local_extent with
              | Some (_, _, true) -> "implied"
              | Some (_, _, false) -> "refuted"
              | None -> "n/a") );
          ( "chase",
            s
              (match r.chase with
              | Verdict.Implied -> "implied"
              | Verdict.Refuted _ -> "refuted"
              | Verdict.Unknown _ -> "unknown") );
          ( "typed",
            s
              (match r.typed with
              | None -> "n/a"
              | Some (M_decided (Typed_m.Implied _)) -> "implied"
              | Some (M_decided (Typed_m.Not_implied _)) -> "refuted"
              | Some (M_decided (Typed_m.Vacuous _)) -> "vacuous"
              | Some (Mplus_refuted _) -> "refuted"
              | Some (Mplus_open _) -> "open"
              | Some (Typed_error _) -> "error") );
        ]
  end

let compare ?schema ?(budget = Engine.Budget.default) ?search_bounds ~sigma phi
    =
  Obs.Span.with_ "interaction.compare" (fun () ->
      let r =
        {
          word_untyped =
            Obs.Span.with_ "interaction.word" (fun () ->
                Result.to_option (Decide.word ~sigma phi));
          local_extent =
            Obs.Span.with_ "interaction.local" (fun () -> try_local ~sigma phi);
          chase =
            Obs.Span.with_ "interaction.chase" (fun () ->
                Decide.chase ~ctl:(Engine.start budget) ~sigma phi);
          typed =
            Option.map
              (fun s ->
                Obs.Span.with_ "interaction.typed" (fun () ->
                    typed_row ~budget ?search_bounds s ~sigma phi))
              schema;
        }
      in
      audit_compare r;
      r)

let pp ppf r =
  Format.fprintf ppf "@[<v>";
  (match r.word_untyped with
  | Some (Some b) ->
      Format.fprintf ppf "word constraints, untyped (PTIME): %b@," b
  | Some None ->
      Format.fprintf ppf "word constraints, untyped (PTIME): unknown (%s)@,"
        Word_untyped.no_derivation
  | None -> Format.fprintf ppf "word constraints, untyped: not applicable@,");
  (match r.local_extent with
  | Some (alpha, k, b) ->
      Format.fprintf ppf "local extent, untyped (PTIME, bound (%a, %a)): %b@,"
        Path.pp alpha Label.pp k b
  | None -> Format.fprintf ppf "local extent, untyped: not applicable@,");
  Format.fprintf ppf "general P_c, untyped (chase): %a@," Verdict.pp r.chase;
  (match r.typed with
  | None -> ()
  | Some (M_decided (Typed_m.Implied d)) ->
      Format.fprintf ppf "under the M schema: implied (proof size %d)@,"
        (Axioms.size d)
  | Some (M_decided (Typed_m.Not_implied t)) ->
      Format.fprintf ppf
        "under the M schema: not implied (countermodel, %d nodes)@,"
        (Sgraph.Graph.node_count t.Schema.Typecheck.graph)
  | Some (M_decided (Typed_m.Vacuous m)) ->
      Format.fprintf ppf "under the M schema: vacuously implied (%s)@," m
  | Some (Mplus_refuted t) ->
      Format.fprintf ppf
        "under the M+ schema: not implied (countermodel, %d nodes)@,"
        (Sgraph.Graph.node_count t.Schema.Typecheck.graph)
  | Some (Mplus_open m) -> Format.fprintf ppf "under the M+ schema: open (%s)@," m
  | Some (Typed_error e) -> Format.fprintf ppf "typed: error (%s)@," e);
  Format.fprintf ppf "@]"
