module Constr = Pathlang.Constr
module Path = Pathlang.Path
module Label = Pathlang.Label
module Store = Pathlang.Store
module Mschema = Schema.Mschema
module SG = Schema.Schema_graph
module Json = Obs.Json

let src =
  Logs.Src.create "pathcons.semidecide" ~doc:"chase + enumeration semi-decider"

module Log = (val Logs.src_log src : Logs.LOG)

(* --- Table 1 ---------------------------------------------------------------- *)

type route = Word | Typed_m | Chase

type fragment =
  | P_w
  | P_w_eps
  | Prefix_bounded of Path.t * Label.t
  | P_w_rho of Path.t
  | P_c

type model = Untyped | M | M_off_paths | M_plus

type procedure =
  | Ptime_word
  | Ptime_local
  | Cubic_m
  | Semidecision
  | Bounded_refutation

type cell = {
  fragment : fragment;
  model : model;
  decidable : bool;
  provenance : string;
  procedure : procedure;
  route : route;
  exact : bool;
}

type question = Entailment | Refutation

let has_eps cs = List.exists (fun c -> Path.is_empty (Constr.rhs c)) cs

(* [P_w(rho)]: every constraint a word constraint or [rho]-prefixed one,
   for the first nonempty prefix [rho] *)
let word_prefix all =
  match
    List.find_opt (fun c -> not (Path.is_empty (Constr.prefix c))) all
  with
  | Some c ->
      let rho = Constr.prefix c in
      if List.for_all (Pathlang.Fragment.in_pw_path ~rho) all then Some rho
      else None
  | None -> None

(* The least fragment containing [all] (Sigma and the goal).  Past P_w
   only [~bound] refines it: the Definition 2.3 search runs before the
   P_w(rho) shapes, so a prefix-bounded set lands in the decidable row. *)
let fragment ~bound ?phi sigma all =
  if List.for_all Pathlang.Fragment.in_pw all then
    if has_eps all then P_w_eps else P_w
  else if not bound then P_c
  else
    match Pathlang.Bounded.find_bound ?phi sigma with
    | Some (alpha, k) -> Prefix_bounded (alpha, k)
    | None -> (
        match word_prefix all with Some rho -> P_w_rho rho | None -> P_c)

let model ?schema all =
  match schema with
  | None -> Untyped
  | Some s when Mschema.kind s = Mschema.M ->
      if
        List.for_all
          (fun c -> Result.is_ok (SG.check_constraint_paths s c))
          all
      then M
      else M_off_paths
  | Some _ -> M_plus

(* The table.  The word procedure decides rule-derivability, which is
   implication only without eps conclusions (equality-generating
   constraints): with one present its "yes" is sound but its "no" is not
   a refutation, so the row is not exact and a refutation is asked of
   the chase, whose [Refuted] carries a countermodel.  Off the typed-M
   row a schema only narrows the structures, so the untyped route stays
   sound but is no longer complete. *)
let rec row question ~eps model fragment =
  let untyped = "Abiteboul-Vianu, restated in Section 4.2" in
  let v ~decidable ~provenance ~procedure ~route ~exact =
    { fragment; model; decidable; provenance; procedure; route; exact }
  in
  match (model, fragment) with
  | Untyped, P_w ->
      v ~decidable:true ~provenance:untyped ~procedure:Ptime_word ~route:Word
        ~exact:true
  | Untyped, P_w_eps ->
      v ~decidable:true ~provenance:untyped ~procedure:Ptime_word
        ~route:(if question = Refutation then Chase else Word)
        ~exact:false
  | Untyped, Prefix_bounded _ ->
      v ~decidable:true ~provenance:"Theorem 5.1" ~procedure:Ptime_local
        ~route:Chase ~exact:(not eps)
  | Untyped, P_w_rho rho ->
      v ~decidable:false
        ~provenance:
          (if Path.length rho = 1 then "Theorem 4.3" else "Theorem 6.1")
        ~procedure:Semidecision ~route:Chase ~exact:false
  | Untyped, P_c ->
      v ~decidable:false ~provenance:"Theorem 4.1" ~procedure:Semidecision
        ~route:Chase ~exact:false
  | M, _ ->
      v ~decidable:true ~provenance:"Theorem 4.2" ~procedure:Cubic_m
        ~route:Typed_m ~exact:true
  | M_off_paths, _ ->
      let route = (row question ~eps Untyped fragment).route in
      v ~decidable:true ~provenance:"Theorem 4.2"
        ~procedure:(if route = Word then Ptime_word else Semidecision)
        ~route ~exact:false
  | M_plus, _ ->
      v ~decidable:false ~provenance:"Theorem 5.2"
        ~procedure:Bounded_refutation
        ~route:(row question ~eps Untyped fragment).route ~exact:false

let classify ~bound ?(question = Entailment) ?schema ?phi sigma =
  let all = match phi with Some phi -> phi :: sigma | None -> sigma in
  row question ~eps:(has_eps all) (model ?schema all)
    (fragment ~bound ?phi sigma all)

let cell ?schema ?phi sigma = classify ~bound:true ?schema ?phi sigma

let how = function
  | Word -> "PTIME word procedure"
  | Typed_m -> "cubic typed-M procedure, Theorem 4.2"
  | Chase -> "budgeted chase, sound verdicts only"

(* --- provenance ----------------------------------------------------------- *)

(* Which procedure answered, as one labeled family
   ([decision.route{route="chase"}], ...) plus a per-route latency
   histogram and — when the audit journal is on — one JSONL record per
   decision. *)
let f_routes =
  Obs.Counter.family ~unit_:"decisions" ~label:"route" "decision.route"

let f_latency =
  Obs.Histogram.family ~unit_:"ns"
    ~buckets:[| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]
    ~label:"route" "decision.latency_ns"

let probes =
  List.map
    (fun r ->
      (r, (Obs.Counter.tag f_routes r, Obs.Histogram.tag f_latency r)))
    [ "store-prefilter"; "word"; "typed-m"; "chase"; "enum"; "typed-search" ]

let observed () = Obs.enabled () || Obs.Audit.enabled ()
let start () = if observed () then Obs.now_ns () else 0L

let record ~t0 ~route ~prefilter ?ctl ?(extra = []) phi verdict =
  if observed () then begin
    let elapsed = Int64.sub (Obs.now_ns ()) t0 in
    let c, h = List.assoc route probes in
    Obs.Counter.incr c;
    Obs.Histogram.observe h (Int64.to_float elapsed);
    if Obs.Audit.enabled () then
      Obs.Audit.emit "decision"
        ~fields:
          ((("route", Json.String route)
           :: ("prefilter", Json.String prefilter)
           :: ("verdict", Json.String verdict)
           :: extra)
          @ (("phi", Json.String (Constr.to_string phi))
            :: (match ctl with
               | Some ctl ->
                   [
                     ("steps", Json.Int (Engine.steps ctl));
                     ("peak_nodes", Json.Int (Engine.peak_nodes ctl));
                   ]
               | None -> []))
          @ [ ("elapsed_ns", Json.Int (Int64.to_int elapsed)) ])
  end

(* The chase route's syntactic pre-filter: a containment derivation in
   the hash-consed store is a sound positive verdict over all
   structures, so it answers before the chase runs. *)
let prefilter_hit ~t0 ~ctl ~sigma phi =
  Obs.Span.with_ "decide.prefilter" (fun () ->
      Store.implies_syntactic (Store.of_constraints sigma) phi)
  && begin
       record ~t0 ~route:"store-prefilter" ~prefilter:"hit" ~ctl phi
         "implied";
       true
     end

(* --- route runners -------------------------------------------------------- *)

(* Only the chase consults the pre-filter; these record it skipped. *)
let record_word ~t0 phi v =
  record ~t0 ~route:"word" ~prefilter:"skipped" phi
    (match v with
    | Some true -> "implied"
    | Some false -> "refuted"
    | None -> "unknown")

(* a "no" is a refutation only on an exact row of Sigma and the goal *)
let word ~sigma phi =
  let t0 = start () in
  Result.map
    (fun b ->
      let v =
        if b || (classify ~bound:false ~phi sigma).exact then Some b else None
      in
      record_word ~t0 phi v;
      v)
    (Word_untyped.implies ~sigma phi)

let typed_m schema ~sigma phi =
  let t0 = start () in
  let r = Typed_m.decide schema ~sigma ~phi in
  (match r with
  | Ok o ->
      record ~t0 ~route:"typed-m" ~prefilter:"skipped" phi
        (match o with
        | Typed_m.Implied _ -> "implied"
        | Typed_m.Not_implied _ -> "refuted"
        | Typed_m.Vacuous _ -> "vacuous")
  | Error _ -> ());
  r

let typed_search ?ctl ?pool ?bounds schema ~sigma phi =
  let t0 = start () in
  let r =
    Typed_search.find_countermodel ?ctl ?pool ?bounds schema ~sigma ~phi
  in
  (match r with
  | Ok found ->
      record ~t0 ~route:"typed-search" ~prefilter:"skipped" ?ctl phi
        (if found = None then "unknown" else "refuted")
  | Error _ -> ());
  r

let c_enum_fallbacks =
  Obs.Counter.make ~unit_:"calls" "semidecide.enum_fallbacks"

let c_prefilter_hits =
  Obs.Counter.make ~unit_:"calls" "semidecide.prefilter_hits"

let c_prefilter_misses =
  Obs.Counter.make ~unit_:"calls" "semidecide.prefilter_misses"

(* The chase, then bounded enumeration when it gives up; returns the
   verdict with the name of the procedure that settled it. *)
let search ~ctl ?pool ~enum_nodes ?park ?resume ~sigma phi =
  match Chase.implies ~ctl ?park ?resume ~sigma phi with
  | (Verdict.Implied | Verdict.Refuted _) as v -> ("chase", v)
  | Verdict.Unknown ({ Verdict.reason = Verdict.Crashed; _ } as e) ->
      (* A crash parked the chase state; enumeration would start a
         fresh search the interrupted operator did not ask for — the
         verdict must say "resume me", not burn more budget. *)
      ("chase", Verdict.Unknown e)
  | Verdict.Unknown _ ->
      if enum_nodes <= 0 || not (Engine.ok ctl) then
        ("chase", Verdict.Unknown (Engine.exhaustion ctl))
      else begin
        let labels =
          Label.Set.elements
            (List.fold_left
               (fun acc c -> Label.Set.union acc (Constr.labels_used c))
               (Constr.labels_used phi) sigma)
        in
        let labels = if labels = [] then [ Label.make "a" ] else labels in
        (* Keep the brute-force search tractable — and say so: the cost
           is 2^(L*n^2), so a third label forces the size cap down. *)
        let max_nodes =
          if List.length labels > 2 && enum_nodes > 2 then begin
            let msg =
              Printf.sprintf
                "enumeration cap clamped from %d to 2 nodes (%d labels in \
                 play, search cost 2^(L*n^2))"
                enum_nodes (List.length labels)
            in
            Log.warn (fun m -> m "%s" msg);
            Engine.note ctl msg;
            2
          end
          else enum_nodes
        in
        Obs.Counter.incr c_enum_fallbacks;
        match
          Obs.Span.with_ "semidecide.enumerate"
            ~args:[ ("max_nodes", string_of_int max_nodes) ]
            (fun () ->
              Sgraph.Enumerate.find_countermodel
                ~interrupt:(Engine.interrupted ctl) ?pool ~max_nodes ~labels
                ~sigma ~phi ())
        with
        | Some g -> ("enum", Verdict.Refuted g)
        | None -> ("enum", Verdict.Unknown (Engine.exhaustion ctl))
      end

let chase ?ctl ?pool ?(enum_nodes = 3) ?park ?resume ~sigma phi =
  let ctl = match ctl with Some c -> c | None -> Engine.default () in
  Obs.Span.with_ "semidecide.implies" (fun () ->
      let t0 = start () in
      (* a parked or resumed chase must actually run so its snapshot
         discipline is exercised *)
      let skipped = park <> None || resume <> None in
      if (not skipped) && prefilter_hit ~t0 ~ctl ~sigma phi
      then begin
        Obs.Counter.incr c_prefilter_hits;
        Verdict.Implied
      end
      else begin
        if not skipped then Obs.Counter.incr c_prefilter_misses;
        let route, v =
          search ~ctl ?pool ~enum_nodes ?park ?resume ~sigma phi
        in
        let verdict, extra =
          match v with
          | Verdict.Implied -> ("implied", [])
          | Verdict.Refuted _ -> ("refuted", [])
          | Verdict.Unknown e ->
              ( "unknown",
                [
                  ( "reason",
                    Json.String (Verdict.reason_keyword e.Verdict.reason) );
                  ("rounds", Json.Int e.Verdict.rounds);
                ] )
        in
        record ~t0 ~route
          ~prefilter:(if skipped then "skipped" else "miss")
          ~ctl ~extra phi verdict;
        v
      end)

let chase_escalating ?base_steps ?base_nodes ?factor ?max_rounds ?timeout
    ?cancel ?pool ?(enum_nodes = 3) ~sigma phi =
  (* The enumeration space depends only on [enum_nodes] and the label
     alphabet, not on the chase budget: searching it once (in the first
     round) is enough. *)
  let enum_done = ref false in
  Engine.escalate ?base_steps ?base_nodes ?factor ?max_rounds ?timeout ?cancel
    (fun ctl ->
      let enum_nodes = if !enum_done then 0 else enum_nodes in
      enum_done := true;
      chase ~ctl ?pool ~enum_nodes ~sigma phi)

(* --- one clock per pass --------------------------------------------------- *)

type clock = { budget : Engine.Budget.t; deadline : int64 option }

let clock (budget : Engine.Budget.t) =
  {
    budget;
    deadline =
      Option.map
        (fun t -> Int64.add (Engine.now_ns ()) (Int64.of_float (t *. 1e9)))
        budget.Engine.Budget.timeout;
  }

let remaining_s clock =
  match clock.deadline with
  | None -> infinity
  | Some d -> Int64.to_float (Int64.sub d (Engine.now_ns ())) /. 1e9

let expired clock =
  remaining_s clock <= 0.
  ||
  match clock.budget.Engine.Budget.cancel with
  | Some c -> Engine.Cancel.is_cancelled c
  | None -> false

(* One chase call's share: the pass's step/node caps, and what is left
   of its deadline clamped to [0.01, 1] s so no single call starves the
   rest. *)
let slice clock =
  let b = clock.budget in
  Engine.Budget.v ?max_steps:b.Engine.Budget.max_steps
    ?max_nodes:b.Engine.Budget.max_nodes
    ~timeout:(Float.max 0.01 (Float.min 1.0 (remaining_s clock)))
    ?cancel:b.Engine.Budget.cancel ()

(* --- planned decisions ---------------------------------------------------- *)

type t = {
  route : route;
  exact : bool;
  decide : keep:int list -> Constr.t -> bool option;
}

(* The word and typed-M routes answer from one subset context per plan:
   typed-M from one materialised prefix closure, the word route from
   masked pre* saturations in which Sigma and every Sigma minus one
   position share one fixpoint (other keep-sets get their own context).
   Both run without the store pre-filter: every store inference —
   reflexivity, transitivity inside a bucket, right congruence, and the
   merges mutual containment forces — is a rule of the word calculus,
   which the typed-M closure also derives, so a store hit is always a
   yes from the route's procedure.  Only the chase keeps it, in
   [chase]. *)
let plan ?schema ?question clock constrs =
  let ({ route; exact; _ } : cell) =
    classify ~bound:false ?question ?schema constrs
  in
  let sublist keep =
    let kept = Array.make (List.length constrs) false in
    List.iter (fun i -> kept.(i) <- true) keep;
    List.filteri (fun i _ -> kept.(i)) constrs
  in
  let decide =
    match (route, schema) with
    | Typed_m, Some s -> (
        let subsets = lazy (Typed_m.subsets s ~sigma:constrs) in
        fun ~keep phi ->
          let t0 = start () in
          let verdict v b =
            record ~t0 ~route:"typed-m" ~prefilter:"skipped" phi v;
            Some b
          in
          match Typed_m.implies_subset (Lazy.force subsets) ~keep ~phi with
          | Ok Typed_m.Entailed -> verdict "implied" true
          | Ok Typed_m.Unsatisfiable -> verdict "vacuous" true
          | Ok Typed_m.Not_entailed -> verdict "refuted" false
          | Error _ -> None)
    | Word, _ -> (
        let subsets = Word_untyped.subsets ~sigma:constrs in
        fun ~keep phi ->
          let t0 = start () in
          match Word_untyped.implies_subset subsets ~keep phi with
          | Ok b ->
              record_word ~t0 phi (Some b);
              Some b
          | Error _ -> None)
    | Chase, _ | Typed_m, None -> (
        fun ~keep phi ->
          match
            chase ~ctl:(Engine.start (slice clock)) ~sigma:(sublist keep) phi
          with
          | Verdict.Implied -> Some true
          | Verdict.Refuted _ -> Some false
          | Verdict.Unknown _ -> None)
  in
  { route; exact; decide }

let route t = t.route
let exact t = t.exact
let decide t ~keep phi = t.decide ~keep phi
