(* Differential suite for the decision router: over six seeded regions of
   the paper's Table 1, Core.Decide must pick the same procedure, claim
   the same completeness, print the same name and reach the same verdict
   as the route selection it replaced (kept below as the reference), and
   every region must land in exactly one row of the route table. *)

open Testutil
module Decide = Core.Decide
module Engine = Core.Engine
module Store = Pathlang.Store
module Mschema = Schema.Mschema
module Schema_graph = Schema.Schema_graph

(* --- the reference: the pre-router selection ---------------------------- *)

type clock = { deadline : int64 option; cancel : Engine.Cancel.t option }

let clock_of (budget : Engine.Budget.t) =
  {
    deadline =
      Option.map
        (fun t -> Int64.add (Engine.now_ns ()) (Int64.of_float (t *. 1e9)))
        budget.Engine.Budget.timeout;
    cancel = budget.Engine.Budget.cancel;
  }

let remaining_s clock =
  match clock.deadline with
  | None -> infinity
  | Some d -> Int64.to_float (Int64.sub d (Engine.now_ns ())) /. 1e9

let per_call ~budget ~clock =
  Engine.Budget.v ?max_steps:budget.Engine.Budget.max_steps
    ?max_nodes:budget.Engine.Budget.max_nodes
    ~timeout:(Float.max 0.01 (Float.min 1.0 (remaining_s clock)))
    ?cancel:clock.cancel ()

let of_result = function Ok b -> Some b | Error _ -> None

(* (decide, exact, how) for "rest |= phi" over the set's Table 1 cell *)
let ref_make_decider ?schema ~budget ~clock sigma_all =
  match schema with
  | Some s
    when Mschema.kind s = Mschema.M
         && List.for_all
              (fun c ->
                Result.is_ok (Schema_graph.check_constraint_paths s c))
              sigma_all ->
      let decide phi rest =
        of_result (Core.Typed_m.implies s ~sigma:rest ~phi)
      in
      (decide, true, "cubic typed-M procedure, Theorem 4.2")
  | _ ->
      if List.for_all Pathlang.Fragment.in_pw sigma_all then
        let decide phi rest =
          if Store.implies_syntactic (Store.of_constraints rest) phi then
            Some true
          else of_result (Core.Word_untyped.implies ~sigma:rest phi)
        in
        (* the word procedure is complete only without eps conclusions *)
        let eps_free =
          List.for_all (fun c -> not (Path.is_empty (Constr.rhs c))) sigma_all
        in
        (decide, schema = None && eps_free, "PTIME word procedure")
      else
        let decide phi rest =
          match
            Core.Semidecide.implies
              ~ctl:(Engine.start (per_call ~budget ~clock))
              ~sigma:rest phi
          with
          | Core.Verdict.Implied -> Some true
          | Core.Verdict.Refuted _ -> Some false
          | Core.Verdict.Unknown _ -> None
        in
        (decide, false, "budgeted chase, sound verdicts only")

(* definitive "not implied on untyped data", or [None] *)
let ref_untyped_not_implied ~budget ~clock ~sigma phi =
  let egd_free =
    List.for_all (fun c -> not (Path.is_empty (Constr.rhs c))) (phi :: sigma)
  in
  if List.for_all Pathlang.Fragment.in_pw (phi :: sigma) && egd_free then
    Option.map not (of_result (Core.Word_untyped.implies ~sigma phi))
  else
    match
      Core.Semidecide.implies
        ~ctl:(Engine.start (per_call ~budget ~clock))
        ~sigma phi
    with
    | Core.Verdict.Implied -> Some false
    | Core.Verdict.Refuted _ -> Some true
    | Core.Verdict.Unknown _ -> None

(* --- seeded regions ------------------------------------------------------- *)

let rng = Random.State.make [| 0xDEC1DE |]
let pick l = List.nth l (Random.State.int rng (List.length l))

let path ~min ~max alphabet =
  let n = min + Random.State.int rng (max - min + 1) in
  Path.of_labels (List.init n (fun _ -> Label.make (pick alphabet)))

(* few labels keep the enumeration fallback's space (2^(L*n^2)) small,
   so every chase call settles well inside its one-second slice and the
   verdicts do not depend on the clock *)
let ab = [ "a"; "b" ]
let word ?(eps = false) () =
  Constr.word ~lhs:(path ~min:1 ~max:3 ab)
    ~rhs:(if eps then Path.empty else path ~min:1 ~max:3 ab)

let general () =
  let prefix = path ~min:1 ~max:2 [ "a" ] in
  let lhs = path ~min:1 ~max:2 [ "a" ] and rhs = path ~min:0 ~max:2 [ "a" ] in
  if Random.State.bool rng then Constr.forward ~prefix ~lhs ~rhs
  else Constr.backward ~prefix ~lhs ~rhs

let bib_word () =
  let p s = Path.of_string s in
  pick
    [
      Constr.word ~lhs:(p "book.author") ~rhs:(p "person");
      Constr.word ~lhs:(p "person.wrote") ~rhs:(p "book");
      Constr.word ~lhs:(p "book.author.wrote") ~rhs:(p "book");
      Constr.word ~lhs:(p "book.ref") ~rhs:(p "book");
      Constr.word ~lhs:(p "book.ref.author") ~rhs:(p "person");
    ]

let sets = 6

let regions =
  let typed_m n =
    Core.Typed_m.random_constraints ~rng ~schema:Mschema.bib_m ~count:n
      ~max_len:2
  in
  [
    ("untyped P_w, eps-free", None, fun () -> List.init 4 (fun _ -> word ()));
    ( "untyped P_w with an eps conclusion",
      None,
      fun () -> word ~eps:true () :: List.init 3 (fun _ -> word ()) );
    ( "untyped general P_c",
      None,
      fun () ->
        general () :: List.init 2 (fun _ -> pick [ word (); general () ]) );
    ("M, all paths in Paths(Delta)", Some Mschema.bib_m, fun () -> typed_m 4);
    ( "M, one path outside Paths(Delta)",
      Some Mschema.bib_m,
      fun () ->
        Constr.word ~lhs:(Path.of_string "book.isbn")
          ~rhs:(Path.of_string "book")
        :: typed_m 3 );
    ( "M+",
      Some Mschema.example_3_1,
      fun () ->
        if Random.State.bool rng then List.init 4 (fun _ -> bib_word ())
        else general () :: List.init 2 (fun _ -> general ()) );
  ]

let instances =
  List.map
    (fun (name, schema, gen) ->
      (name, schema, List.init sets (fun _ -> gen ())))
    regions

let budget = Engine.Budget.v ~max_steps:64 ~max_nodes:64 ~timeout:60. ()

let drop i l = List.filteri (fun j _ -> j <> i) l

let show = function
  | Some true -> "implied"
  | Some false -> "not implied"
  | None -> "unknown"

(* --- checks ------------------------------------------------------------- *)

let test_region (name, schema, sets) () =
  List.iter
    (fun constrs ->
      let what =
        name ^ ": " ^ String.concat "; " (List.map Constr.to_string constrs)
      in
      let ref_decide, ref_exact, ref_how =
        ref_make_decider ?schema ~budget ~clock:(clock_of budget) constrs
      in
      let plan = Decide.plan ?schema (Decide.clock budget) constrs in
      check_bool (what ^ ": exact") ref_exact (Decide.exact plan);
      check_string (what ^ ": how") ref_how (Decide.how (Decide.route plan));
      let untyped =
        Decide.plan ~question:Decide.Refutation (Decide.clock budget) constrs
      in
      let all = List.init (List.length constrs) Fun.id in
      List.iteri
        (fun i phi ->
          let rest = drop i constrs and keep = drop i all in
          check_string
            (what ^ ": verdict on " ^ Constr.to_string phi)
            (show (ref_decide phi rest))
            (show (Decide.decide plan ~keep phi));
          (* the provenance question: a definitive untyped refutation *)
          check_string
            (what ^ ": untyped refutation of " ^ Constr.to_string phi)
            (show
               (Option.map not
                  (ref_untyped_not_implied ~budget ~clock:(clock_of budget)
                     ~sigma:rest phi)))
            (show (Decide.decide untyped ~keep phi)))
        constrs)
    sets

let row = function
  | Decide.Untyped_word -> "untyped word"
  | Decide.Untyped_word_eps -> "untyped word with eps"
  | Decide.Untyped_general -> "untyped general"
  | Decide.M_typed -> "M typed"
  | Decide.M_off_paths _ -> "M off Paths(Delta)"
  | Decide.M_plus _ -> "M+"

let test_table_covers_regions () =
  let rows =
    List.map
      (fun (name, schema, sets) ->
        match
          List.sort_uniq String.compare
            (List.map (fun cs -> row (Decide.cell ?schema cs)) sets)
        with
        | [ r ] -> r
        | rs ->
            Alcotest.failf "region %s spans %d table rows: %s" name
              (List.length rs) (String.concat ", " rs))
      instances
  in
  check_int "six regions, six distinct rows" (List.length regions)
    (List.length (List.sort_uniq String.compare rows))

(* --- subset plans ---------------------------------------------------------

   One plan per Sigma answers questions about any subset of it, named by
   positions; the word and typed-M routes skip the store pre-filter.
   Reference: a fresh procedure on the materialized sublist, behind a
   fresh store pre-filter on the word route, as [ref_make_decider] asks
   them. *)

type instance = {
  schema : Mschema.t option;
  sigma : Constr.t list;
  keeps : int list list;
      (** questions for one plan: positions, in any order, repeats
          allowed *)
  goal : Constr.t;
}

let print_instance i =
  Printf.sprintf "%sSigma = [%s], keeps = [%s], phi = %s"
    (match i.schema with None -> "untyped, " | Some _ -> "typed, ")
    (String.concat "; " (List.map Constr.to_string i.sigma))
    (String.concat " | "
       (List.map
          (fun k -> String.concat "," (List.map string_of_int k))
          i.keeps))
    (Constr.to_string i.goal)

let draw l rng = List.nth l (Random.State.int rng (List.length l))

(* Sigma over an M schema: well-sorted random constraints plus, half the
   time, word equalities between paths of any sorts, so subsets clash;
   some members repeat.  The goal's paths reach one label deeper than
   Sigma's, so they often lie outside Sigma's universe. *)
let gen_typed rng =
  let schema =
    if Random.State.bool rng then Mschema.bib_m
    else Mschema.random_m ~rng ~classes:3 ~fields:2 ~atoms:1
  in
  let paths = Schema_graph.paths_up_to schema 2 in
  let any_word () =
    Constr.word ~lhs:(draw paths rng) ~rhs:(draw paths rng)
  in
  let n = 1 + Random.State.int rng 5 in
  let sigma =
    List.init n (fun _ ->
        match Random.State.int rng 4 with
        | 0 when Random.State.bool rng -> any_word ()
        | _ -> (
            match
              Core.Typed_m.random_constraints ~rng ~schema ~count:1 ~max_len:2
            with
            | [ c ] -> c
            | _ -> any_word ()))
  in
  let sigma =
    if Random.State.int rng 4 = 0 then sigma @ [ draw sigma rng ] else sigma
  in
  let goal =
    match Random.State.int rng 3 with
    | 0 -> draw sigma rng
    | 1 ->
        let deeper = Schema_graph.paths_up_to schema 3 in
        Constr.word ~lhs:(draw deeper rng) ~rhs:(draw deeper rng)
    | _ -> (
        match
          Core.Typed_m.random_constraints ~rng ~schema ~count:1 ~max_len:3
        with
        | [ c ] -> c
        | _ -> draw sigma rng)
  in
  (Some schema, sigma, goal)

(* untyped word constraints over {a, b}, eps conclusions included, and
   now and then an eps premise (a rule on any top symbol) *)
let gen_word rng =
  let p ~min =
    Path.of_labels
      (List.init
         (min + Random.State.int rng (4 - min))
         (fun _ -> Label.make (draw ab rng)))
  in
  let c () =
    Constr.word
      ~lhs:(if Random.State.int rng 6 = 0 then Path.empty else p ~min:1)
      ~rhs:(p ~min:0)
  in
  let sigma = List.init (1 + Random.State.int rng 5) (fun _ -> c ()) in
  let sigma =
    if Random.State.int rng 4 = 0 then sigma @ [ draw sigma rng ] else sigma
  in
  let goal =
    if Random.State.bool rng then draw sigma rng
    else Constr.word ~lhs:(p ~min:0) ~rhs:(p ~min:0)
  in
  (None, sigma, goal)

let arb_instance gen =
  QCheck.make ~print:print_instance
    QCheck.Gen.(
      int >|= fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema, sigma, goal = gen rng in
      let n = List.length sigma in
      let keep _ =
        List.init (Random.State.int rng (n + 2)) (fun _ ->
            Random.State.int rng n)
      in
      (* plus Sigma minus one position and Sigma itself, the keep-sets
         the subset contexts answer from one saturation *)
      let left_out = Random.State.int rng n in
      let all = List.init n Fun.id in
      {
        schema;
        sigma;
        keeps =
          List.init 3 keep
          @ [ List.filter (( <> ) left_out) all; List.rev all ];
        goal;
      })

let ref_decider i =
  let d, _, _ =
    ref_make_decider ?schema:i.schema ~budget ~clock:(clock_of budget) i.sigma
  in
  d

(* several questions to one plan, so no question sees another's merges *)
let prop_subset_decide i =
  let plan = Decide.plan ?schema:i.schema (Decide.clock budget) i.sigma in
  let _, ref_exact, _ =
    ref_make_decider ?schema:i.schema ~budget ~clock:(clock_of budget) i.sigma
  in
  Decide.exact plan = ref_exact
  && List.for_all
       (fun keep ->
         let sub = List.filteri (fun j _ -> List.mem j keep) i.sigma in
         ref_decider i i.goal sub = Decide.decide plan ~keep i.goal)
       i.keeps

(* The redundancy report as it was computed before subset plans: every
   question a fresh list, and a cover candidate asked even when the
   rest of Sigma already refuted it. *)
let ref_redundancy i =
  let implied phi rest = ref_decider i phi rest = Some true in
  let unsat =
    match i.schema with
    | Some s -> Core.Typed_m.satisfiable s ~sigma:i.sigma = Ok false
    | None -> false
  in
  if unsat then ([], i.sigma)
  else
    let removable =
      List.filteri (fun j c -> implied c (drop j i.sigma)) i.sigma
    in
    let cover =
      List.fold_left
        (fun cover c ->
          let rec remove = function
            | [] -> []
            | c' :: rest when Constr.equal c c' -> rest
            | c' :: rest -> c' :: remove rest
          in
          let rest = remove cover in
          if List.length rest < List.length cover && implied c rest then rest
          else cover)
        i.sigma
        (List.rev_map snd (Store.completed_subsumption_ordering i.sigma))
    in
    (removable, cover)

let prop_redundancy_report i =
  let span = Pathlang.Span.v ~line:1 ~start_col:1 ~end_col:1 in
  let r =
    Analysis.Passes.redundancy_report ?schema:i.schema ~budget
      (List.map (fun c -> (c, span)) i.sigma)
  in
  let removable, cover = ref_redundancy i in
  r.Analysis.Passes.gave_up = 0
  && List.equal Constr.equal (List.map fst r.Analysis.Passes.removable)
       removable
  && List.equal Constr.equal r.Analysis.Passes.cover cover

let subset_tests =
  [
    q ~count:300 "typed-M decide ~keep = fresh pre-filter + closure"
      (arb_instance gen_typed) prop_subset_decide;
    q ~count:300 "word decide ~keep = fresh pre-filter + pre*"
      (arb_instance gen_word) prop_subset_decide;
    q ~count:150 "typed-M redundancy report = per-list greedy loop"
      (arb_instance gen_typed) prop_redundancy_report;
    q ~count:150 "word redundancy report = per-list greedy loop"
      (arb_instance gen_word) prop_redundancy_report;
  ]

let () =
  Alcotest.run "decide"
    [
      ( "differential",
        List.map
          (fun ((name, _, _) as r) ->
            Alcotest.test_case name `Quick (test_region r))
          instances );
      ( "table",
        [
          Alcotest.test_case "covers every region once" `Quick
            test_table_covers_regions;
        ] );
      ("subsets", subset_tests);
    ]
