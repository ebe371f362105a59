(* The four workloads of the end-to-end benchmark.

   Each workload turns a seed into text inputs — the program receives
   nothing else — and splits its own work in three:
     - generation (the bench's own, untimed),
     - set-up: the program calls that load the inputs, timed and
       repeated by the harness,
     - items: one operation each.  [run] makes the operation's program
       calls, wrapped in spans named after the modules they enter, and
       returns the check of its output, which the harness runs outside
       the timed interval.

   Checks use sources independent of the route under test: I_r
   certificates re-checked by [Core.Axioms], countermodels re-validated
   and model-checked, the post* word procedure against pre*, the monoid
   word problem against the chase, untyped RPQ answers against typed
   ones.  The warm-up pass runs the full check once per item; the timed
   passes only have to reproduce the warm-up output. *)

module Path = Pathlang.Path
module Label = Pathlang.Label
module Constr = Pathlang.Constr
module Graph = Sgraph.Graph
module Check = Sgraph.Check
module Mschema = Schema.Mschema
module Typecheck = Schema.Typecheck
module SG = Schema.Schema_graph

type check = unit -> (bool, string) result
(** [Ok decided]: the output is correct; [decided] is false for a
    correct but inconclusive verdict (a chase [Unknown]). *)

type item = { id : string; run : unit -> check }

type t = {
  name : string;
  prepare : seed:int -> smoke:bool -> dir:string -> unit -> unit -> item array;
      (** [prepare] generates the inputs (writing files under [dir] if
          the workload reads files); the function it returns is the
          set-up, and the set-up's result builds the items. *)
}

let span = Obs.Span.with_

(* Every chase runs under the same deterministic budget: no wall-clock
   limit, so verdicts do not depend on the host.  500 steps and nodes
   settle the same 38 of the 43 catalog instances as the default 2000,
   at a twentieth of the time: an exhausted chase costs about the
   square of its budget, and at 2000 one pass of the chase workload
   takes 12 s, too long to take a median over passes. *)
let budget = Core.Engine.Budget.v ~max_steps:500 ~max_nodes:500 ()

(* SARIF digests of the lint-ci warm-up, by file, for [--pin]. *)
let sarif_digests : (string * string) list ref = ref []

(* Pinned digests to compare against; set by the harness for seed 1. *)
let pinned : (string, string) Hashtbl.t option ref = ref None

(* ------------------------------------------------------------------ *)
(* Generation helpers                                                   *)
(* ------------------------------------------------------------------ *)

let rng_for seed salt = Random.State.make [| seed; salt |]

(* Inputs that stay the same for every seed: a deployment's schemas
   and theories change rarely, while its files and queries vary. *)
let fixed_rng () = Random.State.make [| 0x5eed |]
let pick rng a = a.(Random.State.int rng (Array.length a))
let pick_list rng l = List.nth l (Random.State.int rng (List.length l))

let word_path rng labels ~min ~max =
  let n = min + Random.State.int rng (max - min + 1) in
  Path.of_labels (List.init n (fun _ -> pick rng labels))

(* epsilon-free: the word procedure is complete only without eps
   right-hand sides (Word_untyped's scope note) *)
let word_sigma rng labels ~count ~max_len =
  List.init count (fun _ ->
      Constr.word
        ~lhs:(word_path rng labels ~min:1 ~max:max_len)
        ~rhs:(word_path rng labels ~min:1 ~max:max_len))

(* A goal implied by construction: at most [steps] prefix rewrites
   alpha ->* beta with rules of Sigma (reflexivity, transitivity,
   right-congruence). *)
let derived_word_goal rng sigma labels ~steps =
  let rules = Array.of_list sigma in
  let r0 = pick rng rules in
  let start =
    Path.concat (Constr.lhs r0) (word_path rng labels ~min:0 ~max:2)
  in
  let rec rewrite w k =
    if k = 0 then w
    else
      match
        List.filter (fun c -> Path.is_prefix (Constr.lhs c) w) sigma
      with
      | [] -> w
      | applicable ->
          let c = pick_list rng applicable in
          let rest = Option.get (Path.strip_prefix ~prefix:(Constr.lhs c) w) in
          rewrite (Path.concat (Constr.rhs c) rest) (k - 1)
  in
  Constr.word ~lhs:start ~rhs:(rewrite start steps)

let random_word_goal rng labels =
  Constr.word
    ~lhs:(word_path rng labels ~min:1 ~max:3)
    ~rhs:(word_path rng labels ~min:1 ~max:3)

let rec schema_walk rng schema tau n =
  if n = 0 then Path.empty
  else
    match SG.out_edges schema tau with
    | [] -> Path.empty
    | es ->
        let k, tau' = pick_list rng es in
        Path.cons k (schema_walk rng schema tau' (n - 1))

(* Over an M schema both sides of [to_word_equality c] reach one node
   (Lemmas 4.7/4.8), so any common extension is implied. *)
let derived_typed_goal rng schema sigma =
  let c = pick_list rng sigma in
  let p, q =
    match Constr.kind c with
    | Constr.Forward ->
        ( Path.concat (Constr.prefix c) (Constr.lhs c),
          Path.concat (Constr.prefix c) (Constr.rhs c) )
    | Constr.Backward ->
        ( Constr.prefix c,
          Path.concat (Constr.prefix c)
            (Path.concat (Constr.lhs c) (Constr.rhs c)) )
  in
  let tau = Option.get (SG.type_of_path schema p) in
  let delta = schema_walk rng schema tau (Random.State.int rng 3) in
  let p, q = if Random.State.bool rng then (p, q) else (q, p) in
  Constr.word ~lhs:(Path.concat p delta) ~rhs:(Path.concat q delta)

(* Typed Sigma whose canonical model validates: a satisfiable theory,
   so goals are not all vacuous. *)
let satisfiable_typed_sigma rng schema ~count ~max_len =
  let rec draw fuel =
    let sigma =
      Core.Typed_m.random_constraints ~rng ~schema ~count ~max_len
    in
    let ok =
      match Core.Typed_m.canonical_model schema ~sigma with
      | Ok t ->
          Typecheck.validate schema t = Ok ()
          && Check.holds_all t.Typecheck.graph sigma
      | Error _ -> false
    in
    if ok || fuel = 0 then sigma else draw (fuel - 1)
  in
  draw 50

let text_of cs =
  String.concat "" (List.map (fun c -> Constr.to_string c ^ "\n") cs)

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let parse_constraints src =
  match span "pathlang.parser" (fun () -> Pathlang.Parser.constraints_of_string src) with
  | Ok cs -> cs
  | Error e -> failwith ("generated constraints do not parse: " ^ e)

let parse_schema src =
  match span "schema.schema_parser" (fun () -> Schema.Schema_parser.of_string src) with
  | Ok s -> s
  | Error e -> failwith ("generated schema does not parse: " ^ e)

(* The warm-up pass runs [full] on an item's first output; later
   outputs must equal it. *)
let checked ~equal ~decided full =
  let first = ref None in
  fun out () ->
    match !first with
    | Some o ->
        if equal o out then Ok (decided o)
        else Error "output differs from the warm-up pass"
    | None -> (
        match full out with
        | Ok () ->
            first := Some out;
            Ok (decided out)
        | Error e -> Error e)

let confirm b what = if b then Ok () else Error what

(* Independent confirmation of typed-M answers. *)
let check_typed schema ~sigma ~phi = function
  | Ok (Core.Typed_m.Implied d) ->
      confirm (Core.Axioms.proves ~sigma ~goal:phi d)
        "I_r certificate does not check"
  | Ok (Core.Typed_m.Not_implied t) ->
      confirm
        (Typecheck.validate schema t = Ok ()
        && Check.holds_all t.Typecheck.graph sigma
        && not (Check.holds t.Typecheck.graph phi))
        "countermodel does not refute the goal"
  | Ok (Core.Typed_m.Vacuous _) -> Error "satisfiable Sigma reported vacuous"
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* lint-ci                                                              *)
(* ------------------------------------------------------------------ *)

(* Per-commit CI: lint one constraint file and render SARIF.  Half the
   files are typed (three M schemas, |Sigma| in {16, 32, 48}; one in
   four also runs the PC7xx interaction analyzer), half are untyped
   epsilon-free word files (|Sigma| in {8, 16, 24}); every schema x
   size stratum holds the same number of files.  The seed is a commit
   to a fixed repository: it rewrites about one constraint in sixteen
   in every file.  The tail is the few heaviest files, and their cost
   moves by a tenth when an eighth of their constraints change, so
   files drawn afresh for every seed would let the tail hang on the
   seed.  Files of the interaction analyzer hold 16 word constraints:
   on other constraints its untyped provenance check runs the chase
   under a hard-wired 1 s deadline, which would make the output depend
   on the host, and at |Sigma| = 48 one such file costs as much as
   forty others. *)

type lint_file = {
  path : string;
  schema_file : string option;
  interact : bool;
  sigma : Constr.t list;
  lint_schema : Mschema.t option;
}

let typed_word_sigma rng schema ~count =
  let rec fill acc =
    if List.length acc >= count then List.filteri (fun i _ -> i < count) acc
    else
      let more =
        List.filter
          (fun c -> Constr.is_word c && not (Path.is_empty (Constr.rhs c)))
          (Core.Typed_m.random_constraints ~rng ~schema ~count ~max_len:3)
      in
      fill (acc @ more)
  in
  fill []

let sarif_pc300_lines sarif =
  let ( let* ) = Option.bind in
  let results =
    let* doc = Result.to_option (Obs.Json.parse sarif) in
    let* runs = Option.bind (Obs.Json.member "runs" doc) Obs.Json.as_list in
    let* run = List.nth_opt runs 0 in
    Option.bind (Obs.Json.member "results" run) Obs.Json.as_list
  in
  Option.map
    (List.filter_map (fun r ->
         let* rule = Option.bind (Obs.Json.member "ruleId" r) Obs.Json.as_string in
         if rule <> "PC300" then None
         else
           let* locs = Option.bind (Obs.Json.member "locations" r) Obs.Json.as_list in
           let* loc = List.nth_opt locs 0 in
           let* phys = Obs.Json.member "physicalLocation" loc in
           let* region = Obs.Json.member "region" phys in
           Option.bind (Obs.Json.member "startLine" region) Obs.Json.as_int))
    results

let drop_nth i l = List.filteri (fun j _ -> j <> i) l

(* Every PC300 ("implied by the rest of Sigma") claim, re-decided by an
   independent route: an I_r certificate for typed files, post*
   saturation for word files. *)
let confirm_pc300 f line =
  let i = line - 1 in
  match List.nth_opt f.sigma i with
  | None -> Error (Printf.sprintf "PC300 on line %d, past the last constraint" line)
  | Some c -> (
      let rest = drop_nth i f.sigma in
      match f.lint_schema with
      | Some schema -> (
          match Core.Typed_m.decide schema ~sigma:rest ~phi:c with
          | Ok (Core.Typed_m.Implied d) ->
              confirm
                (Core.Axioms.proves ~sigma:rest ~goal:c d)
                "I_r certificate does not check"
          | _ -> Error (Printf.sprintf "PC300 on line %d is not implied" line))
      | None ->
          confirm
            (Core.Word_untyped.implies_via_post ~sigma:rest c = Ok true)
            (Printf.sprintf "PC300 on line %d is not implied (post*)" line))

let lint_ci =
  let prepare ~seed ~smoke ~dir =
    let rng = rng_for seed 1 and fixed = fixed_rng () in
    let schemas =
      [|
        Mschema.bib_m;
        Mschema.random_m ~rng:fixed ~classes:5 ~fields:3 ~atoms:2;
        Mschema.random_m ~rng:fixed ~classes:6 ~fields:3 ~atoms:2;
      |]
    in
    let schema_files =
      Array.mapi
        (fun i s ->
          let path = Filename.concat dir (Printf.sprintf "schema%d.schema" i) in
          let src = Schema.Schema_parser.to_string s in
          write_file path src;
          (path, src))
        schemas
    in
    let n = if smoke then 2 else 96 in
    (* a commit rewrites about one constraint in sixteen in every file
       of a fixed repository *)
    let commit gen =
      List.map2
        (fun old fresh -> if Random.State.int rng 16 = 0 then fresh else old)
        (gen fixed) (gen rng)
    in
    let typed =
      List.init n (fun i ->
          let s = i mod 3 and kind = i / 3 mod 4 in
          let interact = kind = 3 in
          let size = if smoke || interact then 16 else [| 16; 32; 48 |].(kind) in
          let sigma =
            commit (fun rng ->
                if interact then typed_word_sigma rng schemas.(s) ~count:size
                else
                  Core.Typed_m.random_constraints ~rng ~schema:schemas.(s)
                    ~count:size ~max_len:3)
          in
          {
            path = Filename.concat dir (Printf.sprintf "t%02d.constraints" i);
            schema_file = Some (fst schema_files.(s));
            interact;
            sigma;
            lint_schema = Some schemas.(s);
          })
    in
    let labels = Array.of_list (Sgraph.Gen.alphabet 4) in
    let untyped =
      List.init n (fun i ->
          let size = if smoke then 8 else [| 8; 16; 24 |].(i mod 3) in
          {
            path = Filename.concat dir (Printf.sprintf "u%02d.constraints" i);
            schema_file = None;
            interact = false;
            sigma =
              commit (fun rng -> word_sigma rng labels ~count:size ~max_len:2);
            lint_schema = None;
          })
    in
    let files = typed @ untyped in
    let sources = List.map (fun f -> (f, text_of f.sigma)) files in
    List.iter (fun (f, src) -> write_file f.path src) sources;
    (* set-up: the pre-flight syntax check of every input file *)
    fun () ->
      Array.iter (fun (_, src) -> ignore (parse_schema src)) schema_files;
      List.iter (fun (_, src) -> ignore (parse_constraints src)) sources;
      fun () ->
        sarif_digests := [];
        Array.of_list
          (List.map
             (fun f ->
               let id = Filename.basename f.path in
               let full sarif =
                 let md5 = Digest.to_hex (Digest.string sarif) in
                 sarif_digests := (id, md5) :: !sarif_digests;
                 let ( let* ) = Result.bind in
                 let* () =
                   match !pinned with
                   | None -> Ok ()
                   | Some tbl ->
                       confirm
                         (Hashtbl.find_opt tbl id = Some md5)
                         "SARIF differs from the pinned digest"
                 in
                 match sarif_pc300_lines sarif with
                 | None -> Error "SARIF does not parse"
                 | Some lines ->
                     List.fold_left
                       (fun acc line ->
                         let* () = acc in
                         confirm_pc300 f line)
                       (Ok ()) lines
               in
               let check =
                 checked ~equal:String.equal ~decided:(fun _ -> true) full
               in
               {
                 id;
                 run =
                   (fun () ->
                     let diags =
                       span "analysis.lint" (fun () ->
                           Analysis.Lint.lint_paths ~budget
                             ?schema_file:f.schema_file ~interact:f.interact
                             ~sigma_file:f.path ())
                     in
                     check
                       (span "analysis.render" (fun () ->
                            Analysis.Diagnostic.render_sarif diags)));
               })
             files)
  in
  { name = "lint-ci"; prepare }

(* ------------------------------------------------------------------ *)
(* decide-many                                                          *)
(* ------------------------------------------------------------------ *)

(* implies-style traffic: many goals against a few fixed Sigma, each
   call parsing its goal and rebuilding everything for the same Sigma.
   Four word Sigma (epsilon-free, 6 labels) and four typed Sigma (bib_m
   and three random M schemas), |Sigma| = 32, 256 goals each, half
   implied by construction.  The Sigma are fixed and the seed draws the
   goals: the cost of deciding against one random Sigma can be ten
   times that of another, so Sigma drawn from the seed would make the
   seeds disagree by half.  The median falls where the cheaper word
   theories overlap the dearer typed ones; with 64 goals each it moved
   by 6% between seeds. *)

type theory =
  | Word of Constr.t list
  | Typed of Mschema.t * Constr.t list

let decide_many =
  let prepare ~seed ~smoke ~dir:_ =
    let rng = rng_for seed 2 and fixed = fixed_rng () in
    let size = if smoke then 8 else 32 and goals = if smoke then 8 else 256 in
    let labels = Array.of_list (Sgraph.Gen.alphabet 6) in
    let word =
      List.init (if smoke then 1 else 4) (fun _ ->
          let sigma = word_sigma fixed labels ~count:size ~max_len:3 in
          let goal i =
            if i mod 2 = 0 then
              derived_word_goal rng sigma labels
                ~steps:(1 + Random.State.int rng 3)
            else random_word_goal rng labels
          in
          (None, sigma, List.init goals goal))
    in
    let typed =
      List.init (if smoke then 1 else 4) (fun k ->
          let schema =
            if k = 0 then Mschema.bib_m
            else Mschema.random_m ~rng:fixed ~classes:(4 + k) ~fields:3 ~atoms:2
          in
          let sigma =
            satisfiable_typed_sigma fixed schema ~count:size ~max_len:3
          in
          let goal i =
            if i mod 2 = 0 then derived_typed_goal rng schema sigma
            else
              List.hd
                (Core.Typed_m.random_constraints ~rng ~schema ~count:1
                   ~max_len:4)
          in
          (Some (Schema.Schema_parser.to_string schema), sigma, List.init goals goal))
    in
    let inputs =
      List.map
        (fun (schema_src, sigma, goals) ->
          (schema_src, text_of sigma, List.map Constr.to_string goals))
        (word @ typed)
    in
    (* set-up: load each theory (its schema and Sigma files) *)
    fun () ->
      let theories =
        List.map
          (fun (schema_src, sigma_src, goals) ->
            let sigma = parse_constraints sigma_src in
            let th =
              match schema_src with
              | None -> Word sigma
              | Some src -> Typed (parse_schema src, sigma)
            in
            (th, goals))
          inputs
      in
      fun () ->
        let implied = ref 0 and total = ref 0 in
        let items =
          List.concat
            (List.mapi
               (fun t (th, goals) ->
                 List.mapi
                   (fun g goal_src ->
                     let id = Printf.sprintf "sigma%d/goal%03d" t g in
                     let parse () =
                       match
                         span "pathlang.parser" (fun () ->
                             Pathlang.Parser.constraint_of_string goal_src)
                       with
                       | Ok c -> c
                       | Error e -> failwith e
                     in
                     let phi = Result.get_ok (Pathlang.Parser.constraint_of_string goal_src) in
                     incr total;
                     match th with
                     | Word sigma ->
                         let oracle =
                           Result.to_option
                             (Core.Word_untyped.implies_via_post ~sigma phi)
                         in
                         if oracle = Some true then incr implied;
                         let check =
                           checked
                             ~equal:(fun a b ->
                               Result.to_option a = Result.to_option b)
                             ~decided:(fun _ -> true)
                             (fun v ->
                               confirm
                                 (oracle <> None && Result.to_option v = oracle)
                                 "pre* and post* procedures disagree")
                         in
                         {
                           id;
                           run =
                             (fun () ->
                               let phi = parse () in
                               check
                                 (span "core.word_untyped" (fun () ->
                                      Core.Word_untyped.implies ~sigma phi)));
                         }
                     | Typed (schema, sigma) ->
                         (match Core.Typed_m.implies schema ~sigma ~phi with
                         | Ok true -> incr implied
                         | _ -> ());
                         let kind = function
                           | Ok (Core.Typed_m.Implied _) -> 1
                           | Ok (Core.Typed_m.Not_implied _) -> 2
                           | Ok (Core.Typed_m.Vacuous _) -> 3
                           | Error _ -> 4
                         in
                         let check =
                           checked
                             ~equal:(fun a b -> kind a = kind b)
                             ~decided:(fun _ -> true)
                             (check_typed schema ~sigma ~phi)
                         in
                         {
                           id;
                           run =
                             (fun () ->
                               let phi = parse () in
                               check
                                 (span "core.typed_m" (fun () ->
                                      Core.Typed_m.decide schema ~sigma ~phi)));
                         })
                   goals)
               theories)
        in
        let share = float_of_int !implied /. float_of_int !total in
        if share < 0.25 || share > 0.75 then
          failwith
            (Printf.sprintf "decide-many: %d of %d goals implied, outside 25-75%%"
               !implied !total);
        Array.of_list items
  in
  { name = "decide-many"; prepare }

(* ------------------------------------------------------------------ *)
(* rpq-eval                                                             *)
(* ------------------------------------------------------------------ *)

(* Typed RPQ answering over one large conforming bib_m instance
   (~4k nodes, ~14k edges): product BFS with the decision procedures
   idle.  One query in 32 is star-heavy: each pass runs every star
   prefix below twice, and each closes over two of the instance's
   random functions, so it reaches most of the graph whatever the seed.
   (A closure over one function, such as ref*, walks a cycle of about
   sqrt n nodes; mixing the two kinds would tie the workload's cost to
   the seed.)  The rest are short schema walks, some with a branch the
   schema rules out.  They cost a thousandth of a star query, and there
   are many of them because the seed picks their labels: with 112, the
   median moved by 7% between seeds. *)

let star_prefixes =
  [|
    "person.wrote.(ref|author.wrote)*";
    "book.(ref|author.wrote)*";
    "book.(ref|author.wrote)+";
    "person.(wrote.author|wrote.ref.author)*.wrote";
    "book.(ref|author.wrote|ref.ref)*";
    "book.author.(wrote.ref.author|wrote.author)*.wrote";
    "person.wrote.(ref.ref|author.wrote.ref|ref)*";
    "book.ref.(author.wrote|ref)*";
  |]

let book_attrs = [| "title"; "year"; "author.name"; "author.SSN" |]

(* The [j]-th short query: its length and decoration come from [j],
   so every seed has the same mix of shapes; the seed picks the
   labels. *)
let short_query rng j =
  let schema = Mschema.bib_m in
  let steps = 2 + (j mod 4) and decorated = 1 + (j / 4 mod 4) in
  let rec go tau n acc =
    if n = 0 then List.rev acc
    else
      match
        List.filter
          (fun (_, t) -> n = 1 || SG.out_edges schema t <> [])
          (SG.out_edges schema tau)
      with
      | [] -> List.rev acc
      | es ->
          let k, tau' = pick_list rng es in
          let tok = Label.to_string k in
          let tok =
            if n <> decorated then tok
            else
              match j / 16 mod 3 with
              | 0 -> tok ^ "?"
              | 1 -> (
                  (* a second live label, when the sort has one *)
                  match List.filter (fun (k2, _) -> k2 <> k) es with
                  | [] -> tok
                  | others ->
                      Printf.sprintf "(%s|%s)" tok
                        (Label.to_string (fst (pick_list rng others))))
              | _ -> Printf.sprintf "(%s|name.title)" tok
              (* a branch the schema rules out *)
          in
          go tau' (n - 1) (tok :: acc)
  in
  String.concat "." (go (Mschema.dbtype schema) steps [])

(* The seed updates a fixed database: it re-points about a quarter of
   the reference edges (ref, author, wrote) at other objects of the
   same class, which keeps the instance conforming. *)
let updated_database rng ~oids =
  let t =
    Schema.Instance.to_structure
      (Schema.Instance_gen.random ~rng:(fixed_rng ()) ~oids_per_class:oids
         Mschema.bib_m)
  in
  let objects c =
    let sort = Schema.Mtype.Class (Schema.Mtype.cname c) in
    Array.of_list
      (List.sort compare
         (Hashtbl.fold
            (fun v ty acc -> if Schema.Mtype.equal ty sort then v :: acc else acc)
            t.Typecheck.typing []))
  in
  let books = objects "Book" and persons = objects "Person" in
  let edges =
    Graph.fold_edges t.Typecheck.graph
      (fun acc x k y ->
        let k = Label.to_string k in
        let y =
          match k with
          | ("ref" | "wrote") when Random.State.int rng 4 = 0 -> pick rng books
          | "author" when Random.State.int rng 4 = 0 -> pick rng persons
          | _ -> y
        in
        (x, k, y) :: acc)
      []
  in
  Sgraph.Io.to_string (Graph.of_edges (List.rev edges))

let rpq_eval =
  let prepare ~seed ~smoke ~dir:_ =
    let rng = rng_for seed 3 in
    let schema = Mschema.bib_m in
    let graph_src =
      updated_database rng ~oids:(if smoke then 40 else 2000)
    in
    let nq = if smoke then 4 else 512 in
    let queries =
      List.init nq (fun i ->
          if i mod 32 = 0 then
            let k = i / 32 in
            star_prefixes.(k mod 8) ^ "." ^ book_attrs.((k mod 8 + (k / 8)) mod 4)
          else short_query rng i)
    in
    (* set-up: load the graph and type its nodes once *)
    fun () ->
      let g =
        match span "sgraph.io" (fun () -> Sgraph.Io.of_string graph_src) with
        | Ok g -> g
        | Error e -> failwith ("generated graph does not load: " ^ e)
      in
      let class_of = span "rpq.type_graph" (fun () -> Rpq.Typecheck.type_graph schema g) in
      fun () ->
        Array.of_list
          (List.mapi
             (fun i q ->
               let expected =
                 match Rpq.Parser.parse q with
                 | Ok ast -> Rpq.Eval.eval g (Rpq.Parser.regex_of ast)
                 | Error e -> failwith (Rpq.Parser.error_to_string e)
               in
               let check =
                 checked ~equal:Graph.Node_set.equal ~decided:(fun _ -> true)
                   (fun answers ->
                     confirm
                       (Graph.Node_set.equal answers expected)
                       "typed answers differ from untyped evaluation")
               in
               {
                 id = Printf.sprintf "q%03d" i;
                 run =
                   (fun () ->
                     let ast =
                       match span "rpq.parser" (fun () -> Rpq.Parser.parse q) with
                       | Ok a -> a
                       | Error e -> failwith (Rpq.Parser.error_to_string e)
                     in
                     let tc = span "rpq.typecheck" (fun () -> Rpq.Typecheck.run schema ast) in
                     check
                       (span "rpq.eval" (fun () ->
                            Rpq.Eval.eval_typed ~class_of tc g)));
               })
             queries)
  in
  { name = "rpq-eval"; prepare }

(* ------------------------------------------------------------------ *)
(* chase                                                                *)
(* ------------------------------------------------------------------ *)

(* The undecidable P_c cell: one budgeted semi-decision per instance.
   The Lemma 4.5 encodings of every catalog presentation x sample test
   (43 instances, fixed), plus 16 seeded epsilon-free word instances
   over three labels.  The seeded goals are implied by construction,
   one rewrite away: a random goal can send the chase through its
   whole budget, so the number of exhausted chases, and with it the
   workload's cost, would depend on the seed; one rewrite keeps them
   below the median, which therefore falls among the fixed encodings.
   27 encodings are settled by the chase in microseconds; the other 16
   exhaust the budget and fall back to bounded enumeration, so the
   median times a short chase and the tail an exhausted one and
   [Sgraph.Enumerate]. *)

type chase_oracle =
  | Monoid of Monoid.Word_problem.verdict
  | Word of bool

let chase =
  let prepare ~seed ~smoke ~dir:_ =
    let rng = rng_for seed 4 in
    let catalog =
      List.concat_map
        (fun (name, pres) ->
          List.mapi
            (fun j test ->
              let phi, _ = Core.Encode_pwk.encode_test test in
              ( Printf.sprintf "%s/%d" name j,
                Core.Encode_pwk.encode pres,
                phi,
                fun _ _ -> Monoid (Monoid.Word_problem.decide pres test) ))
            (Monoid.Examples.sample_tests pres))
        (if smoke then
           [ ("cyclic3", Monoid.Examples.cyclic 3); ("free2", Monoid.Examples.free 2) ]
         else Monoid.Examples.catalog)
    in
    let labels = Array.of_list (Sgraph.Gen.alphabet 3) in
    let seeded =
      List.init (if smoke then 2 else 16) (fun i ->
          let sigma = word_sigma rng labels ~count:5 ~max_len:2 in
          let phi = derived_word_goal rng sigma labels ~steps:1 in
          ( Printf.sprintf "word/%02d" i,
            sigma,
            phi,
            fun sigma phi -> Word (Core.Word_untyped.implies_exn ~sigma phi) ))
    in
    let inputs =
      List.map
        (fun (id, sigma, phi, oracle) ->
          (id, text_of sigma, Constr.to_string phi, oracle))
        (catalog @ seeded)
    in
    (* set-up: parse every instance *)
    fun () ->
      let parsed =
        List.map
          (fun (id, sigma_src, phi_src, oracle) ->
            let phi =
              match parse_constraints phi_src with
              | [ c ] -> c
              | _ -> failwith "generated goal does not parse"
            in
            (id, parse_constraints sigma_src, phi, oracle))
          inputs
      in
      fun () ->
        Array.of_list
          (List.map
             (fun (id, sigma, phi, oracle) ->
               let oracle = oracle sigma phi in
               let full = function
                 | Core.Verdict.Implied ->
                     confirm
                       (match oracle with
                       | Monoid (Separated _ | Distinct) | Word false -> false
                       | Monoid (Equal | Unknown) | Word true -> true)
                       "Implied, but the independent oracle refutes"
                 | Core.Verdict.Refuted g ->
                     Result.bind
                       (confirm
                          (Check.holds_all g sigma && not (Check.holds g phi))
                          "refutation graph does not refute")
                       (fun () ->
                         confirm
                           (match oracle with
                           | Monoid Equal | Word true -> false
                           | _ -> true)
                           "Refuted, but the independent oracle proves")
                 | Core.Verdict.Unknown _ -> Ok ()
               in
               let kind = function
                 | Core.Verdict.Implied -> 1
                 | Core.Verdict.Refuted _ -> 2
                 | Core.Verdict.Unknown _ -> 3
               in
               let check =
                 checked
                   ~equal:(fun a b -> kind a = kind b)
                   ~decided:(fun v -> not (Core.Verdict.is_unknown v))
                   full
               in
               {
                 id;
                 run =
                   (fun () ->
                     check
                       (span "core.semidecide" (fun () ->
                            Core.Semidecide.implies
                              ~ctl:(Core.Engine.start budget) ~sigma phi)));
               })
             parsed)
  in
  { name = "chase"; prepare }

let all = [ lint_ci; decide_many; rpq_eval; chase ]
