module Constr = Pathlang.Constr
module Path = Pathlang.Path
module Label = Pathlang.Label
module PR = Automata.Prefix_rewrite

type error = Not_word_constraint of Pathlang.Constr.t

let no_derivation =
  "no derivation; the word rules are incomplete with an eps conclusion, try \
   pathctl chase"

let c_systems = Obs.Counter.make ~unit_:"contexts" "word.systems_compiled"

let check_word sigma =
  match List.find_opt (fun c -> not (Constr.is_word c)) sigma with
  | Some c -> Error (Not_word_constraint c)
  | None -> Ok ()

let rules_of sigma =
  List.map (fun c -> { PR.lhs = Constr.lhs c; rhs = Constr.rhs c }) sigma

type context = PR.context

let context ~sigma =
  Result.map
    (fun () ->
      Obs.Span.with_ "word.instance"
        ~args:[ ("sigma", string_of_int (List.length sigma)) ]
        (fun () ->
          Obs.Counter.incr c_systems;
          PR.context (rules_of sigma)))
    (check_word sigma)

let memo = Memo.create ()

let same_sigma a b = a == b || List.equal Constr.equal a b

(* The goal is checked before Sigma, as [check_word (phi :: sigma)]
   would. *)
let with_context ~sigma phi f =
  if not (Constr.is_word phi) then Error (Not_word_constraint phi)
  else
    Result.map
      (fun ctx -> f ctx (Constr.lhs phi) (Constr.rhs phi))
      (Memo.find_or_add memo ~same:same_sigma sigma (fun () -> context ~sigma))

let implies_in ctx phi =
  if not (Constr.is_word phi) then Error (Not_word_constraint phi)
  else Ok (PR.derives_in ctx (Constr.lhs phi) (Constr.rhs phi))

let implies ~sigma phi =
  with_context ~sigma phi (fun ctx alpha beta -> PR.derives_in ctx alpha beta)

(* ------------------------------------------------------------------ *)
(* Subset contexts: one masked saturation for every leave-one-out S.   *)
(* ------------------------------------------------------------------ *)

type subsets = {
  sigma : Constr.t array;
  words : bool;  (** every member is a word constraint *)
  blocks : context Lazy.t array;
      (** block [b]: Sigma with one variant per position [b * 62 + v]
          leaving that position out *)
}

let block_size = PR.max_variants

let subsets ~sigma =
  let arr = Array.of_list sigma in
  let n = Array.length arr in
  let rules = rules_of sigma in
  let block b =
    lazy
      (Obs.Span.with_ "word.instance"
         ~args:[ ("sigma", string_of_int n) ]
         (fun () ->
           Obs.Counter.incr c_systems;
           let first = b * block_size in
           let variants =
             List.init
               (min block_size (n - first))
               (fun v pos -> pos <> first + v)
           in
           PR.context ~variants rules))
  in
  {
    sigma = arr;
    words = Result.is_ok (check_word sigma);
    blocks = Array.init (max 1 ((n + block_size - 1) / block_size)) block;
  }

let implies_subset ss ~keep phi =
  let n = Array.length ss.sigma in
  let kept = Array.make n false in
  List.iter (fun i -> kept.(i) <- true) keep;
  let left_out = List.filter (fun i -> not kept.(i)) (List.init n Fun.id) in
  let answer ?variant b =
    Ok
      (PR.derives_in ?variant (Lazy.force ss.blocks.(b)) (Constr.lhs phi)
         (Constr.rhs phi))
  in
  if not (Constr.is_word phi) then Error (Not_word_constraint phi)
  else
    match left_out with
    | [] when ss.words ->
        (* any block's whole-list bit; prefer one already saturated *)
        let rec built b =
          if b + 1 >= Array.length ss.blocks || Lazy.is_val ss.blocks.(b) then b
          else built (b + 1)
        in
        answer (built 0)
    | [ i ] when ss.words -> answer ~variant:(i mod block_size) (i / block_size)
    | _ ->
        implies
          ~sigma:(List.filteri (fun i _ -> kept.(i)) (Array.to_list ss.sigma))
          phi

let implies_exn ~sigma phi =
  match implies ~sigma phi with
  | Ok b -> b
  | Error (Not_word_constraint c) ->
      invalid_arg
        (Format.asprintf "Word_untyped.implies_exn: %a is not a word constraint"
           Constr.pp c)

(* The reference engines compile the whole pushdown system per call
   (the rules' labels join the alphabet by themselves). *)
let with_system ~sigma phi f =
  Result.map
    (fun () ->
      let alphabet = Label.Set.elements (Constr.labels_used phi) in
      f (PR.compile ~alphabet (rules_of sigma)) (Constr.lhs phi) (Constr.rhs phi))
    (check_word (phi :: sigma))

let implies_via_post ~sigma phi = with_system ~sigma phi PR.derives_via_post

let derivation ?(max_frontier = 4096) ~sigma phi =
  with_context ~sigma phi (fun ctx alpha beta ->
      (* pre*({beta}) once; every candidate below is one walk *)
      let goal = PR.target ctx beta in
      if not (PR.accepts goal alpha) then Error "not implied"
      else if Path.equal alpha beta then Ok (Axioms.Reflexivity alpha)
      else begin
        (* BFS from alpha through words that still derive beta; the target
           is at the end of some shortest rewriting sequence, so BFS with
           the derives-filter finds it without wandering. *)
        let parent = Hashtbl.create 64 in
        let key = Path.to_string in
        let q = Queue.create () in
        Hashtbl.add parent (key alpha) None;
        Queue.add alpha q;
        let found = ref false in
        let frontier_budget = ref max_frontier in
        while (not !found) && not (Queue.is_empty q) do
          let w = Queue.pop q in
          let steps =
            (* one-step successors together with the rule that produced
               them and the surviving suffix *)
            List.filter_map
              (fun (r : PR.rule) ->
                match Path.strip_prefix ~prefix:r.PR.lhs w with
                | Some suffix -> Some (Path.concat r.PR.rhs suffix, r, suffix)
                | None -> None)
              (PR.context_rules ctx)
          in
          List.iter
            (fun (w', r, suffix) ->
              if (not !found) && not (Hashtbl.mem parent (key w')) then
                if PR.accepts goal w' then begin
                  decr frontier_budget;
                  if !frontier_budget >= 0 then begin
                    Hashtbl.add parent (key w') (Some (w, r, suffix));
                    Queue.add w' q;
                    if Path.equal w' beta then found := true
                  end
                end)
            steps
        done;
        if not !found then Error "frontier budget exhausted"
        else begin
          (* reconstruct the chain of one-step rewrites and build the
             transitivity/congruence derivation *)
          let rec chain w acc =
            match Hashtbl.find parent (key w) with
            | None -> acc
            | Some (prev, r, suffix) -> chain prev ((prev, r, suffix, w) :: acc)
          in
          let steps = chain beta [] in
          let step_derivation (_, (r : PR.rule), suffix, _) =
            let axiom =
              Axioms.Axiom (Constr.word ~lhs:r.PR.lhs ~rhs:r.PR.rhs)
            in
            if Path.is_empty suffix then axiom
            else Axioms.Right_congruence (axiom, suffix)
          in
          match List.map step_derivation steps with
          | [] -> Ok (Axioms.Reflexivity alpha)
          | d :: ds ->
              Ok
                (Axioms.simplify
                   (List.fold_left (fun acc d' -> Axioms.Transitivity (acc, d')) d ds))
        end
      end)

let consequences_sample ~sigma ~from ~max_steps =
  match check_word sigma with
  | Error _ -> []
  | Ok () ->
      let rules = rules_of sigma in
      let seen = Hashtbl.create 64 in
      let key = Path.to_string in
      let q = Queue.create () in
      Hashtbl.add seen (key from) ();
      Queue.add from q;
      let acc = ref [] in
      let steps = ref max_steps in
      while (not (Queue.is_empty q)) && !steps > 0 do
        decr steps;
        let w = Queue.pop q in
        acc := w :: !acc;
        List.iter
          (fun w' ->
            if not (Hashtbl.mem seen (key w')) then begin
              Hashtbl.add seen (key w') ();
              Queue.add w' q
            end)
          (PR.one_step rules w)
      done;
      List.rev !acc
