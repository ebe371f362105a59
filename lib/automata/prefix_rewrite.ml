module Label = Pathlang.Label
module Path = Pathlang.Path

type rule = { lhs : Path.t; rhs : Path.t }

type system = {
  rules : rule list;
  alphabet : Label.t list;
  bottom : Label.t;
  pds : Pds.t;  (** star state is 0 *)
}

let star = 0

let fresh_bottom alphabet =
  let taken = List.map Label.to_string alphabet in
  let rec go name = if List.mem name taken then go (name ^ "_") else name in
  Label.make (go "_bot")

let compile ~alphabet rules =
  let rule_labels =
    List.fold_left
      (fun acc r ->
        Label.Set.union acc
          (Label.Set.union (Path.labels_used r.lhs) (Path.labels_used r.rhs)))
      Label.Set.empty rules
  in
  let alphabet =
    Label.Set.elements
      (Label.Set.union rule_labels
         (List.fold_left (fun s k -> Label.Set.add k s) Label.Set.empty alphabet))
  in
  let bottom = fresh_bottom alphabet in
  let next_state = ref 1 in
  let fresh_state () =
    let s = !next_state in
    incr next_state;
    s
  in
  let pds_rules =
    List.concat_map
      (fun r ->
        let rhs = Path.to_labels r.rhs in
        match Path.to_labels r.lhs with
        | [] ->
            (* eps => v : on any top symbol (including bottom), push v. *)
            List.map
              (fun g -> { Pds.p = star; gamma = g; q = star; push = rhs @ [ g ] })
              (bottom :: alphabet)
        | [ u1 ] -> [ { Pds.p = star; gamma = u1; q = star; push = rhs } ]
        | u1 :: rest ->
            (* Consume u1 .. um through chain states, then push the rhs. *)
            let rec chain p = function
              | [] -> assert false
              | [ um ] -> [ { Pds.p; gamma = um; q = star; push = rhs } ]
              | ui :: more ->
                  let s = fresh_state () in
                  { Pds.p; gamma = ui; q = s; push = [] } :: chain s more
            in
            let s1 = fresh_state () in
            { Pds.p = star; gamma = u1; q = s1; push = [] } :: chain s1 rest)
      rules
  in
  let pds = Pds.make ~control_count:!next_state pds_rules in
  { rules; alphabet; bottom; pds }

let alphabet s = s.alphabet
let rules s = s.rules

let check_query s rho =
  Label.Set.iter
    (fun k ->
      if not (List.exists (Label.equal k) s.alphabet) then
        invalid_arg
          (Printf.sprintf "Prefix_rewrite: label %s outside compiled alphabet"
             (Label.to_string k)))
    (Path.labels_used rho)

let stack_of s rho = Path.to_labels rho @ [ s.bottom ]

let derives_generic saturate pds s alpha beta =
  check_query s alpha;
  check_query s beta;
  (* Automaton accepting exactly the configuration <star, beta . bottom>. *)
  let a = Nfa.create () in
  Nfa.ensure_states a pds.Pds.control_count;
  let rec build src = function
    | [] -> Nfa.set_final a src
    | k :: rest ->
        let t = Nfa.add_state a in
        Nfa.add_trans a src k t;
        build t rest
  in
  build star (stack_of s beta);
  let a = saturate pds a in
  Saturation.accepts_config a star (stack_of s alpha)

let derives s alpha beta = derives_generic Saturation.pre_star s.pds s alpha beta

let derives_via_post s alpha beta =
  check_query s alpha;
  check_query s beta;
  let normalized = Pds.normalize s.pds in
  let a = Nfa.create () in
  Nfa.ensure_states a normalized.Pds.control_count;
  let rec build src = function
    | [] -> Nfa.set_final a src
    | k :: rest ->
        let t = Nfa.add_state a in
        Nfa.add_trans a src k t;
        build t rest
  in
  build star (stack_of s alpha);
  let a = Saturation.post_star normalized a in
  Saturation.accepts_config a star (stack_of s beta)

let derives_bfs ?max_configs ?max_len s alpha beta =
  Saturation.bfs_reachable ?max_configs ?max_len s.pds
    ~start:(star, stack_of s alpha)
    ~goal:(star, stack_of s beta)

let one_step rules rho =
  List.filter_map
    (fun r ->
      match Path.strip_prefix ~prefix:r.lhs rho with
      | Some sigma -> Some (Path.concat r.rhs sigma)
      | None -> None)
    rules

(* ------------------------------------------------------------------ *)
(* Decision contexts: pre* split into a part that depends on the       *)
(* rules alone and a per-goal phase.                                    *)
(* ------------------------------------------------------------------ *)

(* The P-automaton for a goal beta is the control states plus a chain
   star -b1-> 1 -b2-> ... -> L reading beta . bottom.  Chain states have
   no edges back into control states, so the control -> control
   transitions of pre* never read the chain: they are saturated once, in
   the context.  The goal phase adds only control -> chain transitions.

   Symbols are interned label ids, with [bottom_sym] for the marker: no
   label can equal it, so the context needs no alphabet and takes goals
   over any labels. *)

module Ints = Set.Make (Int)

let c_trans = Obs.Counter.make ~unit_:"transitions" "saturation.trans_added"
let bottom_sym = -1
let symbols rho = Array.of_list (List.map Label.id (Path.to_labels rho))
let stack_symbols rho = Array.append (symbols rho) [| bottom_sym |]
let find_all tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)

(* <src, top> -> <dst, push>.  A [wild] rule comes from an eps => v rule:
   on any top symbol g it pushes v . g; [push] holds v and [top] is
   unused. *)
type crule = {
  id : int;
  src : int;
  top : int;
  dst : int;
  push : int array;
  wild : bool;
}

type context = {
  rules : rule list;
  controls : int;
  summary : (int, int list) Hashtbl.t array;
      (** control -> symbol -> control targets: the goal-free part of
          pre* *)
  cross : (int, (crule * int) list) Hashtbl.t array;
      (** control [c] -> symbol [x] -> [(r, i)] such that reading
          [r.push.(0 .. i-1)] from [r.dst] reaches [c], and
          [r.push.(i) = x]: a goal transition [c -x-> j] fires [r] *)
  wild_cross : crule list array;
      (** control [c] -> wild rules whose whole [push] reaches [c], so
          that the re-pushed top is read from [c] *)
}

let crules_of rules =
  let next_state = ref 1 and next_id = ref 0 and crules = ref [] in
  let add src top dst push wild =
    crules := { id = !next_id; src; top; dst; push; wild } :: !crules;
    incr next_id
  in
  List.iter
    (fun r ->
      let push = symbols r.rhs in
      match List.map Label.id (Path.to_labels r.lhs) with
      | [] -> add star bottom_sym star push true
      | u1 :: rest ->
          (* consume u1 .. um through chain states, then push the rhs *)
          let rec chain p u = function
            | [] -> add p u star push false
            | u' :: more ->
                let s = !next_state in
                incr next_state;
                add p u s [||] false;
                chain s u' more
          in
          chain star u1 rest)
    rules;
  (!next_state, List.rev !crules)

let step_controls summary set x =
  Ints.fold
    (fun c acc -> List.fold_left (Fun.flip Ints.add) acc (find_all summary.(c) x))
    set Ints.empty

(* One worklist saturation builds the summary and the crossing index
   together.  A read [(r, i, c)] says that [r.push.(0 .. i-1)] leads from
   [r.dst] to [c]; it waits in [cross] for transitions on [r.push.(i)]
   out of [c], and each transition added wakes the reads waiting on it.
   A complete read adds [r]'s transition (for a wild rule, one per
   transition out of [c], now and later).  Each read and each transition
   is processed once. *)
let context rules =
  let controls, crules = crules_of rules in
  let summary = Array.init controls (fun _ -> Hashtbl.create 4) in
  let cross = Array.init controls (fun _ -> Hashtbl.create 4) in
  let wild_cross = Array.make controls [] in
  let seen = Hashtbl.create 64 in
  let rec add p g s =
    let ts = find_all summary.(p) g in
    if not (List.mem s ts) then begin
      Hashtbl.replace summary.(p) g (s :: ts);
      Obs.Counter.incr c_trans;
      List.iter (fun (r, i) -> read r (i + 1) s) (find_all cross.(p) g);
      List.iter (fun r -> add r.src g s) wild_cross.(p)
    end
  and read r i c =
    if not (Hashtbl.mem seen (r.id, i, c)) then begin
      Hashtbl.add seen (r.id, i, c) ();
      if i < Array.length r.push then begin
        let x = r.push.(i) in
        Hashtbl.replace cross.(c) x ((r, i) :: find_all cross.(c) x);
        List.iter (read r (i + 1)) (find_all summary.(c) x)
      end
      else if r.wild then begin
        wild_cross.(c) <- r :: wild_cross.(c);
        Hashtbl.fold (fun g ss acc -> (g, ss) :: acc) summary.(c) []
        |> List.iter (fun (g, ss) -> List.iter (add r.src g) ss)
      end
      else add r.src r.top c
    end
  in
  List.iter (fun r -> read r 0 r.dst) crules;
  { rules; controls; summary; cross; wild_cross }

let context_rules ctx = ctx.rules

type target = {
  ctx : context;
  stack : int array;  (** beta . bottom; chain state [k] follows [k] symbols *)
  into : (int, int list) Hashtbl.t;
      (** [key c x] -> chain states [k] with [c -x-> k] *)
}

let key ctx c x = ((x + 1) * ctx.controls) + c

let target ctx beta =
  Obs.Span.with_ "saturation.pre_star" (fun () ->
      let stack = stack_symbols beta in
      let len = Array.length stack in
      let into = Hashtbl.create 16 in
      let work = ref [] in
      let add c x k =
        let ks = find_all into (key ctx c x) in
        if not (List.mem k ks) then begin
          Hashtbl.replace into (key ctx c x) (k :: ks);
          Obs.Counter.incr c_trans;
          work := (c, x, k) :: !work
        end
      in
      (* [w.(i ..)] spells [stack.(j ..)] for [n] symbols *)
      let rec spells w i j n =
        n = 0 || (j < len && w.(i) = stack.(j) && spells w (i + 1) (j + 1) (n - 1))
      in
      add star stack.(0) 1;
      let rec drain () =
        match !work with
        | [] -> ()
        | (c, x, j) :: rest ->
            work := rest;
            List.iter
              (fun (r, i) ->
                (* r.push crosses into the chain at i, landing on j; the
                   rest of the push must follow the chain *)
                let n = Array.length r.push - i - 1 in
                if spells r.push (i + 1) j n then
                  if not r.wild then add r.src r.top (j + n)
                  else if j + n < len then add r.src stack.(j + n) (j + n + 1))
              (find_all ctx.cross.(c) x);
            List.iter (fun r -> add r.src x j) ctx.wild_cross.(c);
            drain ()
      in
      drain ();
      { ctx; stack; into })

let accepts t alpha =
  let len = Array.length t.stack in
  let _, chain =
    Array.fold_left
      (fun (controls, chain) x ->
        let chain' =
          Ints.fold
            (fun k acc ->
              if k < len && t.stack.(k) = x then Ints.add (k + 1) acc else acc)
            chain Ints.empty
        in
        let chain' =
          Ints.fold
            (fun c acc ->
              List.fold_left (Fun.flip Ints.add) acc
                (find_all t.into (key t.ctx c x)))
            controls chain'
        in
        (step_controls t.ctx.summary controls x, chain'))
      (Ints.singleton star, Ints.empty)
      (stack_symbols alpha)
  in
  Ints.mem len chain

let derives_in ctx alpha beta = accepts (target ctx beta) alpha
