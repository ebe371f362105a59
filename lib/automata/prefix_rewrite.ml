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

let pds s = s.pds

let configuration s rho =
  check_query s rho;
  (star, Path.to_labels rho @ [ s.bottom ])

let derives_via_post s alpha beta =
  let start = configuration s alpha and goal = configuration s beta in
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
  build star (snd start);
  let a = Saturation.post_star normalized a in
  Saturation.accepts_config a star (snd goal)

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
   over any labels.

   A context saturates several rule sets at once.  Variant [v] keeps the
   rules its predicate accepts; the bit after the last variant stands
   for all the rules.  Every summary transition and every read carries
   an int mask, and bit [b] says the entry is derivable in rule set
   [b]: a read starts with the bits of the sets that keep its rule, a
   step ANDs the mask read, and an entry reached again ORs the new bits
   in.  Each bit is a saturation of its own, so it equals the plain
   saturation of its rule set. *)

module Ints = Set.Make (Int)

let c_trans = Obs.Counter.make ~unit_:"transitions" "saturation.trans_added"
let bottom_sym = -1
let symbols rho = Array.of_list (List.map Label.id (Path.to_labels rho))
let stack_symbols rho = Array.append (symbols rho) [| bottom_sym |]
let find_all tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)

(* <src, top> -> <dst, push>, one piece of a rule.  A [wild] rule comes
   from an eps => v rule: on any top symbol g it pushes v . g; [push]
   holds v and [top] is unused.  [live] holds the bits of the rule sets
   that keep the rule. *)
type crule = {
  id : int;
  src : int;
  top : int;
  dst : int;
  push : int array;
  wild : bool;
  live : int;
}

(* [r.push.(0 .. i-1)] leads from [r.dst] to the read's control in the
   rule sets of [m]. *)
type read = { r : crule; i : int; mutable m : int }

(* One control's targets on one symbol, each with its mask, in parallel
   arrays: the goal phase tests a bit without following a pointer. *)
type targets = {
  mutable dst : int array;
  mutable msk : int array;
  mutable n : int;
}

let no_targets = { dst = [||]; msk = [||]; n = 0 }

let targets tbl x =
  match Hashtbl.find_opt tbl x with Some ts -> ts | None -> no_targets

type context = {
  rules : rule list;
  controls : int;
  variants : int;
  all : int;  (** the bit of the whole rule list *)
  summary : (int, targets) Hashtbl.t array;
      (** control -> symbol -> control targets: the goal-free part of
          pre* *)
  cross : (int, read list) Hashtbl.t array;
      (** control [c] -> symbol [x] -> the reads [(r, i)] at [c] with
          [r.push.(i) = x]: a goal transition [c -x-> j] fires [r] *)
  wild_cross : read list array;
      (** control [c] -> the reads of wild rules whose whole [push]
          reaches [c], so that the re-pushed top is read from [c] *)
}

let max_variants = Sys.int_size - 1

let crules_of ~live rules =
  let next_state = ref 1 and next_id = ref 0 and crules = ref [] in
  List.iteri
    (fun pos r ->
      let live = live pos in
      let add src top dst push wild =
        crules := { id = !next_id; src; top; dst; push; wild; live } :: !crules;
        incr next_id
      in
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
  (!next_state, !next_id, List.rev !crules)

(* One worklist saturation builds the summary and the crossing index
   together.  A read [(r, i, c)] waits in [cross] for transitions on
   [r.push.(i)] out of [c], and each transition added or grown wakes
   the reads waiting on it.  A complete read adds [r]'s transition (for
   a wild rule, one per transition out of [c], now and later).  Masks
   only grow, so each read and each transition is processed at most
   once per bit. *)
let context ?(variants = []) rules =
  let nv = List.length variants in
  if nv > max_variants then
    invalid_arg "Prefix_rewrite.context: too many variants";
  let all = 1 lsl nv in
  let full = all lor (all - 1) in
  (* the bits of the variants that leave position [pos] out *)
  let kill pos =
    List.fold_left ( lor ) 0
      (List.mapi (fun b keeps -> if keeps pos then 0 else 1 lsl b) variants)
  in
  let controls, ids, crules =
    crules_of ~live:(fun pos -> full land lnot (kill pos)) rules
  in
  let width =
    1 + List.fold_left (fun w r -> max w (Array.length r.push)) 0 crules
  in
  let summary = Array.init controls (fun _ -> Hashtbl.create 4) in
  let cross = Array.init controls (fun _ -> Hashtbl.create 4) in
  let wild_cross = Array.make controls [] in
  let seen = Hashtbl.create (4 * ids) in
  let rec add p g s m =
    if m <> 0 then begin
      let ts =
        match Hashtbl.find_opt summary.(p) g with
        | Some ts -> ts
        | None ->
            let ts = { dst = Array.make 2 0; msk = Array.make 2 0; n = 0 } in
            Hashtbl.add summary.(p) g ts;
            ts
      in
      let k = ref 0 in
      while !k < ts.n && ts.dst.(!k) <> s do incr k done;
      if !k = ts.n then begin
        if ts.n = Array.length ts.dst then begin
          ts.dst <- Array.append ts.dst ts.dst;
          ts.msk <- Array.append ts.msk ts.msk
        end;
        ts.dst.(ts.n) <- s;
        ts.msk.(ts.n) <- m;
        ts.n <- ts.n + 1;
        Obs.Counter.incr c_trans;
        fire p g s m
      end
      else if m lor ts.msk.(!k) <> ts.msk.(!k) then begin
        ts.msk.(!k) <- m lor ts.msk.(!k);
        fire p g s ts.msk.(!k)
      end
    end
  and fire p g s m =
    List.iter
      (fun rd -> read rd.r (rd.i + 1) s (rd.m land m))
      (find_all cross.(p) g);
    List.iter (fun rd -> add rd.r.src g s (rd.m land m)) wild_cross.(p)
  and read r i c m =
    if m <> 0 then begin
      let key = (((r.id * width) + i) * controls) + c in
      match Hashtbl.find_opt seen key with
      | Some rd ->
          if m lor rd.m <> rd.m then begin
            rd.m <- m lor rd.m;
            resume rd c
          end
      | None ->
          let rd = { r; i; m } in
          Hashtbl.add seen key rd;
          if i < Array.length r.push then begin
            let x = r.push.(i) in
            Hashtbl.replace cross.(c) x (rd :: find_all cross.(c) x)
          end
          else if r.wild then wild_cross.(c) <- rd :: wild_cross.(c);
          resume rd c
    end
  (* follow [rd] over the transitions out of [c] as they stand; later
     ones fire it from [add] *)
  and resume rd c =
    let r = rd.r in
    if rd.i < Array.length r.push then begin
      let ts = targets summary.(c) r.push.(rd.i) in
      for k = 0 to ts.n - 1 do
        read r (rd.i + 1) ts.dst.(k) (rd.m land ts.msk.(k))
      done
    end
    else if r.wild then
      Hashtbl.fold (fun g ts acc -> (g, ts) :: acc) summary.(c) []
      |> List.iter (fun (g, ts) ->
             for k = 0 to ts.n - 1 do
               add r.src g ts.dst.(k) (rd.m land ts.msk.(k))
             done)
    else add r.src r.top c rd.m
  in
  List.iter (fun r -> read r 0 r.dst r.live) crules;
  { rules; controls; variants = nv; all; summary; cross; wild_cross }

let context_rules ctx = ctx.rules

let bit ctx = function
  | None -> ctx.all
  | Some v when v >= 0 && v < ctx.variants -> 1 lsl v
  | Some _ -> invalid_arg "Prefix_rewrite: no such variant"

type target = {
  ctx : context;
  bit : int;
  stack : int array;  (** beta . bottom; chain state [k] follows [k] symbols *)
  into : (int, int list) Hashtbl.t;
      (** [key c x] -> chain states [k] with [c -x-> k] *)
}

let key ctx c x = ((x + 1) * ctx.controls) + c

let target ?variant ctx beta =
  let bit = bit ctx variant in
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
              (fun { r; i; m } ->
                (* r.push crosses into the chain at i, landing on j; the
                   rest of the push must follow the chain *)
                let n = Array.length r.push - i - 1 in
                if m land bit <> 0 && spells r.push (i + 1) j n then
                  if not r.wild then add r.src r.top (j + n)
                  else if j + n < len then add r.src stack.(j + n) (j + n + 1))
              (find_all ctx.cross.(c) x);
            List.iter
              (fun rd -> if rd.m land bit <> 0 then add rd.r.src x j)
              ctx.wild_cross.(c);
            drain ()
      in
      drain ();
      { ctx; bit; stack; into })

let step_controls summary bit set x =
  Ints.fold
    (fun c acc ->
      let ts = targets summary.(c) x in
      let rec go k acc =
        if k = ts.n then acc
        else
          go (k + 1)
            (if ts.msk.(k) land bit <> 0 then Ints.add ts.dst.(k) acc else acc)
      in
      go 0 acc)
    set Ints.empty

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
        (step_controls t.ctx.summary t.bit controls x, chain'))
      (Ints.singleton star, Ints.empty)
      (stack_symbols alpha)
  in
  Ints.mem len chain

let derives_in ?variant ctx alpha beta = accepts (target ?variant ctx beta) alpha
