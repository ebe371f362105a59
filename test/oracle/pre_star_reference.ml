module Label = Pathlang.Label
module Path = Pathlang.Path
module Constr = Pathlang.Constr
module Nfa = Automata.Nfa
module Pds = Automata.Pds
module PR = Automata.Prefix_rewrite

let pre_star (pds : Pds.t) a =
  if Nfa.state_count a < pds.control_count then
    invalid_arg "Pre_star_reference: automaton is missing control states";
  let a = Nfa.copy a in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Pds.rule) ->
        Nfa.State_set.iter
          (fun s ->
            if not (Nfa.mem_trans a r.p r.gamma s) then begin
              Nfa.add_trans a r.p r.gamma s;
              changed := true
            end)
          (Nfa.reach a r.q r.push))
      pds.rules
  done;
  a

let bfs_reachable ?(max_configs = 100_000) ?max_len (pds : Pds.t) ~start ~goal =
  (* Configurations longer than [max_len] are pruned to keep memory
     bounded on stack-growing systems; once anything is pruned, an empty
     queue no longer proves unreachability, so the answer degrades from
     [Some false] to [None]. *)
  let max_len =
    match max_len with
    | Some m -> m
    | None -> List.length (snd start) + List.length (snd goal) + 24
  in
  let seen = Hashtbl.create 256 in
  let key (p, w) = (p, List.map Label.to_string w) in
  let q = Queue.create () in
  Hashtbl.add seen (key start) ();
  Queue.add start q;
  let budget = ref max_configs in
  let pruned = ref false in
  let rec go () =
    if Queue.is_empty q then if !pruned then None else Some false
    else if !budget <= 0 then None
    else begin
      decr budget;
      let c = Queue.pop q in
      if key c = key goal then Some true
      else begin
        List.iter
          (fun c' ->
            if List.length (snd c') > max_len then pruned := true
            else if not (Hashtbl.mem seen (key c')) then begin
              Hashtbl.add seen (key c') ();
              Queue.add c' q
            end)
          (Pds.step pds c);
        go ()
      end
    end
  in
  go ()

let derives s alpha beta =
  let p, start = PR.configuration s alpha in
  let q, goal = PR.configuration s beta in
  let pds = PR.pds s in
  (* the automaton accepting exactly <q, beta . bottom> *)
  let a = Nfa.create () in
  Nfa.ensure_states a pds.Pds.control_count;
  let last =
    List.fold_left
      (fun src k ->
        let t = Nfa.add_state a in
        Nfa.add_trans a src k t;
        t)
      q goal
  in
  Nfa.set_final a last;
  Nfa.accepts_from (pre_star pds a) p start

let derives_bfs ?max_configs ?max_len s alpha beta =
  bfs_reachable ?max_configs ?max_len (PR.pds s)
    ~start:(PR.configuration s alpha) ~goal:(PR.configuration s beta)

let derivation_bfs ?max_configs ~sigma phi =
  Result.map
    (fun () ->
      let rules =
        List.map (fun c -> { PR.lhs = Constr.lhs c; rhs = Constr.rhs c }) sigma
      in
      let alphabet = Label.Set.elements (Constr.labels_used phi) in
      derives_bfs ?max_configs
        (PR.compile ~alphabet rules)
        (Constr.lhs phi) (Constr.rhs phi))
    (Core.Word_untyped.check_word (phi :: sigma))
