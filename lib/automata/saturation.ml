module Label = Pathlang.Label

let c_trans = Obs.Counter.make ~unit_:"transitions" "saturation.trans_added"

(* distribution of per-call pre* work *)
let h_trans = Obs.Histogram.make ~unit_:"transitions" "saturation.trans_per_call"

let check_states (pds : Pds.t) (a : Nfa.t) =
  if Nfa.state_count a < pds.control_count then
    invalid_arg "Saturation: automaton is missing control states"

let pre_star (pds : Pds.t) a =
  check_states pds a;
  Obs.Span.with_ "saturation.pre_star" (fun () ->
  let a = Nfa.copy a in
  let added = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Pds.rule) ->
        let targets = Nfa.reach a r.q r.push in
        Nfa.State_set.iter
          (fun s ->
            if not (Nfa.mem_trans a r.p r.gamma s) then begin
              Nfa.add_trans a r.p r.gamma s;
              Obs.Counter.incr c_trans;
              incr added;
              changed := true
            end)
          targets)
      pds.rules
  done;
  if Obs.enabled () then Obs.Histogram.observe h_trans (float_of_int !added);
  a)

let post_star (pds : Pds.t) a =
  check_states pds a;
  List.iter
    (fun (r : Pds.rule) ->
      if List.length r.push > 2 then
        invalid_arg "Saturation.post_star: PDS not normalized")
    pds.rules;
  Obs.Span.with_ "saturation.post_star" (fun () ->
  let a = Nfa.copy a in
  (* One helper state per push-2 rule. *)
  let helper =
    List.filter_map
      (fun (r : Pds.rule) ->
        match r.push with
        | [ _; _ ] -> Some (r, Nfa.add_state a)
        | _ -> None)
      pds.rules
  in
  let find_helper r = List.assq r (List.map (fun (r, s) -> (r, s)) helper) in
  let gamma_targets p gamma =
    (* all s with p -gamma->* s, allowing epsilon steps around the letter *)
    Nfa.step a (Nfa.State_set.singleton p) gamma
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Pds.rule) ->
        let sources = gamma_targets r.p r.gamma in
        match r.push with
        | [] ->
            Nfa.State_set.iter
              (fun s ->
                if not (Nfa.State_set.mem s (Nfa.eps_closure a (Nfa.State_set.singleton r.q)))
                then begin
                  Nfa.add_eps a r.q s;
                  Obs.Counter.incr c_trans;
                  changed := true
                end)
              sources
        | [ g' ] ->
            Nfa.State_set.iter
              (fun s ->
                if not (Nfa.mem_trans a r.q g' s) then begin
                  Nfa.add_trans a r.q g' s;
                  Obs.Counter.incr c_trans;
                  changed := true
                end)
              sources
        | [ g'; g'' ] ->
            let h = find_helper r in
            if not (Nfa.mem_trans a r.q g' h) then begin
              Nfa.add_trans a r.q g' h;
              Obs.Counter.incr c_trans;
              changed := true
            end;
            Nfa.State_set.iter
              (fun s ->
                if not (Nfa.mem_trans a h g'' s) then begin
                  Nfa.add_trans a h g'' s;
                  Obs.Counter.incr c_trans;
                  changed := true
                end)
              sources
        | _ -> assert false)
      pds.rules
  done;
  a)

let accepts_config a p w = Nfa.accepts_from a p w

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
