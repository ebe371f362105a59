let c_trans = Obs.Counter.make ~unit_:"transitions" "saturation.trans_added"

let check_states (pds : Pds.t) (a : Nfa.t) =
  if Nfa.state_count a < pds.control_count then
    invalid_arg "Saturation: automaton is missing control states"

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
