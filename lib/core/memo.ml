type ('k, 'v) t = ('k * 'v) option ref Domain.DLS.key

let create () = Domain.DLS.new_key (fun () -> ref None)

let find_or_add m ~same k build =
  let slot = Domain.DLS.get m in
  match !slot with
  | Some (k', v) when same k' k -> v
  | _ ->
      let v = build () in
      slot := Some (k, v);
      v
