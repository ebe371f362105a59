let is_bounded ~alpha ~k phi =
  Constr.kind phi = Constr.Forward
  && Path.equal (Constr.prefix phi) (Path.snoc alpha k)
  && (not (Path.is_empty (Constr.lhs phi)))
  && not (Path.is_prefix (Path.singleton k) (Constr.lhs phi))

type partition = {
  alpha : Path.t;
  k : Label.t;
  sigma_k : Constr.t list;
  sigma_r : Constr.t list;
}

(* A member of Sigma_r must have prefix alpha . rho' with K not a prefix of
   rho'; when rho' is empty the member must be the special forward form with
   rhs = K (it asserts membership of the local database's entry point). *)
let valid_sigma_r ~alpha ~k phi =
  match Path.strip_prefix ~prefix:alpha (Constr.prefix phi) with
  | None -> false
  | Some rho' ->
      if Path.is_prefix (Path.singleton k) rho' then false
      else if Path.is_empty rho' then
        Constr.kind phi = Constr.Forward
        && Path.equal (Constr.rhs phi) (Path.singleton k)
      else true

let partition ~alpha ~k sigma =
  let rec go sigma_k sigma_r = function
    | [] -> Ok { alpha; k; sigma_k = List.rev sigma_k; sigma_r = List.rev sigma_r }
    | phi :: rest ->
        if is_bounded ~alpha ~k phi then go (phi :: sigma_k) sigma_r rest
        else if valid_sigma_r ~alpha ~k phi then go sigma_k (phi :: sigma_r) rest
        else
          Error
            (Format.asprintf
               "constraint %a is neither bounded by (%a, %a) nor a valid \
                other-local-database constraint"
               Constr.pp phi Path.pp alpha Label.pp k)
  in
  go [] [] sigma

let infer_bound phi =
  let prefix = Constr.prefix phi in
  let rec splits acc rev_front = function
    | [] -> acc
    | lab :: rest ->
        let alpha = Path.of_labels (List.rev rev_front) in
        let acc =
          if Path.is_empty (Path.of_labels rest) && is_bounded ~alpha ~k:lab phi
          then (alpha, lab) :: acc
          else acc
        in
        splits acc (lab :: rev_front) rest
  in
  (* Only the split at the last label can make [prefix = alpha . k]; we walk
     all positions anyway so that the function stays correct if the
     definition of boundedness is ever generalized. *)
  List.rev (splits [] [] (Path.to_labels prefix))

let find_bound ?phi sigma =
  let candidates =
    match phi with
    | Some phi -> infer_bound phi
    | None -> List.concat_map infer_bound sigma
  in
  List.find_opt
    (fun (alpha, k) -> Result.is_ok (partition ~alpha ~k sigma))
    candidates
