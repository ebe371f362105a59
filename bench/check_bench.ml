(* Validate a BENCH_table1.json emitted by [main.exe -- timing] and gate
   wall-clock regressions against a checked-in baseline.

     check_bench NEW [BASELINE]

   Exit status: 0 when NEW is well-formed (and within 3x of BASELINE at
   the largest common sweep size, when a baseline is given); 1 when NEW
   is malformed; 2 on a regression.  Wall-clock comparisons only ever
   run cell-by-cell at one size, so a quick-mode file checks cleanly
   against a quick-mode baseline. *)

module J = Obs.Json

let max_slowdown = 3.0

(* The obs registry's disabled path must stay under 2% of a decide
   call; the timing harness prices it into the obs-disabled-overhead
   cell as a permille counter, gated here. *)
let max_overhead_permille = 20

(* The domain-pool scaling contract: the enumeration fan-out must reach
   >= 1.8x at 4 domains.  Speedup is a property of the host, so the
   gate only applies when the machine that produced the file had at
   least [min_gate_cores] cores (the cell records
   [scaling.host_cores]); on smaller hosts the cell is still required
   to be well-formed but the ratio is informational. *)
let min_speedup_x4_permille = 1800
let min_gate_cores = 4

(* An exhausted chase must cost about its budget, not its square: each
   repair pays for the edges it changed.  The rescan of Sigma per
   repair fitted 2.05 on this sweep. *)
let max_exhaust_exponent = 1.5

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("check_bench: " ^ s);
      exit 1)
    fmt

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> s
  | exception Sys_error m -> fail "%s" m

let parse path =
  match J.parse (read_file path) with
  | Ok j -> j
  | Error m -> fail "%s: %s" path m

let get ctx = function Some v -> v | None -> fail "%s" ctx

type cell = {
  name : string;
  sizes : int list;
  wall_ns : float list;
  exponent : float option;
  counters : (string * int) list;
}

(* Shape-check one cell object; every malformation is fatal. *)
let validate_cell path j =
  let field name as_ty =
    get
      (Printf.sprintf "%s: cell missing or mis-typed field %S" path name)
      (Option.bind (J.member name j) as_ty)
  in
  let name = field "cell" J.as_string in
  let ctx msg = Printf.sprintf "%s: cell %S: %s" path name msg in
  ignore (field "claim" J.as_string);
  let counters =
    List.map
      (fun (k, v) ->
        (k, get (ctx ("counter " ^ k ^ " must be an integer")) (J.as_int v)))
      (field "counters" J.as_obj)
  in
  let exponent =
    match J.member "exponent" j with
    | Some J.Null -> None
    | Some ((J.Float _ | J.Int _) as v) -> J.as_float v
    | _ -> fail "%s" (ctx "exponent must be a number (null when unmeasured)")
  in
  let sizes =
    List.map
      (fun v -> get (ctx "sizes must be integers") (J.as_int v))
      (field "sizes" J.as_list)
  in
  let floats fname ~lo ~what =
    List.map
      (fun v ->
        match J.as_float v with
        | Some f when Float.is_finite f && f >= lo -> f
        | _ -> fail "%s" (ctx (fname ^ " entries must be " ^ what)))
      (field fname J.as_list)
  in
  let wall_ns =
    floats "wall_ns" ~lo:Float.min_float ~what:"positive numbers"
  in
  let minor_words =
    floats "minor_words" ~lo:0. ~what:"non-negative numbers"
  in
  if sizes = [] then fail "%s" (ctx "empty sweep");
  if
    List.length wall_ns <> List.length sizes
    || List.length minor_words <> List.length sizes
  then fail "%s" (ctx "sizes/wall_ns/minor_words lengths disagree");
  { name; sizes; wall_ns; exponent; counters }

let validate path =
  let doc = parse path in
  (match J.member "schema_version" doc with
  | Some (J.Int 1) -> ()
  | _ -> fail "%s: schema_version must be 1" path);
  (match J.member "quick" doc with
  | Some (J.Bool _) -> ()
  | _ -> fail "%s: quick must be a boolean" path);
  let cells =
    get
      (Printf.sprintf "%s: cells must be a list" path)
      (Option.bind (J.member "cells" doc) J.as_list)
  in
  if cells = [] then fail "%s: no cells" path;
  List.map (validate_cell path) cells

(* Compare at the largest size both sweeps measured, so baselines stay
   usable when the sweep grid changes. *)
let compare_cell ~fresh ~base =
  let common = List.filter (fun n -> List.mem n base.sizes) fresh.sizes in
  match List.fold_left (fun acc n -> max acc n) min_int common with
  | n when n = min_int -> None
  | n ->
      let at c =
        List.assoc n (List.combine c.sizes c.wall_ns)
      in
      Some (n, at fresh, at base)

let () =
  let fresh_path, base_path =
    match Array.to_list Sys.argv with
    | [ _; f ] -> (f, None)
    | [ _; f; b ] -> (f, Some b)
    | _ -> fail "usage: check_bench NEW [BASELINE]"
  in
  let fresh = validate fresh_path in
  Printf.printf "check_bench: %s is well-formed (%d cells)\n" fresh_path
    (List.length fresh);
  (* absolute gate, checked even without a baseline: the disabled-mode
     instrumentation budget is a contract, not a relative drift *)
  (match List.find_opt (fun c -> c.name = "obs-disabled-overhead") fresh with
  | None -> ()
  | Some c -> (
      match List.assoc_opt "obs.overhead_permille" c.counters with
      | None ->
          fail "%s: obs-disabled-overhead cell lacks obs.overhead_permille"
            fresh_path
      | Some permille ->
          Printf.printf "  %-24s %d permille (gate %d)\n" c.name permille
            max_overhead_permille;
          if permille > max_overhead_permille then begin
            Printf.eprintf
              "check_bench: disabled-mode obs overhead %d permille exceeds \
               the %d permille (2%%) budget\n"
              permille max_overhead_permille;
            exit 2
          end));
  (* absolute gate on the exhausted chase's scaling shape *)
  (match List.find_opt (fun c -> c.name = "pc-chase-exhaust-bicyclic") fresh with
  | None -> ()
  | Some c -> (
      match c.exponent with
      | None -> fail "%s: pc-chase-exhaust-bicyclic has no fitted exponent" fresh_path
      | Some e ->
          Printf.printf "  %-24s exponent %.2f (gate %.1f)\n" c.name e
            max_exhaust_exponent;
          if e > max_exhaust_exponent then begin
            Printf.eprintf
              "check_bench: exhausted chase fits exponent %.2f in its budget, \
               above %.1f\n"
              e max_exhaust_exponent;
            exit 2
          end));
  (* absolute gate on the multicore contract, conditional on the host:
     a 1-core runner cannot exhibit speedup, so the cell's recorded
     core count decides whether the ratio is enforced or informational *)
  (match
     List.find_opt (fun c -> c.name = "scaling-enum-countermodel") fresh
   with
  | None -> ()
  | Some c -> (
      match
        ( List.assoc_opt "scaling.host_cores" c.counters,
          List.assoc_opt "scaling.speedup_x4_permille" c.counters )
      with
      | Some cores, Some permille ->
          if cores >= min_gate_cores then begin
            Printf.printf
              "  %-24s %d permille at 4 domains (gate %d, host %d cores)\n"
              c.name permille min_speedup_x4_permille cores;
            if permille < min_speedup_x4_permille then begin
              Printf.eprintf
                "check_bench: enumeration speedup %d permille at 4 domains \
                 is below the %d permille (1.8x) contract on a %d-core \
                 host\n"
                permille min_speedup_x4_permille cores;
              exit 2
            end
          end
          else
            Printf.printf
              "  %-24s gate skipped: host had %d cores (< %d); measured %d \
               permille at 4 domains\n"
              c.name cores min_gate_cores permille
      | _ ->
          fail
            "%s: scaling-enum-countermodel cell lacks scaling.host_cores / \
             scaling.speedup_x4_permille counters"
            fresh_path));
  match base_path with
  | None -> ()
  | Some bp ->
      let base = validate bp in
      let regressed = ref false in
      List.iter
        (fun fc ->
          match List.find_opt (fun bc -> bc.name = fc.name) base with
          | None ->
              Printf.printf "  %-24s new cell, no baseline\n" fc.name
          | Some bc -> (
              match compare_cell ~fresh:fc ~base:bc with
              | None ->
                  Printf.printf "  %-24s no common sweep size\n" fc.name
              | Some (n, f, b) ->
                  let ratio = f /. b in
                  Printf.printf "  %-24s n=%-5d %8.2fx baseline\n" fc.name n
                    ratio;
                  if ratio > max_slowdown then regressed := true))
        fresh;
      if !regressed then begin
        Printf.eprintf
          "check_bench: a decidable cell regressed more than %.1fx against \
           %s\n"
          max_slowdown bp;
        exit 2
      end
