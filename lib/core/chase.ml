module Constr = Pathlang.Constr
module Path = Pathlang.Path
module Label = Pathlang.Label
module Graph = Sgraph.Graph
module Mg = Sgraph.Merge_graph
module Io = Sgraph.Io
module Eval = Sgraph.Eval
module Violations = Sgraph.Violations

let src = Logs.Src.create "pathcons.chase" ~doc:"budgeted incremental P_c chase"

module Log = (val Logs.src_log src : Logs.LOG)

let c_steps = Obs.Counter.make ~unit_:"repairs" "chase.steps"
let c_egd = Obs.Counter.make ~unit_:"merges" "chase.egd_merges"
let c_tgd = Obs.Counter.make ~unit_:"paths added" "chase.tgd_firings"

let c_hits = Obs.Counter.make ~unit_:"violations found" "chase.worklist_hits"

let c_skips =
  Obs.Counter.make ~unit_:"clean constraints skipped" "chase.worklist_skips"

let c_settled =
  Obs.Counter.make ~unit_:"dirty checks come back clean" "chase.worklist_settled"

(* instantaneous dirty-constraint count of the running chase *)
let g_worklist = Obs.Gauge.make ~unit_:"constraints" "chase.worklist_depth"

(* Crash sites for the fault-injection harness: [chase.repair] fires at
   the head of every repair (before any mutation, so the in-memory state
   is the last consistent one), [chase.fixpoint] fires when the chase
   detects a fixpoint (before the result is extracted). *)
let fs_repair = Fault.site "chase.repair"
let fs_fixpoint = Fault.site "chase.fixpoint"

type outcome = Fixpoint of Graph.t | Exhausted of Graph.t * Verdict.exhaustion

(* The goal test, compiled once: does phi's conclusion hold between
   the tracked nodes?  A forward walk of gamma from x (from y for a
   backward phi). *)
let conclusion phi =
  let w = Eval.word (Constr.rhs phi) and forward = Constr.kind phi = Constr.Forward in
  fun g x y ->
    let src, dst = if forward then (x, y) else (y, x) in
    let f = Eval.start g src in
    Eval.image g f w 0 (Array.length w);
    Eval.mem f dst

(* ------------------------------------------------------------------ *)
(* Incremental engine                                                  *)
(* ------------------------------------------------------------------ *)

(* The chase state: the union-find graph, a dirty-constraint worklist
   and the violation index.

   Invariant: every constraint whose dirty flag is unset holds in the
   current graph.  Repairs only ever add connectivity (TGDs add edges,
   EGD merges splice — they never remove reachability), so a satisfied
   constraint can only become violated again through a path that uses
   the repair's new connectivity: for a TGD, one of the freshly added
   edges (labels of the added path); for an EGD, a path entering or
   leaving the merged class (labels incident to it).  Re-dirtying
   exactly the constraints whose label footprint meets those touched
   labels therefore preserves the invariant; everything else is skipped
   without re-evaluation.  A constraint with an empty footprint has all
   three paths empty and is trivially satisfied forever once checked.

   A dirty constraint asks the index for its least violation, which is
   [Check.first_violation]'s answer kept up to date from the edges each
   repair adds or moves (see [Sgraph.Violations]); the index is derived
   state, rebuilt cold on resume and never snapshotted.

   Fairness: repairs scan the constraint array round-robin from
   [steps mod n] (an array cursor, replacing the historical O(|Sigma|)
   [rotate] list surgery), so a diverging dependency cannot starve the
   others — each full cycle the scan origin advances one slot, exactly
   like the rotation it replaces. *)
type state = {
  mg : Mg.t;
  sigma : Constr.t array;
  index : Violations.t;
  by_label : int list array;  (** by label id, the constraints using it *)
  dirty : bool array;
  mutable ndirty : int;  (** set bits in [dirty]; mirrored to a gauge *)
  mutable steps : int;  (** successful repairs so far; drives the cursor *)
}

let make_state mg sigma_list =
  let sigma = Array.of_list sigma_list in
  let used = Array.map Constr.labels_used sigma in
  let size =
    Array.fold_left (fun m ks -> Label.Set.fold (fun k m -> max m (Label.id k + 1)) ks m) 0 used
  in
  let by_label = Array.make size [] in
  Array.iteri
    (fun i ks ->
      Label.Set.iter (fun k -> let l = Label.id k in by_label.(l) <- i :: by_label.(l)) ks)
    used;
  let n = Array.length sigma in
  Obs.Gauge.set g_worklist n;
  {
    mg;
    sigma;
    index = Violations.create mg sigma;
    by_label;
    dirty = Array.make n true;
    ndirty = n;
    steps = 0;
  }

let settle st i =
  if st.dirty.(i) then begin
    st.dirty.(i) <- false;
    st.ndirty <- st.ndirty - 1;
    Obs.Gauge.set g_worklist st.ndirty
  end

let mark_dirty st touched =
  Label.Set.iter
    (fun k ->
      let l = Label.id k in
      if l < Array.length st.by_label then
        List.iter
          (fun i ->
            if not st.dirty.(i) then begin
              st.dirty.(i) <- true;
              st.ndirty <- st.ndirty + 1
            end)
          st.by_label.(l))
    touched;
  Obs.Gauge.set g_worklist st.ndirty

(* One repair: scan from the cursor for a dirty constraint that is
   actually violated, fix its first violation in place, and re-dirty
   the constraints its new connectivity can affect.  [`Fixpoint] when
   the scan completes a full cycle without finding any violation. *)
let step st =
  let n = Array.length st.sigma in
  let on_edge = Violations.record st.index in
  let rec scan i remaining =
    if remaining = 0 then `Fixpoint
    else if not st.dirty.(i) then begin
      Obs.Counter.incr c_skips;
      scan (if i + 1 = n then 0 else i + 1) (remaining - 1)
    end
    else
      let c = st.sigma.(i) in
      match Violations.first st.index i with
      | None ->
          settle st i;
          Obs.Counter.incr c_settled;
          scan (if i + 1 = n then 0 else i + 1) (remaining - 1)
      | Some (x, y) ->
          Fault.point fs_repair;
          Obs.Counter.incr c_hits;
          let rhs = Constr.rhs c in
          let touched =
            match (Constr.kind c, Path.is_empty rhs) with
            | Constr.Forward, true ->
                Log.debug (fun m ->
                    m "EGD repair for %a: merge %d and %d" Constr.pp c x y);
                Obs.Counter.incr c_egd;
                ignore (Mg.union ~on_edge st.mg x y);
                Mg.incident_labels st.mg x
            | Constr.Backward, true ->
                Log.debug (fun m ->
                    m "EGD repair for %a: merge %d and %d" Constr.pp c y x);
                Obs.Counter.incr c_egd;
                ignore (Mg.union ~on_edge st.mg y x);
                Mg.incident_labels st.mg x
            | Constr.Forward, false ->
                Log.debug (fun m ->
                    m "TGD repair for %a: add %a-path %d ~> %d" Constr.pp c
                      Path.pp rhs x y);
                Obs.Counter.incr c_tgd;
                Mg.add_path ~on_edge st.mg x rhs y;
                Path.labels_used rhs
            | Constr.Backward, false ->
                Log.debug (fun m ->
                    m "TGD repair for %a: add %a-path %d ~> %d" Constr.pp c
                      Path.pp rhs y x);
                Obs.Counter.incr c_tgd;
                Mg.add_path ~on_edge st.mg y rhs x;
                Path.labels_used rhs
          in
          mark_dirty st touched;
          Obs.Counter.incr c_steps;
          st.steps <- st.steps + 1;
          `Repaired
  in
  if n = 0 then `Fixpoint else scan (st.steps mod n) n

(* ------------------------------------------------------------------ *)
(* Snapshots: versioned, checksummed park/resume state                 *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  let fs_write = Fault.site "snapshot.write"
  let fs_read = Fault.site "snapshot.read"

  (* [engine_steps] is the repair count, which is exactly the engine
     budget spent: each repair consumed one tick, and the tick for a
     repair interrupted by a crash is re-paid by the resumed run — so
     pre-charging the resumed controller with the repair count makes it
     trip at the same absolute budget as an uninterrupted run. *)
  type t = {
    fingerprint : string;
    engine_steps : int;
    engine_peak : int;
    repairs : int;
    dirty : bool array;
    tracked : int list;
    mg : Mg.t;
  }

  let magic = "pathcons-chase-snapshot"
  let version = 1

  let engine_steps t = t.engine_steps
  let engine_peak_nodes t = t.engine_peak
  let repairs t = t.repairs
  let live_nodes t = Mg.live_count t.mg

  (* The fingerprint ties a snapshot to the exact problem it was parked
     from.  Constraint ORDER matters (the worklist cursor and dirty
     flags are indexed by position), so this is a digest of the ordered
     constraint dump plus the conjecture (for [implies]) or the initial
     graph (for [run]). *)
  let fingerprint_of ~sigma tail =
    let buf = Buffer.create 256 in
    List.iter
      (fun c ->
        Buffer.add_string buf (Constr.to_string c);
        Buffer.add_char buf '\n')
      sigma;
    Buffer.add_string buf tail;
    Digest.to_hex (Digest.string (Buffer.contents buf))

  let implies_fingerprint ~sigma phi =
    fingerprint_of ~sigma ("|phi " ^ Constr.to_string phi)

  let run_fingerprint ~sigma g =
    fingerprint_of ~sigma ("|graph " ^ Digest.to_hex (Digest.string (Io.to_string g)))

  let matches_implies t ~sigma phi =
    String.equal t.fingerprint (implies_fingerprint ~sigma phi)

  let matches_run t ~sigma g = String.equal t.fingerprint (run_fingerprint ~sigma g)

  let of_state ~fingerprint ~ctl ~tracked st =
    {
      fingerprint;
      engine_steps = st.steps;
      engine_peak = Engine.peak_nodes ctl;
      repairs = st.steps;
      dirty = Array.copy st.dirty;
      tracked;
      mg = st.mg;
    }

  let restore_state s sigma_list =
    let st = make_state s.mg sigma_list in
    if Array.length st.dirty <> Array.length s.dirty then
      invalid_arg "Chase: snapshot constraint count does not match sigma";
    Array.blit s.dirty 0 st.dirty 0 (Array.length s.dirty);
    st.ndirty <- Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 st.dirty;
    Obs.Gauge.set g_worklist st.ndirty;
    st.steps <- s.repairs;
    st

  let to_string t =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "fingerprint %s\n" t.fingerprint);
    Buffer.add_string buf (Printf.sprintf "engine-steps %d\n" t.engine_steps);
    Buffer.add_string buf (Printf.sprintf "engine-peak %d\n" t.engine_peak);
    Buffer.add_string buf (Printf.sprintf "repairs %d\n" t.repairs);
    Buffer.add_string buf "dirty ";
    if Array.length t.dirty = 0 then Buffer.add_char buf '-'
    else Array.iter (fun d -> Buffer.add_char buf (if d then '1' else '0')) t.dirty;
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "tracked %d%s\n" (List.length t.tracked)
         (String.concat "" (List.map (fun n -> " " ^ string_of_int n) t.tracked)));
    Buffer.add_string buf (Mg.serialize t.mg);
    let payload = Buffer.contents buf in
    Printf.sprintf "%s %d\nsum %s\n%s" magic version
      (Digest.to_hex (Digest.string payload))
      payload

  let parse_payload payload =
    let ( let* ) = Result.bind in
    let err fmt = Printf.ksprintf Result.error fmt in
    let int_field field l =
      match String.split_on_char ' ' l with
      | [ k; v ] when k = field -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> Ok n
          | _ -> err "bad %s value %S" field v)
      | _ -> err "expected a %S line, got %S" field l
    in
    match String.split_on_char '\n' payload with
    | fp_l :: es_l :: ep_l :: rp_l :: d_l :: tr_l :: mg_lines ->
        let* fingerprint =
          match String.split_on_char ' ' fp_l with
          | [ "fingerprint"; hex ] when hex <> "" -> Ok hex
          | _ -> err "expected a fingerprint line, got %S" fp_l
        in
        let* engine_steps = int_field "engine-steps" es_l in
        let* engine_peak = int_field "engine-peak" ep_l in
        let* repairs = int_field "repairs" rp_l in
        let* dirty =
          match String.split_on_char ' ' d_l with
          | [ "dirty"; "-" ] -> Ok [||]
          | [ "dirty"; bits ] ->
              let ok = ref true in
              let arr =
                Array.init (String.length bits) (fun i ->
                    match bits.[i] with
                    | '1' -> true
                    | '0' -> false
                    | _ ->
                        ok := false;
                        false)
              in
              if !ok then Ok arr else err "bad dirty bitstring %S" bits
          | _ -> err "expected a dirty line, got %S" d_l
        in
        let* tracked =
          match String.split_on_char ' ' tr_l with
          | "tracked" :: k :: ids -> (
              match int_of_string_opt k with
              | Some k when k = List.length ids ->
                  let rec go acc = function
                    | [] -> Ok (List.rev acc)
                    | s :: rest -> (
                        match int_of_string_opt s with
                        | Some n when n >= 0 -> go (n :: acc) rest
                        | _ -> err "bad tracked node id %S" s)
                  in
                  go [] ids
              | _ -> err "tracked count does not match the id list in %S" tr_l)
          | _ -> err "expected a tracked line, got %S" tr_l
        in
        let* mg = Mg.deserialize (String.concat "\n" mg_lines) in
        (match List.find_opt (fun n -> n >= Graph.node_count (Mg.graph mg)) tracked with
        | Some n -> err "tracked node %d is out of range" n
        | None ->
            Ok { fingerprint; engine_steps; engine_peak; repairs; dirty; tracked; mg })
    | _ -> Error "truncated snapshot payload"

  let of_string s =
    let err fmt = Printf.ksprintf Result.error fmt in
    match String.index_opt s '\n' with
    | None -> Error "not a chase snapshot (missing header)"
    | Some i -> (
        let header = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match String.split_on_char ' ' header with
        | [ m; v ] when m = magic -> (
            match int_of_string_opt v with
            | Some v when v = version -> (
                match String.index_opt rest '\n' with
                | None -> Error "truncated snapshot (missing checksum line)"
                | Some j -> (
                    let sum_l = String.sub rest 0 j in
                    let payload = String.sub rest (j + 1) (String.length rest - j - 1) in
                    match String.split_on_char ' ' sum_l with
                    | [ "sum"; hex ] ->
                        if Digest.to_hex (Digest.string payload) <> hex then
                          Error "checksum mismatch (corrupt or truncated snapshot)"
                        else parse_payload payload
                    | _ -> err "malformed checksum line %S" sum_l))
            | Some v -> err "unsupported snapshot version %d (this build reads %d)" v version
            | None -> err "malformed snapshot version %S" v)
        | _ -> Error "not a chase snapshot (bad magic)")

  let save ~path t = Fault.Io.write_atomic ~site:fs_write ~path (to_string t)

  let load path =
    match Fault.Io.read_file ~site:fs_read path with
    | Error _ as e -> e
    | Ok s -> of_string s
end

(* Shared run loop plumbing: park on exhaustion or injected crash, note
   the park in the exhaustion diagnostics, convert a crash into
   [Unknown {reason = Crashed}] rather than an escaping exception. *)
let parked_note = "chase state parked (resumable snapshot)"

(* Audit-journal records for snapshot discipline: one "chase.park" per
   parked snapshot (why = "budget" | "crash") and one "chase.resume"
   per restore, each carrying the per-site fault-injection counters so
   a post-mortem can see which injected fault cut the run short. *)
let audit_fault_fields () =
  match
    List.filter
      (fun (_, hits, injected) -> hits > 0 || injected > 0)
      (Fault.site_counters ())
  with
  | [] -> []
  | cs ->
      [
        ( "fault",
          Obs.Json.Obj
            (List.map
               (fun (n, hits, injected) ->
                 ( n,
                   Obs.Json.Obj
                     [
                       ("hits", Obs.Json.Int hits);
                       ("injected", Obs.Json.Int injected);
                     ] ))
               cs) );
      ]

let audit_park ~ctl ~why st =
  if Obs.Audit.enabled () then
    Obs.Audit.emit "chase.park"
      ~fields:
        ([
           ("why", Obs.Json.String why);
           ("repairs", Obs.Json.Int st.steps);
           ("live_nodes", Obs.Json.Int (Mg.live_count st.mg));
           ("steps", Obs.Json.Int (Engine.steps ctl));
           ("peak_nodes", Obs.Json.Int (Engine.peak_nodes ctl));
         ]
        @ audit_fault_fields ())

let audit_resume (s : Snapshot.t) =
  if Obs.Audit.enabled () then
    Obs.Audit.emit "chase.resume"
      ~fields:
        ([
           ("repairs", Obs.Json.Int (Snapshot.repairs s));
           ("engine_steps", Obs.Json.Int (Snapshot.engine_steps s));
         ]
        @ audit_fault_fields ())

let run ?ctl ?(tracked = []) ?park ?resume g sigma =
  let ctl = match ctl with Some c -> c | None -> Engine.default () in
  let fingerprint = Snapshot.run_fingerprint ~sigma g in
  let st, tracked =
    match resume with
    | Some (s : Snapshot.t) ->
        if s.Snapshot.fingerprint <> fingerprint then
          invalid_arg "Chase.run: snapshot does not match this graph and sigma";
        audit_resume s;
        (Snapshot.restore_state s sigma, s.Snapshot.tracked)
    | None -> (make_state (Mg.of_graph (Graph.copy g)) sigma, tracked)
  in
  let park_now ~why () =
    match park with
    | None -> ()
    | Some f ->
        Engine.note ctl parked_note;
        audit_park ~ctl ~why st;
        f (Snapshot.of_state ~fingerprint ~ctl ~tracked st)
  in
  let finish outcome =
    let h, rename = Mg.compact st.mg in
    (outcome h, List.map rename tracked)
  in
  let rec go () =
    if not (Engine.tick ctl ~nodes:(Mg.live_count st.mg) ()) then begin
      park_now ~why:"budget" ();
      finish (fun h -> Exhausted (h, Engine.exhaustion ctl))
    end
    else
      match step st with
      | `Fixpoint ->
          Fault.point fs_fixpoint;
          finish (fun h -> Fixpoint h)
      | `Repaired -> go ()
  in
  Obs.Span.with_ "chase.run"
    ~args:[ ("sigma", string_of_int (List.length sigma)) ]
    (fun () ->
      match go () with
      | r -> r
      | exception Fault.Crash site ->
          Engine.note ctl (Printf.sprintf "injected crash at fault site %s" site);
          park_now ~why:"crash" ();
          finish (fun h ->
              Exhausted
                (h, { (Engine.exhaustion ctl) with Verdict.reason = Verdict.Crashed })))

let implies ?ctl ?park ?resume ~sigma phi =
  let ctl = match ctl with Some c -> c | None -> Engine.default () in
  let fingerprint = Snapshot.implies_fingerprint ~sigma phi in
  let st, x, y =
    match resume with
    | Some (s : Snapshot.t) -> (
        if s.Snapshot.fingerprint <> fingerprint then
          invalid_arg "Chase.implies: snapshot does not match sigma and phi";
        match s.Snapshot.tracked with
        | [ x; y ] ->
            audit_resume s;
            (Snapshot.restore_state s sigma, x, y)
        | _ -> invalid_arg "Chase.implies: snapshot was not parked by implies")
    | None ->
        (* Canonical database of phi's premise. *)
        let g = Graph.create () in
        let x = Graph.ensure_path g (Graph.root g) (Constr.prefix phi) in
        let y = Graph.ensure_path g x (Constr.lhs phi) in
        (make_state (Mg.of_graph g) sigma, x, y)
  in
  let park_now ~why () =
    match park with
    | None -> ()
    | Some f ->
        Engine.note ctl parked_note;
        audit_park ~ctl ~why st;
        f (Snapshot.of_state ~fingerprint ~ctl ~tracked:[ x; y ] st)
  in
  let holds = conclusion phi in
  let rec go () =
    if holds (Mg.graph st.mg) (Mg.find st.mg x) (Mg.find st.mg y) then Verdict.Implied
    else if not (Engine.tick ctl ~nodes:(Mg.live_count st.mg) ()) then begin
      park_now ~why:"budget" ();
      Verdict.Unknown (Engine.exhaustion ctl)
    end
    else
      match step st with
      | `Fixpoint ->
          Fault.point fs_fixpoint;
          Verdict.Refuted (fst (Mg.compact st.mg))
      | `Repaired -> go ()
  in
  Obs.Span.with_ "chase.implies"
    ~args:[ ("sigma", string_of_int (List.length sigma)) ]
    (fun () ->
      match go () with
      | v -> v
      | exception Fault.Crash site ->
          Engine.note ctl (Printf.sprintf "injected crash at fault site %s" site);
          park_now ~why:"crash" ();
          Verdict.Unknown
            { (Engine.exhaustion ctl) with Verdict.reason = Verdict.Crashed })
