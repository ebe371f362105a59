module Json = Json

let now_ns = Monotonic_clock.now

(* Global switches.  [on] gates all bookkeeping; [trace_on] additionally
   buffers begin/end/instant events for export.  Both default to off so
   the instrumented hot paths pay one load+branch. *)
let on = ref false
let trace_on = ref false
let epoch = ref (now_ns ())

let enable () = on := true

let enable_tracing () =
  on := true;
  trace_on := true

let disable () =
  on := false;
  trace_on := false

let enabled () = !on
let tracing () = !trace_on

(* --- domain shards ----------------------------------------------------- *)

(* Metrics are sharded per domain: every counter/histogram owns one
   accumulator cell per shard slot, a domain writes only its own slot
   (plain unsynchronized stores — single-word writes cannot tear under
   the OCaml memory model), and reads merge all slots.  Merged totals
   are exact once the writing domains have been joined: [Domain.join]
   establishes happens-before, so the reader sees every store.

   Slot lifecycle: a domain gets a slot lazily (first instrumented
   operation) from a mutex-guarded free list and gives it back via
   [Domain.at_exit].  Slot reuse is sound because cells are never
   cleared at domain exit — the sums survive the owner.  If more than
   [max_shards] domains run at once, latecomers share the last slot;
   their read-modify-write increments can then race (documented
   degradation, never a crash). *)

let max_shards = 64

let registry_mutex = Mutex.create ()
let locked f = Mutex.protect registry_mutex f

type span_agg = {
  mutable acount : int;
  mutable atotal_ns : int64;
  mutable aself_ns : int64;
}

module Trace_buffer = struct
  type phase = Begin | End | Instant

  type event = {
    name : string;
    ph : phase;
    ts_ns : int64;
    tid : int;
    args : (string * string) list;
  }

  let capacity = 1 lsl 18
end

type frame = {
  sname : string;
  start_ns : int64;
  mutable child_ns : int64;
  mutable closed : bool;
}

(* Everything one domain touches without synchronization: its shard
   slot, its span stack, its per-name span aggregates and its trace
   buffer.  States are registered globally so flush-time merges see the
   data of domains that already exited. *)
type domain_state = {
  uid : int; (* stable trace tid; 1 = first domain to instrument *)
  slot : int; (* shard index into counter/histogram cells *)
  mutable stack : frame list;
  aggs : (string, span_agg) Hashtbl.t;
  mutable ebuf : Trace_buffer.event array;
  mutable elen : int;
  mutable edropped : int;
}

let states : domain_state list ref = ref []
let free_slots = ref (List.init max_shards Fun.id)
let next_uid = ref 0

let new_state () =
  let st, owned =
    locked (fun () ->
        let slot, owned =
          match !free_slots with
          | s :: rest ->
              free_slots := rest;
              (s, true)
          | [] -> (max_shards - 1, false)
        in
        incr next_uid;
        let st =
          {
            uid = !next_uid;
            slot;
            stack = [];
            aggs = Hashtbl.create 32;
            ebuf = Array.make 0 { Trace_buffer.name = ""; ph = Instant; ts_ns = 0L; tid = 0; args = [] };
            elen = 0;
            edropped = 0;
          }
        in
        states := st :: !states;
        (st, owned))
  in
  (* release the slot when the owning domain exits (cells are never
     cleared, so the slot's sums survive the owner and reuse stays
     exact); registered outside the lock *)
  if owned then
    Domain.at_exit (fun () ->
        locked (fun () -> free_slots := st.slot :: !free_slots));
  st

let state_key = Domain.DLS.new_key new_state
let[@inline] state () = Domain.DLS.get state_key

let all_states () = locked (fun () -> List.rev !states)

(* --- counters ---------------------------------------------------------- *)

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

module Counter = struct
  type t = {
    cname : string; (* registry key: base plus rendered labels *)
    cbase : string;
    clabels : (string * string) list;
    cunit : string;
    cells : int array; (* one accumulator per shard slot *)
    mutable cmax : bool; (* true once [set_max] was used: merge by max *)
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 64

  let make ?(unit_ = "") ?(labels = []) cbase =
    let cname = cbase ^ render_labels labels in
    locked (fun () ->
        match Hashtbl.find_opt registry cname with
        | Some c -> c
        | None ->
            let c =
              {
                cname;
                cbase;
                clabels = labels;
                cunit = unit_;
                cells = Array.make max_shards 0;
                cmax = false;
              }
            in
            Hashtbl.add registry cname c;
            c)

  let[@inline] incr c =
    if !on then begin
      let s = (state ()).slot in
      c.cells.(s) <- c.cells.(s) + 1
    end

  let[@inline] add c n =
    if !on && n > 0 then begin
      let s = (state ()).slot in
      c.cells.(s) <- c.cells.(s) + n
    end

  let[@inline] set_max c n =
    if !on then begin
      let s = (state ()).slot in
      if n > c.cells.(s) then begin
        c.cells.(s) <- n;
        c.cmax <- true
      end
    end

  let value c =
    if c.cmax then Array.fold_left max 0 c.cells
    else Array.fold_left ( + ) 0 c.cells

  let name c = c.cname
  let base c = c.cbase
  let labels c = c.clabels
  let unit_ c = c.cunit

  let snapshot () =
    Hashtbl.fold
      (fun _ c acc -> if value c <> 0 then (c.cname, value c) :: acc else acc)
      registry []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let all () =
    Hashtbl.fold (fun _ c acc -> if value c <> 0 then c :: acc else acc)
      registry []
    |> List.sort (fun a b -> compare a.cname b.cname)

  let reset () =
    Hashtbl.iter
      (fun _ c ->
        Array.fill c.cells 0 max_shards 0;
        c.cmax <- false)
      registry

  (* Labeled families: one logical metric keyed by a label value, e.g.
     [decision.route{route="chase"}].  [tag] is memoized through the
     registry, but hot paths should hoist the child counter. *)
  type family = { fbase : string; funit : string; flabel : string }

  let family ?(unit_ = "") ~label fbase = { fbase; funit = unit_; flabel = label }
  let tag fam v = make ~unit_:fam.funit ~labels:[ (fam.flabel, v) ] fam.fbase
end

(* --- gauges ------------------------------------------------------------ *)

(* Instantaneous readings (live nodes, worklist depth): last writer
   wins, no shard merge — exactness is a counter/histogram property. *)
module Gauge = struct
  type t = {
    gname : string;
    gbase : string;
    glabels : (string * string) list;
    gunit : string;
    mutable v : int;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16

  let make ?(unit_ = "") ?(labels = []) gbase =
    let gname = gbase ^ render_labels labels in
    locked (fun () ->
        match Hashtbl.find_opt registry gname with
        | Some g -> g
        | None ->
            let g = { gname; gbase; glabels = labels; gunit = unit_; v = 0 } in
            Hashtbl.add registry gname g;
            g)

  let[@inline] set g n = if !on then g.v <- n
  let[@inline] add g n = if !on then g.v <- g.v + n
  let[@inline] sub g n = if !on then g.v <- g.v - n
  let value g = g.v
  let name g = g.gname
  let base g = g.gbase
  let labels g = g.glabels
  let unit_ g = g.gunit

  let snapshot () =
    Hashtbl.fold
      (fun _ g acc -> if g.v <> 0 then (g.gname, g.v) :: acc else acc)
      registry []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let all () =
    Hashtbl.fold (fun _ g acc -> if g.v <> 0 then g :: acc else acc) registry []
    |> List.sort (fun a b -> compare a.gname b.gname)

  let reset () = Hashtbl.iter (fun _ g -> g.v <- 0) registry
end

(* --- histograms -------------------------------------------------------- *)

module Histogram = struct
  let max_samples = 4096
  let samples_per_shard = 512

  (* generic decades; latency histograms pass explicit ns bounds *)
  let default_buckets =
    [| 1.; 10.; 100.; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]

  type cell = {
    mutable n : int;
    mutable csum : float;
    mutable cmin : float;
    mutable cmax : float;
    bcounts : int array; (* per-bound, non-cumulative; last = overflow *)
    reservoir : float array; (* first [samples_per_shard] observations *)
    mutable rlen : int;
  }

  type t = {
    hname : string;
    hbase : string;
    hlabels : (string * string) list;
    hunit : string;
    bounds : float array;
    cells : cell option array; (* lazily allocated, owner-written *)
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16

  let make ?(unit_ = "") ?(labels = []) ?buckets hbase =
    let hname = hbase ^ render_labels labels in
    locked (fun () ->
        match Hashtbl.find_opt registry hname with
        | Some h -> h
        | None ->
            let bounds =
              match buckets with Some b -> Array.copy b | None -> default_buckets
            in
            let h =
              {
                hname;
                hbase;
                hlabels = labels;
                hunit = unit_;
                bounds;
                cells = Array.make max_shards None;
              }
            in
            Hashtbl.add registry hname h;
            h)

  let cell_of h slot =
    match h.cells.(slot) with
    | Some c -> c
    | None ->
        let c =
          {
            n = 0;
            csum = 0.;
            cmin = infinity;
            cmax = neg_infinity;
            bcounts = Array.make (Array.length h.bounds + 1) 0;
            reservoir = Array.make samples_per_shard 0.;
            rlen = 0;
          }
        in
        (* single writer per slot: the publishing store is the only
           cross-domain handoff, and merges happen post-join *)
        h.cells.(slot) <- Some c;
        c

  let observe h x =
    if !on then begin
      let c = cell_of h (state ()).slot in
      if c.rlen < samples_per_shard then begin
        c.reservoir.(c.rlen) <- x;
        c.rlen <- c.rlen + 1
      end;
      c.n <- c.n + 1;
      c.csum <- c.csum +. x;
      if x < c.cmin then c.cmin <- x;
      if x > c.cmax then c.cmax <- x;
      let nb = Array.length h.bounds in
      let rec place i =
        if i >= nb then c.bcounts.(nb) <- c.bcounts.(nb) + 1
        else if x <= h.bounds.(i) then c.bcounts.(i) <- c.bcounts.(i) + 1
        else place (i + 1)
      in
      place 0
    end

  let fold_cells h f acc =
    Array.fold_left
      (fun acc c -> match c with None -> acc | Some c -> f acc c)
      acc h.cells

  let count h = fold_cells h (fun acc c -> acc + c.n) 0
  let sum h = fold_cells h (fun acc c -> acc +. c.csum) 0.
  let min_ h = fold_cells h (fun acc c -> Float.min acc c.cmin) infinity
  let max_ h = fold_cells h (fun acc c -> Float.max acc c.cmax) neg_infinity
  let mean h = let n = count h in if n = 0 then nan else sum h /. float_of_int n

  (* per-bound counts merged across shards; last entry is the overflow
     bucket, so the values always sum to [count] — the "no torn
     buckets" invariant the domain stress test asserts *)
  let buckets h =
    let nb = Array.length h.bounds in
    let acc = Array.make (nb + 1) 0 in
    ignore
      (fold_cells h
         (fun () c ->
           Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) c.bcounts)
         ());
    Array.to_list
      (Array.mapi
         (fun i v -> ((if i < nb then h.bounds.(i) else infinity), v))
         acc)

  let percentile h p =
    let samples =
      fold_cells h (fun acc c -> Array.sub c.reservoir 0 c.rlen :: acc) []
    in
    let a = Array.concat samples in
    let n = min (Array.length a) max_samples in
    if n = 0 then nan
    else begin
      let a = Array.sub a 0 n in
      Array.sort compare a;
      let idx = int_of_float (p *. float_of_int (n - 1)) in
      a.(max 0 (min (n - 1) idx))
    end

  let name h = h.hname
  let base h = h.hbase
  let labels h = h.hlabels
  let unit_ h = h.hunit

  let all () =
    Hashtbl.fold (fun _ h acc -> if count h > 0 then h :: acc else acc)
      registry []
    |> List.sort (fun a b -> compare a.hname b.hname)

  let reset () =
    Hashtbl.iter (fun _ h -> Array.fill h.cells 0 max_shards None) registry

  type family = { fbase : string; funit : string; flabel : string; fbuckets : float array option }

  let family ?(unit_ = "") ?buckets ~label fbase =
    { fbase; funit = unit_; flabel = label; fbuckets = buckets }

  let tag fam v =
    make ~unit_:fam.funit ?buckets:fam.fbuckets ~labels:[ (fam.flabel, v) ]
      fam.fbase
end

(* --- span stack and trace buffer (per domain) -------------------------- *)

let push_event (st : domain_state) (e : Trace_buffer.event) =
  if st.elen >= Trace_buffer.capacity then st.edropped <- st.edropped + 1
  else begin
    if st.elen >= Array.length st.ebuf then begin
      let cap = max 1024 (min Trace_buffer.capacity (2 * Array.length st.ebuf)) in
      let bigger = Array.make cap e in
      Array.blit st.ebuf 0 bigger 0 st.elen;
      st.ebuf <- bigger
    end;
    st.ebuf.(st.elen) <- e;
    st.elen <- st.elen + 1
  end

let agg_of (st : domain_state) name =
  match Hashtbl.find_opt st.aggs name with
  | Some a -> a
  | None ->
      let a = { acount = 0; atotal_ns = 0L; aself_ns = 0L } in
      Hashtbl.add st.aggs name a;
      a

module Span = struct
  type t = frame option

  let null = None
  let depth () = List.length (state ()).stack

  let rel ts = Int64.sub ts !epoch

  let start ?(args = []) sname =
    if not !on then None
    else begin
      let st = state () in
      let ts = now_ns () in
      if !trace_on then
        push_event st
          { Trace_buffer.name = sname; ph = Begin; ts_ns = rel ts; tid = st.uid; args };
      let f = { sname; start_ns = ts; child_ns = 0L; closed = false } in
      st.stack <- f :: st.stack;
      Some f
    end

  (* Close [f]: emit the end event, fold the duration into the per-name
     aggregate, and charge it to the parent's child time.  [st.stack]
     must already have [f] popped. *)
  let close st ?(args = []) f =
    if not f.closed then begin
      f.closed <- true;
      let ts = now_ns () in
      let dur = Int64.sub ts f.start_ns in
      if !trace_on then
        push_event st
          { Trace_buffer.name = f.sname; ph = End; ts_ns = rel ts; tid = st.uid; args };
      let a = agg_of st f.sname in
      a.acount <- a.acount + 1;
      a.atotal_ns <- Int64.add a.atotal_ns dur;
      a.aself_ns <- Int64.add a.aself_ns (Int64.sub dur f.child_ns);
      match st.stack with
      | parent :: _ -> parent.child_ns <- Int64.add parent.child_ns dur
      | [] -> ()
    end

  let stop ?(args = []) t =
    match t with
    | None -> ()
    | Some f ->
        let st = state () in
        if (not f.closed) && List.memq f st.stack then begin
          (* auto-close anything opened inside [f] that was left open,
             innermost first, so the trace stays properly nested *)
          let rec unwind () =
            match st.stack with
            | top :: rest ->
                st.stack <- rest;
                if top == f then close st ~args f
                else begin
                  close st top;
                  unwind ()
                end
            | [] -> ()
          in
          unwind ()
        end

  (* the disabled path must not pay the Fun.protect closure + handler *)
  let with_ ?args sname f =
    if not !on then f ()
    else
      let s = start ?args sname in
      Fun.protect ~finally:(fun () -> stop s) f

  let event ?(args = []) name =
    if !on && !trace_on then begin
      let st = state () in
      push_event st
        { Trace_buffer.name; ph = Instant; ts_ns = rel (now_ns ()); tid = st.uid; args }
    end
end

(* --- audit journal ------------------------------------------------------ *)

(* One structured JSONL record per decision (and per snapshot
   park/resume): per-request provenance the aggregate counters cannot
   give.  Separately switched from the metrics layer; the buffer is
   mutex-guarded (records are rare next to counter bumps) and capped. *)
module Audit = struct
  let audit_on = ref false
  let capacity = 1 lsl 16

  let mutex = Mutex.create ()
  let buf : Json.t list ref = ref [] (* newest first *)
  let len = ref 0
  let seq = ref 0
  let dropped_n = ref 0

  let enable () = audit_on := true
  let disable () = audit_on := false
  let enabled () = !audit_on

  let clear () =
    Mutex.protect mutex (fun () ->
        buf := [];
        len := 0;
        seq := 0;
        dropped_n := 0)

  let emit ?(fields = []) event =
    if !audit_on then
      Mutex.protect mutex (fun () ->
          if !len >= capacity then incr dropped_n
          else begin
            let record =
              Json.Obj
                (("seq", Json.Int !seq)
                :: ("ts_ns", Json.Int (Int64.to_int (Int64.sub (now_ns ()) !epoch)))
                :: ("event", Json.String event)
                :: fields)
            in
            incr seq;
            buf := record :: !buf;
            incr len
          end)

  let records () = Mutex.protect mutex (fun () -> List.rev !buf)
  let dropped () = !dropped_n

  let to_jsonl () =
    match records () with
    | [] -> ""
    | rs -> String.concat "\n" (List.map Json.to_string rs) ^ "\n"

  (* Minimal schema check shared by tests and journal consumers: every
     record has the envelope; decision records name a route, the
     pre-filter outcome and a verdict. *)
  let validate j =
    let ( let* ) = Result.bind in
    let field name =
      match Json.member name j with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" name)
    in
    let string_field name =
      let* v = field name in
      match Json.as_string v with
      | Some s when s <> "" -> Ok s
      | _ -> Error (Printf.sprintf "field %S is not a non-empty string" name)
    in
    let int_field name =
      let* v = field name in
      match Json.as_int v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S is not an integer" name)
    in
    match j with
    | Json.Obj _ ->
        let* s = int_field "seq" in
        let* _ = int_field "ts_ns" in
        let* event = string_field "event" in
        if s < 0 then Error "negative seq"
        else if event = "decision" then
          let* _ = string_field "route" in
          let* prefilter = string_field "prefilter" in
          let* _ = string_field "verdict" in
          if List.mem prefilter [ "hit"; "miss"; "skipped" ] then Ok ()
          else Error (Printf.sprintf "prefilter %S is not hit|miss|skipped" prefilter)
        else Ok ()
    | _ -> Error "record is not a JSON object"
end

let reset () =
  Counter.reset ();
  Gauge.reset ();
  Histogram.reset ();
  List.iter
    (fun st ->
      st.stack <- [];
      Hashtbl.reset st.aggs;
      st.ebuf <- Array.make 0 { Trace_buffer.name = ""; ph = Instant; ts_ns = 0L; tid = 0; args = [] };
      st.elen <- 0;
      st.edropped <- 0)
    (all_states ());
  Audit.clear ();
  epoch := now_ns ()

(* --- trace export ------------------------------------------------------ *)

module Trace = struct
  type phase = Trace_buffer.phase = Begin | End | Instant
  type event = Trace_buffer.event = {
    name : string;
    ph : phase;
    ts_ns : int64;
    tid : int;
    args : (string * string) list;
  }

  (* grouped by originating domain (uid order), each group in emission
     order — every group is independently well-nested *)
  let events () =
    List.concat_map
      (fun st -> List.init st.elen (fun i -> st.ebuf.(i)))
      (all_states ())

  let dropped () =
    List.fold_left (fun acc st -> acc + st.edropped) 0 (all_states ())

  (* Events for the still-open spans, innermost last opened first, so a
     partial trace (e.g. after a cancellation) remains balanced. *)
  let synthetic_ends_of (st : domain_state) =
    let ts = Int64.sub (now_ns ()) !epoch in
    List.map
      (fun (f : frame) ->
        {
          name = f.sname;
          ph = End;
          ts_ns = ts;
          tid = st.uid;
          args = [ ("synthetic", "open-at-export") ];
        })
      st.stack


  let json_of_event e =
    let ph, extra =
      match e.ph with
      | Begin -> ("B", [])
      | End -> ("E", [])
      | Instant -> ("i", [ ("s", Json.String "t") ])
    in
    Json.Obj
      ([
         ("name", Json.String e.name);
         ("cat", Json.String "pathcons");
         ("ph", Json.String ph);
         (* Chrome's ts unit is microseconds *)
         ("ts", Json.Float (Int64.to_float e.ts_ns /. 1e3));
         ("pid", Json.Int 1);
         ("tid", Json.Int e.tid);
       ]
      @ extra
      @
      match e.args with
      | [] -> []
      | args ->
          [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args)) ])

  let to_chrome_json () =
    let per_state =
      List.concat_map
        (fun st ->
          List.init st.elen (fun i -> st.ebuf.(i)) @ synthetic_ends_of st)
        (all_states ())
    in
    Json.to_string
      (Json.Obj
         [
           ("traceEvents", Json.List (List.map json_of_event per_state));
           ("displayTimeUnit", Json.String "ns");
           ("otherData", Json.Obj [ ("producer", Json.String "pathcons/obs") ]);
         ])

  let write_chrome path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (to_chrome_json ());
        output_string oc "\n")

end

(* --- stats ------------------------------------------------------------- *)

module Stats = struct
  type span_stat = { count : int; total_ns : int64; self_ns : int64 }

  let spans () =
    let merged : (string, span_stat) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun st ->
        Hashtbl.iter
          (fun name (a : span_agg) ->
            let prev =
              Option.value
                ~default:{ count = 0; total_ns = 0L; self_ns = 0L }
                (Hashtbl.find_opt merged name)
            in
            Hashtbl.replace merged name
              {
                count = prev.count + a.acount;
                total_ns = Int64.add prev.total_ns a.atotal_ns;
                self_ns = Int64.add prev.self_ns a.aself_ns;
              })
          st.aggs)
      (all_states ());
    Hashtbl.fold (fun name s acc -> (name, s) :: acc) merged []
    |> List.sort (fun (_, a) (_, b) -> Int64.compare b.total_ns a.total_ns)

  let pp_ns ns =
    if Float.is_nan ns then "n/a"
    else if ns < 1e3 then Printf.sprintf "%.0f ns" ns
    else if ns < 1e6 then Printf.sprintf "%.1f us" (ns /. 1e3)
    else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else Printf.sprintf "%.2f s" (ns /. 1e9)

  let to_json () =
    let counters =
      Json.Obj
        (List.map
           (fun c -> (Counter.name c, Json.Int (Counter.value c)))
           (Counter.all ()))
    in
    let gauges =
      Json.Obj
        (List.map
           (fun g -> (Gauge.name g, Json.Int (Gauge.value g)))
           (Gauge.all ()))
    in
    let histograms =
      Json.Obj
        (List.map
           (fun (h : Histogram.t) ->
             ( Histogram.name h,
               Json.Obj
                 [
                   ("unit", Json.String (Histogram.unit_ h));
                   ("count", Json.Int (Histogram.count h));
                   ("sum", Json.Float (Histogram.sum h));
                   ("min", Json.Float (Histogram.min_ h));
                   ("max", Json.Float (Histogram.max_ h));
                   ("mean", Json.Float (Histogram.mean h));
                   ("p50", Json.Float (Histogram.percentile h 0.5));
                   ("p90", Json.Float (Histogram.percentile h 0.9));
                   ( "buckets",
                     Json.List
                       (List.map
                          (fun (le, n) ->
                            Json.Obj
                              [
                                ( "le",
                                  if Float.is_integer le && Float.abs le < 1e15
                                  then Json.Int (int_of_float le)
                                  else if le = infinity then Json.String "+Inf"
                                  else Json.Float le );
                                ("count", Json.Int n);
                              ])
                          (Histogram.buckets h)) );
                 ] ))
           (Histogram.all ()))
    in
    let spans_json =
      Json.Obj
        (List.map
           (fun (name, s) ->
             ( name,
               Json.Obj
                 [
                   ("count", Json.Int s.count);
                   ("total_ns", Json.Int (Int64.to_int s.total_ns));
                   ("self_ns", Json.Int (Int64.to_int s.self_ns));
                 ] ))
           (spans ()))
    in
    Json.Obj
      [
        ("counters", counters);
        ("gauges", gauges);
        ("spans", spans_json);
        ("histograms", histograms);
        ("dropped_events", Json.Int (Trace.dropped ()));
      ]

  let to_text () =
    let b = Buffer.create 1024 in
    let counters = Counter.all () in
    if counters <> [] then begin
      Buffer.add_string b "counters:\n";
      List.iter
        (fun c ->
          Buffer.add_string b
            (Printf.sprintf "  %-42s %12d%s\n" (Counter.name c)
               (Counter.value c)
               (if Counter.unit_ c = "" then ""
                else " " ^ Counter.unit_ c)))
        counters
    end;
    let gauges = Gauge.all () in
    if gauges <> [] then begin
      Buffer.add_string b "gauges:\n";
      List.iter
        (fun g ->
          Buffer.add_string b
            (Printf.sprintf "  %-42s %12d%s\n" (Gauge.name g) (Gauge.value g)
               (if Gauge.unit_ g = "" then "" else " " ^ Gauge.unit_ g)))
        gauges
    end;
    let sps = spans () in
    if sps <> [] then begin
      (* share is relative to the busiest span (normally the root) *)
      let wall =
        List.fold_left
          (fun acc (_, s) -> Int64.max acc s.total_ns)
          1L sps
      in
      Buffer.add_string b "spans:\n";
      Buffer.add_string b
        (Printf.sprintf "  %-34s %8s %12s %12s %7s\n" "name" "count" "total"
           "self" "share");
      List.iter
        (fun (name, s) ->
          Buffer.add_string b
            (Printf.sprintf "  %-34s %8d %12s %12s %6.1f%%\n" name s.count
               (pp_ns (Int64.to_float s.total_ns))
               (pp_ns (Int64.to_float s.self_ns))
               (100. *. Int64.to_float s.total_ns /. Int64.to_float wall)))
        sps
    end;
    let hs = Histogram.all () in
    if hs <> [] then begin
      Buffer.add_string b "histograms:\n";
      List.iter
        (fun (h : Histogram.t) ->
          Buffer.add_string b
            (Printf.sprintf
               "  %-34s count %d  mean %.1f  p50 %.1f  p90 %.1f  max %.1f%s\n"
               (Histogram.name h) (Histogram.count h) (Histogram.mean h)
               (Histogram.percentile h 0.5)
               (Histogram.percentile h 0.9)
               (Histogram.max_ h)
               (if Histogram.unit_ h = "" then ""
                else " (" ^ Histogram.unit_ h ^ ")")))
        hs
    end;
    if Trace.dropped () > 0 then
      Buffer.add_string b
        (Printf.sprintf "trace buffer: %d event(s) dropped (capacity %d)\n"
           (Trace.dropped ()) Trace_buffer.capacity);
    Buffer.contents b
  end

(* --- OpenMetrics exposition -------------------------------------------- *)

(* The [--metrics] text format: every counter family as
   [<name>_total], gauges verbatim, histograms with cumulative
   [_bucket{le=...}] series, span aggregates as three derived counter
   families, terminated by [# EOF]. *)
module Openmetrics = struct
  let prefix = "pathcons_"

  let sanitize name =
    let b = Buffer.create (String.length name) in
    String.iter
      (fun ch ->
        match ch with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b ch
        | _ -> Buffer.add_char b '_')
      name;
    prefix ^ Buffer.contents b

  let escape_label v =
    let b = Buffer.create (String.length v) in
    String.iter
      (fun ch ->
        match ch with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | ch -> Buffer.add_char b ch)
      v;
    Buffer.contents b

  let render_label_set = function
    | [] -> ""
    | labels ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
               labels)
        ^ "}"

  let float_repr f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%g" f

  let le_repr f = if f = infinity then "+Inf" else float_repr f

  (* group registry entries by sanitized family name, keeping the label
     sets sorted, so the output is deterministic *)
  let group_by_base ~base ~labels items =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun it ->
        let key = base it in
        Hashtbl.replace tbl key (it :: Option.value ~default:[] (Hashtbl.find_opt tbl key)))
      items;
    Hashtbl.fold (fun key its acc -> (key, List.rev its) :: acc) tbl []
    |> List.map (fun (key, its) ->
           ( key,
             List.sort (fun a b -> compare (labels a) (labels b)) its ))
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let render () =
    let b = Buffer.create 4096 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
    (* counters *)
    List.iter
      (fun (base, cs) ->
        let m = sanitize base in
        line "# TYPE %s counter" m;
        (match cs with
        | c :: _ when Counter.unit_ c <> "" ->
            line "# HELP %s %s (%s)" m base (Counter.unit_ c)
        | _ -> line "# HELP %s %s" m base);
        List.iter
          (fun c ->
            line "%s_total%s %d" m
              (render_label_set (Counter.labels c))
              (Counter.value c))
          cs)
      (group_by_base ~base:Counter.base ~labels:Counter.labels (Counter.all ()));
    (* gauges *)
    List.iter
      (fun (base, gs) ->
        let m = sanitize base in
        line "# TYPE %s gauge" m;
        (match gs with
        | g :: _ when Gauge.unit_ g <> "" ->
            line "# HELP %s %s (%s)" m base (Gauge.unit_ g)
        | _ -> line "# HELP %s %s" m base);
        List.iter
          (fun g ->
            line "%s%s %d" m (render_label_set (Gauge.labels g)) (Gauge.value g))
          gs)
      (group_by_base ~base:Gauge.base ~labels:Gauge.labels (Gauge.all ()));
    (* histograms: cumulative buckets per OpenMetrics *)
    List.iter
      (fun (base, hs) ->
        let m = sanitize base in
        line "# TYPE %s histogram" m;
        (match hs with
        | h :: _ when Histogram.unit_ h <> "" ->
            line "# HELP %s %s (%s)" m base (Histogram.unit_ h)
        | _ -> line "# HELP %s %s" m base);
        List.iter
          (fun h ->
            let labels = Histogram.labels h in
            let cum = ref 0 in
            List.iter
              (fun (le, n) ->
                cum := !cum + n;
                line "%s_bucket%s %d" m
                  (render_label_set (labels @ [ ("le", le_repr le) ]))
                  !cum)
              (Histogram.buckets h);
            line "%s_sum%s %s" m (render_label_set labels)
              (float_repr (Histogram.sum h));
            line "%s_count%s %d" m (render_label_set labels) (Histogram.count h))
          hs)
      (group_by_base ~base:Histogram.base ~labels:Histogram.labels
         (Histogram.all ()));
    (* span aggregates as derived counters *)
    let sps =
      List.sort (fun (a, _) (b, _) -> compare a b) (Stats.spans ())
    in
    if sps <> [] then begin
      line "# TYPE %sspan_calls counter" prefix;
      List.iter
        (fun (name, (s : Stats.span_stat)) ->
          line "%sspan_calls_total{span=\"%s\"} %d" prefix (escape_label name)
            s.Stats.count)
        sps;
      line "# TYPE %sspan_time_ns counter" prefix;
      List.iter
        (fun (name, (s : Stats.span_stat)) ->
          line "%sspan_time_ns_total{span=\"%s\"} %Ld" prefix
            (escape_label name) s.Stats.total_ns)
        sps;
      line "# TYPE %sspan_self_time_ns counter" prefix;
      List.iter
        (fun (name, (s : Stats.span_stat)) ->
          line "%sspan_self_time_ns_total{span=\"%s\"} %Ld" prefix
            (escape_label name) s.Stats.self_ns)
        sps
    end;
    line "# TYPE %sobs_dropped_events counter" prefix;
    line "%sobs_dropped_events_total %d" prefix (Trace.dropped ());
    Buffer.add_string b "# EOF\n";
    Buffer.contents b
end
