(* End-to-end, layer-attributed benchmark.

     e2e.exe --workload W --seed N [--seconds S] [--trace 0|1] [--out DIR]
         one workload in this process; the last stdout line is the
         result as one JSON object
     e2e.exe --seed N [--seconds S] [--trace 0|1] [--out DIR]
         every workload, each in its own child process, one after
         another; writes DIR/BENCH_e2e.json (default DIR: _e2e/results)
     e2e.exe --smoke
         tiny corpora, one pass each, traced; fails unless every output
         checks and every metric of BENCHMARK.json is reported
     e2e.exe compare A B
         medians, quartiles and a verdict per workload x metric for two
         sets of runs written with --out; exits 2 on a regression

   A run is a closed loop with one client on one domain.  Set-up is
   timed several times and reported as its median.  One warm-up pass
   runs every item once and checks it against an independent oracle.
   The timed run is then a whole number of passes over the corpus —
   passes are added until [--seconds] have elapsed, never cut short, so
   the mix of operations is the same in every run. *)

let work_root = "_e2e"
let setup_min_reps = 9
let setup_max_reps = 101

(* Spans the workloads open around public entry points, plus the inner
   spans the libraries already emit. *)
let layer_spans =
  [
    "pathlang.parser";
    "schema.schema_parser";
    "analysis.lint";
    "lint.classify";
    "lint.typeflow";
    "lint.vacuity";
    "lint.inconsistency";
    "lint.redundancy";
    "lint.hygiene";
    "lint.interact";
    "analysis.render";
    "core.word_untyped";
    "word.instance";
    "saturation.pre_star";
    "core.typed_m";
    "typed_m.decide";
    "typed_m.closure";
    "rpq.parser";
    "rpq.typecheck";
    "rpq.eval";
    "core.semidecide";
    "chase.implies";
    "semidecide.enumerate";
    "sgraph.io";
    "rpq.type_graph";
  ]

(* Layers that only run during set-up: their per-op figures are per
   set-up, and their share is of the set-up's wall time. *)
let setup_spans = [ "schema.schema_parser"; "sgraph.io"; "rpq.type_graph" ]

let layer_counters =
  [
    "word.systems_compiled";
    "saturation.trans_added";
    "typed_m.closure_paths";
    "typeflow.product.states";
    "querycheck.product.states";
    "chase.steps";
    "enumerate.graphs_visited";
    "semidecide.enum_fallbacks";
  ]

(* ------------------------------------------------------------------ *)
(* Small utilities                                                      *)
(* ------------------------------------------------------------------ *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt
let ns_since t0 = Int64.to_float (Int64.sub (Obs.now_ns ()) t0)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* linear interpolation between closest ranks, on sorted samples *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((x -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

(* Python's statistics.quantiles(xs, n=4), the 'exclusive' method *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld < 2 then (median xs, median xs)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((d.(j - 1) *. (4. -. delta)) +. (d.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* One workload                                                         *)
(* ------------------------------------------------------------------ *)

type record = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

type passes = {
  ops : int;
  pass_ns : float list;  (** wall time of each pass *)
  scales : float list;  (** each pass's host-speed scale, see [kernel_ns] *)
  latencies_ms : float array;  (** in execution order, pass after pass *)
  alloc_words : float;
  decided : int;
  failures : int;
}

(* Host-speed calibration.  The hosts this runs on share their cores,
   and their speed wanders by a third over tens of seconds — longer
   than a run — so raw times of the same code disagree between runs by
   more than any useful bound.  A fixed kernel is timed between passes,
   and each pass's times are scaled by [kernel_ref_ns] over the
   kernel's time around it: timings are reported in reference-host
   time, where the kernel takes 20 ms.  The kernel does the kind of work
   the program does most, and which slows most when the host is busy:
   it allocates short-lived lists and tuples, and builds a hash table,
   a sorted list and a map that live long enough to be promoted.  On a
   busy 2-vCPU host, scaling by it cut the drift of the median pass
   time between two runs from 11% to 1.4%; a kernel that also chased
   pointers through 32 MB left 4.2%. *)
module Int_map = Map.Make (Int)

let kernel_ref_ns = 20e6

let kernel_ns () =
  let t0 = Obs.now_ns () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 20000 do
    Hashtbl.replace h (i * 7919 land 0xffff) (string_of_int i)
  done;
  let l = List.sort compare (List.init 20000 (fun i -> i * 7919 mod 10007)) in
  let m = List.fold_left (fun m x -> Int_map.add x x m) Int_map.empty l in
  let acc = ref 0 in
  for r = 1 to 20 do
    let l = List.init 10000 (fun i -> (i, r)) in
    acc :=
      List.fold_left (fun a (x, y) -> a + (x * y)) !acc
        (List.map (fun (x, y) -> (y, x)) l)
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h + Int_map.cardinal m + !acc));
  ns_since t0

(* Scale for work run between two kernel timings. *)
let scale_between k k' = kernel_ref_ns /. ((k +. k') /. 2.)

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let report_failure id msg = Printf.eprintf "e2e: %s: %s\n%!" id msg

(* Every item once, in order, each output checked. *)
let one_pass items =
  let lat = Array.make (Array.length items) 0. in
  let decided = ref 0 and failures = ref 0 in
  let alloc0 = allocated () and t0 = Obs.now_ns () in
  Array.iteri
    (fun i it ->
      let t0 = Obs.now_ns () in
      let check = it.Workloads.run () in
      lat.(i) <- ns_since t0 /. 1e6;
      match check () with
      | Ok d -> if d then incr decided
      | Error e ->
          incr failures;
          report_failure it.Workloads.id e)
    items;
  {
    ops = Array.length items;
    pass_ns = [ ns_since t0 ];
    scales = [ 1. ];
    latencies_ms = lat;
    alloc_words = allocated () -. alloc0;
    decided = !decided;
    failures = !failures;
  }

(* Whole passes over [items] until [seconds] have elapsed (exactly one
   when [seconds] is 0), each scaled by the kernel around it. *)
let timed_passes ~seconds items =
  let t0 = Obs.now_ns () in
  let rec go k acc =
    let p = one_pass items in
    let k' = kernel_ns () in
    let acc = { p with scales = [ scale_between k k' ] } :: acc in
    if ns_since t0 < seconds *. 1e9 then go k' acc else List.rev acc
  in
  let ps = go (kernel_ns ()) [] in
  let sum f = List.fold_left (fun a p -> a + f p) 0 ps in
  {
    ops = sum (fun p -> p.ops);
    pass_ns = List.concat_map (fun p -> p.pass_ns) ps;
    scales = List.concat_map (fun p -> p.scales) ps;
    latencies_ms = Array.concat (List.map (fun p -> p.latencies_ms) ps);
    alloc_words = List.fold_left (fun a p -> a +. p.alloc_words) 0. ps;
    decided = sum (fun p -> p.decided);
    failures = sum (fun p -> p.failures);
  }

(* Throughput is the median over passes: on top of the calibration, a
   slow spell spoils a minority of passes, not the result. *)
let items_per_pass p = p.ops / List.length p.pass_ns
let wall_ns p = List.fold_left ( +. ) 0. p.pass_ns

let pass_rate p =
  let n = float_of_int (items_per_pass p) in
  median (List.map2 (fun ns s -> n /. (ns *. s /. 1e9)) p.pass_ns p.scales)

(* Latency percentiles are taken over the items of the corpus, each
   item's latency being its median over passes: a GC slice or a slow
   spell that lands on one run of an op does not move the tail. *)
let item_percentile p q =
  let n = items_per_pass p and scales = Array.of_list p.scales in
  let a =
    Array.init n (fun i ->
        median
          (List.init (Array.length scales) (fun k ->
               p.latencies_ms.((k * n) + i) *. scales.(k))))
  in
  Array.sort Float.compare a;
  percentile a q

let layer_metrics ~setup_spans_tbl ~setup_ns ~traced ~untraced =
  let spans = Obs.Stats.spans () in
  let counters = Obs.Counter.snapshot () in
  let ops = float_of_int traced.ops in
  let scale = median traced.scales in
  let span_metrics name =
    let tbl, per, wall =
      if List.mem name setup_spans then (setup_spans_tbl, 1., setup_ns)
      else (spans, ops, wall_ns traced)
    in
    let self_ns, calls =
      match List.assoc_opt name tbl with
      | Some s -> (Int64.to_float s.Obs.Stats.self_ns, float_of_int s.Obs.Stats.count)
      | None -> (0., 0.)
    in
    [
      (name ^ ".self_ms_per_op", self_ns *. scale /. 1e6 /. per, "ms");
      (name ^ ".calls_per_op", calls /. per, "count");
      (name ^ ".share", self_ns /. wall, "fraction");
    ]
  in
  let attributed =
    List.fold_left
      (fun acc (_, s) -> acc +. Int64.to_float s.Obs.Stats.self_ns)
      0. spans
  in
  let counter c = float_of_int (Option.value ~default:0 (List.assoc_opt c counters)) in
  let hits = counter "semidecide.prefilter_hits"
  and misses = counter "semidecide.prefilter_misses" in
  Printf.printf "semidecide.prefilter: %.0f hits of %.0f lookups\n" hits
    (hits +. misses);
  List.concat_map span_metrics layer_spans
  @ [ ("unattributed.share", 1. -. (attributed /. wall_ns traced), "fraction") ]
  @ List.map (fun c -> (c ^ ".per_op", counter c /. ops, "count")) layer_counters
  @ [
      ( "semidecide.prefilter_hit_ratio",
        (if hits +. misses = 0. then 0. else hits /. (hits +. misses)),
        "fraction" );
      ("trace_overhead", (pass_rate untraced /. pass_rate traced) -. 1., "fraction");
    ]

let e2e_metrics ~setup_s ~peak_heap_mb ~decided_ratio p =
  let words_per_op = p.alloc_words /. float_of_int p.ops in
  [
    ("decided_ratio", decided_ratio, "fraction");
    ("ops_per_s", pass_rate p, "op/s");
    ("latency_p50_ms", item_percentile p 0.50, "ms");
    ("latency_p90_ms", item_percentile p 0.90, "ms");
    ("latency_p99_ms", item_percentile p 0.99, "ms");
    ("setup_s", setup_s, "s");
    ("peak_heap_mb", peak_heap_mb, "MiB");
    ("alloc_kw_per_op", words_per_op /. 1000., "kword");
  ]

let metric_json (name, v, unit_) =
  (name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit_) ])

let record_json r =
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String r.workload);
      ("seed", Obs.Json.Int r.seed);
      ("correct", Obs.Json.Bool (r.failed = 0));
      ("attempted", Obs.Json.Int r.attempted);
      ("failed", Obs.Json.Int r.failed);
      ("metrics", Obs.Json.Obj (List.map metric_json r.metrics));
    ]

let samples_jsonl items p =
  let n = Array.length items and scales = Array.of_list p.scales in
  let buf = Buffer.create (p.ops * 60) in
  Array.iteri
    (fun k ms ->
      Buffer.add_string buf
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("pass", Obs.Json.Int (k / n));
                ("item", Obs.Json.String items.(k mod n).Workloads.id);
                ("ms", Obs.Json.Float ms);
                ("scale", Obs.Json.Float scales.(k / n));
              ]));
      Buffer.add_char buf '\n')
    p.latencies_ms;
  Buffer.contents buf

(* name, unit, better, bound of each metric in one list of BENCHMARK.json *)
let benchmark_metrics key =
  match Obs.Json.parse (read_file "BENCHMARK.json") with
  | exception Sys_error e -> die "cannot read BENCHMARK.json: %s" e
  | Error e -> die "BENCHMARK.json: %s" e
  | Ok doc ->
      List.map
        (fun m ->
          let str k = Option.bind (Obs.Json.member k m) Obs.Json.as_string in
          ( Option.get (str "name"),
            Option.get (str "unit"),
            str "better",
            Option.bind (Obs.Json.member "bound" m) Obs.Json.as_float ))
        (Option.value ~default:[]
           (Option.bind (Obs.Json.member key doc) Obs.Json.as_list))

let pinned_file = "bench/e2e/expected/lint-ci.md5"

let load_pins () =
  match read_file pinned_file with
  | exception Sys_error e -> die "cannot read the pinned digests: %s" e
  | src ->
      let tbl = Hashtbl.create 128 in
      List.iter
        (fun line ->
          match String.split_on_char ' ' (String.trim line) with
          | [ id; md5 ] -> Hashtbl.replace tbl id md5
          | _ -> ())
        (String.split_on_char '\n' src);
      tbl

let write_pins () =
  let lines =
    List.sort compare
      (List.map (fun (id, md5) -> id ^ " " ^ md5) !Workloads.sarif_digests)
  in
  write_file pinned_file (String.concat "\n" lines ^ "\n");
  Printf.printf "wrote %s (%d digests)\n" pinned_file (List.length lines)

let run_one ~(w : Workloads.t) ~seed ~seconds ~trace ~smoke ~out ~pin =
  let dir = Filename.concat work_root w.name in
  rm_rf dir;
  mkdir_p dir;
  if w.name = "lint-ci" && seed = 1 && (not smoke) && not pin then
    Workloads.pinned := Some (load_pins ());
  let load = w.prepare ~seed ~smoke ~dir in
  let items = (load ()) () in
  (* warm-up: every item once, checked against its oracle *)
  let warm = one_pass items in
  (* Read before the bench's own timing code has allocated anything.
     The heap keeps growing slowly with every pass, so a reading at the
     end would depend on how many passes the host managed; this one
     covers generation, one set-up and one pass over the corpus. *)
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  (* Each timed set-up runs on a collected heap, and its result is
     dropped before the next starts.  Cheap set-ups are repeated until
     they add up to 0.2 s.  The kernel is timed again whenever the
     set-ups since its last timing add up to 20 ms, and each set-up is
     scaled by the kernel timings around it, like a pass. *)
  let rec setups k scaled batch total =
    let n = List.length scaled + List.length batch in
    let stop =
      n >= setup_max_reps || (n >= setup_min_reps && total >= 0.2e9) || (smoke && n = 1)
    in
    if stop || List.fold_left ( +. ) 0. batch >= 20e6 then begin
      let k' = kernel_ns () in
      let scaled = List.map (fun dt -> dt *. scale_between k k') batch @ scaled in
      if stop then scaled else setups k' scaled [] total
    end
    else begin
      Gc.full_major ();
      let t0 = Obs.now_ns () in
      let (_ : unit -> Workloads.item array) = load () in
      let dt = ns_since t0 in
      setups k scaled (dt :: batch) (total +. dt)
    end
  in
  let setup_s = median (setups (kernel_ns ()) [] [] 0.) /. 1e9 in
  if pin then write_pins ();
  let seconds = if smoke then 0. else seconds in
  let untraced = timed_passes ~seconds:(if trace then seconds /. 2. else seconds) items in
  let layers, traced =
    if not trace then ([], [])
    else begin
      if out <> None then Obs.enable_tracing () else Obs.enable ();
      Obs.reset ();
      let t0 = Obs.now_ns () in
      let (_ : unit -> Workloads.item array) = load () in
      let setup_ns = ns_since t0 in
      let setup_spans_tbl = Obs.Stats.spans () in
      Obs.reset ();
      let traced = timed_passes ~seconds:(seconds /. 2.) items in
      let m = layer_metrics ~setup_spans_tbl ~setup_ns ~traced ~untraced in
      Option.iter
        (fun d -> Obs.Trace.write_chrome (Filename.concat d (w.name ^ ".trace.json")))
        out;
      Obs.disable ();
      (m, [ traced ])
    end
  in
  rm_rf dir;
  let runs = (warm :: untraced :: traced) in
  let attempted = List.fold_left (fun a p -> a + p.ops) 0 runs in
  let failed = List.fold_left (fun a p -> a + p.failures) 0 runs in
  let decided = List.fold_left (fun a p -> a + p.decided) 0 runs in
  let decided_ratio = float_of_int decided /. float_of_int attempted in
  let e2e = e2e_metrics ~setup_s ~peak_heap_mb ~decided_ratio untraced in
  let failed_ratio = float_of_int failed /. float_of_int attempted in
  let shown = e2e @ [ ("failed_ratio", failed_ratio, "fraction") ] @ layers in
  Printf.printf
    "== %s (seed %d): %d timed passes of %d ops; timings are medians over \
     passes, scaled to the reference host (the host ran at %.2f of the \
     reference speed; unscaled ops_per_s %.6g)\n"
    w.name seed (List.length untraced.pass_ns) (Array.length items)
    (median untraced.scales)
    (float_of_int untraced.ops /. (wall_ns untraced /. 1e9));
  List.iter (fun (n, v, u) -> Printf.printf "  %-44s %14.6g %s\n" n v u) shown;
  let r = { workload = w.name; seed; attempted; failed; metrics = shown } in
  Option.iter
    (fun d ->
      mkdir_p d;
      write_file (Filename.concat d (w.name ^ ".json")) (Obs.Json.to_string (record_json r) ^ "\n");
      write_file (Filename.concat d (w.name ^ ".samples.jsonl")) (samples_jsonl items untraced))
    out;
  (* The result line holds exactly the metrics BENCHMARK.json lists:
     per-layer self times, zero on every run of a workload that never
     enters the layer, stay in the table and in --out. *)
  let listed = benchmark_metrics (if trace then "per_layer" else "end_to_end") in
  let contract =
    List.filter (fun (n, _, _) -> List.exists (fun (n', _, _, _) -> n = n') listed) shown
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (failed = 0));
            ("attempted", Obs.Json.Int attempted);
            ("failed", Obs.Json.Int failed);
            ("metrics", Obs.Json.Obj (List.map metric_json contract));
          ]));
  if failed > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Every workload, each in a child process                              *)
(* ------------------------------------------------------------------ *)

let metric_value name r =
  Option.bind
    (Option.bind (Obs.Json.member "metrics" r) (Obs.Json.member name))
    (fun m -> Option.bind (Obs.Json.member "value" m) Obs.Json.as_float)

(* With [smoke], the children's tables go to /dev/null and no summary is
   printed: only failures speak. *)
let run_all ~seed ~seconds ~trace ~smoke ~out =
  mkdir_p out;
  let stdout_fd =
    if smoke then Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 else Unix.stdout
  in
  let records =
    List.map
      (fun (w : Workloads.t) ->
        let args =
          [
            Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
            "--out"; out;
          ]
          @ if smoke then [ "--smoke" ] else []
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
            stdout_fd Unix.stderr
        in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> Printf.eprintf "e2e: workload %s failed\n%!" w.name);
        match Obs.Json.parse (read_file (Filename.concat out (w.name ^ ".json"))) with
        | Ok r -> r
        | Error e -> die "%s result: %s" w.name e
        | exception Sys_error e -> die "%s result: %s" w.name e)
      Workloads.all
  in
  let doc =
    Obs.Json.Obj
      [
        ("schema_version", Obs.Json.Int 1);
        ("seed", Obs.Json.Int seed);
        ("seconds", Obs.Json.Float seconds);
        ("workloads", Obs.Json.List records);
      ]
  in
  let path = Filename.concat out "BENCH_e2e.json" in
  write_file path (Obs.Json.to_string doc ^ "\n");
  if smoke then Unix.close stdout_fd
  else begin
  Printf.printf "\n%-16s" "metric";
  List.iter (fun (w : Workloads.t) -> Printf.printf " %14s" w.name) Workloads.all;
  print_newline ();
  List.iter
    (fun (name, unit_) ->
      Printf.printf "%-16s" name;
      List.iter
        (fun r ->
          Printf.printf " %14.6g"
            (Option.value ~default:nan (metric_value name r)))
        records;
      Printf.printf "  %s\n" unit_)
    (List.map (fun (n, u, _, _) -> (n, u)) (benchmark_metrics "end_to_end")
    @ [ ("failed_ratio", "fraction") ]);
  Printf.printf "wrote %s\n" path
  end;
  path

(* The smoke check re-reads what the runs wrote: every workload
   checked out, and reported every metric BENCHMARK.json names, with
   its unit. *)
let smoke () =
  let out = Filename.concat work_root "smoke" in
  rm_rf out;
  let path = run_all ~seed:1 ~seconds:0. ~trace:true ~smoke:true ~out in
  let doc =
    match Obs.Json.parse (read_file path) with
    | Ok d -> d
    | Error e -> die "smoke: %s does not parse: %s" path e
  in
  let records =
    Option.value ~default:[]
      (Option.bind (Obs.Json.member "workloads" doc) Obs.Json.as_list)
  in
  if List.length records <> List.length Workloads.all then
    die "smoke: %d workload records" (List.length records);
  let expected = benchmark_metrics "end_to_end" @ benchmark_metrics "per_layer" in
  List.iter
    (fun r ->
      let name =
        Option.value ~default:"?" (Option.bind (Obs.Json.member "workload" r) Obs.Json.as_string)
      in
      if metric_value "failed_ratio" r <> Some 0. then die "smoke: %s failed" name;
      List.iter
        (fun (m, u, _, _) ->
          let unit_ =
            Option.bind
              (Option.bind (Obs.Json.member "metrics" r) (Obs.Json.member m))
              (fun v -> Option.bind (Obs.Json.member "unit" v) Obs.Json.as_string)
          in
          if unit_ <> Some u then die "smoke: %s does not report %s in %s" name m u)
        expected)
    records;
  rm_rf work_root;
  print_endline "smoke: ok"

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

let rec json_files dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then acc @ json_files p
      else if Filename.check_suffix f ".json" && f <> "BENCH_e2e.json"
              && not (Filename.check_suffix f ".trace.json")
      then acc @ [ p ]
      else acc)
    []
    (let a = Sys.readdir dir in
     Array.sort compare a;
     a)

let runs_of dir =
  List.filter_map
    (fun p ->
      match Obs.Json.parse (read_file p) with
      | Ok r -> (
          match Option.bind (Obs.Json.member "workload" r) Obs.Json.as_string with
          | Some w -> Some (w, r)
          | None -> None)
      | Error _ -> None)
    (json_files dir)

let failed_ratio r =
  let get k = Option.value ~default:0 (Option.bind (Obs.Json.member k r) Obs.Json.as_int) in
  float_of_int (get "failed") /. float_of_int (max 1 (get "attempted"))

(* Verdicts follow the 9-of-10-pairs rule: a gain needs the change to
   win nine tenths of the pairs and to move the median by more than
   the parent's quartile spread; a metric whose spread exceeds its
   bound is unresolved unless every run of one side beats every run of
   the other. *)
let compare_dirs a b =
  let metrics = benchmark_metrics "end_to_end" in
  let ra = runs_of a and rb = runs_of b in
  let workloads = List.sort_uniq compare (List.map fst ra) in
  let regressions = ref 0 in
  Printf.printf "%-12s %-16s %12s %25s %12s %25s %8s %6s  %s\n" "workload" "metric"
    "A median" "A quartiles" "B median" "B quartiles" "change" "wins" "verdict";
  List.iter
    (fun w ->
      let sa = List.filter_map (fun (w', r) -> if w' = w then Some r else None) ra in
      let sb = List.filter_map (fun (w', r) -> if w' = w then Some r else None) rb in
      let pairs = min (List.length sa) (List.length sb) in
      if pairs < 5 then
        Printf.printf "%-12s needs >= 5 runs per side (A %d, B %d)\n" w
          (List.length sa) (List.length sb)
      else begin
        let fa = List.fold_left (fun m r -> Float.max m (failed_ratio r)) 0. sa
        and fb = List.fold_left (fun m r -> Float.max m (failed_ratio r)) 0. sb in
        if fb > fa then begin
          incr regressions;
          Printf.printf "%-12s failed_ratio rose from %g to %g: regressed\n" w fa fb
        end;
        List.iter
          (fun (m, _, better, bound) ->
            let vals s = List.filter_map (metric_value m) s in
            let va = vals sa and vb = vals sb in
            if va <> [] && vb <> [] then begin
              let higher = better = Some "higher" in
              let bound = Option.value ~default:0. bound in
              let ma = median va and mb = median vb in
              let qa1, qa3 = quartiles va and qb1, qb3 = quartiles vb in
              let better_than x y = if higher then x > y else x < y in
              let take l = List.filteri (fun i _ -> i < pairs) l in
              let wins =
                List.length
                  (List.filter Fun.id (List.map2 better_than (take vb) (take va)))
              in
              let worse = (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
              let spread = Float.max ((qa3 -. qa1) /. Float.abs ma) ((qb3 -. qb1) /. Float.abs mb) in
              let all_better x y = List.for_all (fun u -> List.for_all (fun v -> better_than u v) y) x in
              let verdict =
                if float_of_int wins >= 0.9 *. float_of_int pairs
                   && worse < 0. && Float.abs (mb -. ma) > qa3 -. qa1
                then "improved"
                else if worse > bound && (spread <= bound || all_better va vb)
                then "regressed"
                else if spread > bound && not (all_better vb va) then "unresolved"
                else "unchanged"
              in
              if verdict = "regressed" then incr regressions;
              Printf.printf "%-12s %-16s %12.6g [%10.6g,%12.6g] %12.6g [%10.6g,%12.6g] %+7.2f%% %3d/%-2d  %s\n"
                w m ma qa1 qa3 mb qb1 qb3
                (100. *. (mb -. ma) /. Float.abs ma)
                wins pairs verdict
            end)
          metrics
      end)
    workloads;
  if !regressions > 0 then exit 2

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> compare_dirs a b
  | [ "--smoke" ] -> smoke ()
  | args ->
      let workload = ref None and seed = ref 1 and seconds = ref 10.
      and trace = ref false and out = ref None and smoke = ref false
      and pin = ref false in
      let rec parse = function
        | [] -> ()
        | "--workload" :: w :: rest -> workload := Some w; parse rest
        | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
        | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
        | "--trace" :: t :: rest -> trace := t = "1"; parse rest
        | "--out" :: d :: rest -> out := Some d; parse rest
        | "--smoke" :: rest -> smoke := true; parse rest
        | "--pin" :: rest -> pin := true; parse rest
        | a :: _ -> die "unknown argument %s" a
      in
      (try parse args with Failure _ -> die "malformed argument");
      match !workload with
      | Some name -> (
          match List.find_opt (fun (w : Workloads.t) -> w.name = name) Workloads.all with
          | Some w ->
              run_one ~w ~seed:!seed ~seconds:!seconds ~trace:!trace ~smoke:!smoke
                ~out:!out ~pin:!pin
          | None -> die "unknown workload %s" name)
      | None ->
          ignore
            (run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~smoke:!smoke
               ~out:(Option.value ~default:(Filename.concat work_root "results") !out))
