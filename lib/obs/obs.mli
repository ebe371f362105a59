(** Domain-safe observability core: sharded counters, histograms and
    gauges, labeled metric families, nested spans over a monotonic
    clock, a Chrome trace export, an OpenMetrics renderer and a
    decision audit journal.

    Every decision procedure in this repository carries a complexity
    claim from the paper's Table 1 (PTIME local-extent checking, the
    cubic typed-M procedure of Theorems 4.2/4.9); this module is how
    those claims become measurable.  Instrumented modules create their
    counters and span names once at module initialization; the hot
    paths then pay a single flag test per operation while disabled
    ([incr] compiles to a load and a branch), so the default state is
    a near-zero-cost no-op.

    {2 Domain safety}

    Counters and histograms are sharded: each metric owns one
    accumulator cell per shard slot, a domain writes only its own slot
    (an unsynchronized single-word store — it cannot tear under the
    OCaml memory model), and every read merges all slots.  Slots come
    from a mutex-guarded free list, are bound to a domain lazily via
    domain-local storage and are recycled at domain exit.  Merged
    totals are {e exact} once the writing domains have been joined
    ([Domain.join] establishes happens-before).  Beyond
    [64] simultaneous domains, latecomers share the last slot and
    their increments may race — a documented degradation, never a
    crash.  Spans, aggregates and trace buffers are fully per-domain;
    a span must be stopped on the domain that started it.  Gauges are
    plain last-writer-wins cells (instantaneous readings; exactness is
    a counter/histogram property).

    Enable metrics with {!enable}, buffer span events for export with
    {!enable_tracing}, and read results through {!Stats} (aggregates),
    {!Trace} (the event stream, as Chrome [trace_event] JSON, which
    Perfetto also draws as a flame chart), {!Openmetrics} (Prometheus
    text exposition) or {!Audit} (the per-decision JSONL journal).
    These are the only exports; [pathctl]'s [--stats], [--trace],
    [--metrics] and [--audit] flags write them after each run, the
    command's own work under a [pathctl.<cmd>] root span with its
    input parsing under [layer.parse] and its report under
    [layer.render]. *)

module Json = Json

val enable : unit -> unit
(** Turn on counters, histograms, gauges and span aggregation. *)

val enable_tracing : unit -> unit
(** Additionally buffer every span begin/end and instant event for
    {!Trace} export.  Implies {!enable}. *)

val disable : unit -> unit
(** Back to the no-op default (buffered data is kept until {!reset}). *)

val enabled : unit -> bool
val tracing : unit -> bool

val reset : unit -> unit
(** Zero every counter, gauge and histogram, drop all buffered events,
    aggregates and audit records, abandon any open spans, and restart
    the trace clock.  Does not change the enabled/tracing flags.  Only
    meaningful while no other domain is writing metrics. *)

val now_ns : unit -> int64
(** The monotonic clock (nanoseconds; only differences mean anything). *)

(** Named monotonic counters.  [make] registers the counter in a
    process-global registry keyed by name (plus labels); calling it
    twice with the same name returns the same counter.  Writes go to
    the calling domain's shard; reads merge shards ([set_max] merges
    by max, everything else by sum). *)
module Counter : sig
  type t

  val make : ?unit_:string -> ?labels:(string * string) list -> string -> t
  (** [unit_] is documentation carried into stats output (e.g.
      ["steps"], ["nodes"], ["rules"]).  [labels] attach the counter to
      a labeled family: [make ~labels:[("site", "io")] "fault.hits"]
      registers as [fault.hits{site="io"}]. *)

  val incr : t -> unit
  val add : t -> int -> unit
  (** [add] with a negative value is ignored: counters only go up. *)

  val set_max : t -> int -> unit
  (** High-water-mark semantics: the counter keeps the max value ever
      offered (e.g. peak frontier size, peak model size), per shard;
      reads merge shards by max. *)

  val value : t -> int
  (** Merged over all shards. *)

  val name : t -> string
  (** The registry key: base name plus rendered labels. *)

  val base : t -> string
  val labels : t -> (string * string) list
  val unit_ : t -> string

  val snapshot : unit -> (string * int) list
  (** All registered counters with non-zero merged values, sorted by
      name. *)

  (** A labeled family: one logical metric keyed by the value of a
      single label, e.g. [decision.route{route=...}]. *)
  type family

  val family : ?unit_:string -> label:string -> string -> family
  val tag : family -> string -> t
  (** [tag fam v] is the member counter for label value [v] (memoized;
      hot paths should hoist the result). *)
end

(** Instantaneous readings (live node counts, worklist depth):
    last-writer-wins cells with no shard merge. *)
module Gauge : sig
  type t

  val make : ?unit_:string -> ?labels:(string * string) list -> string -> t
  val set : t -> int -> unit
  val add : t -> int -> unit
  val sub : t -> int -> unit
  val value : t -> int
  val name : t -> string
  val base : t -> string
  val labels : t -> (string * string) list
  val unit_ : t -> string

  val snapshot : unit -> (string * int) list
  (** All gauges with non-zero values, sorted by name. *)
end

(** Named histograms of [float] observations, sharded like counters.
    Tracks count, sum, min, max and explicit bucket counts exactly;
    percentiles come from a capped per-shard reservoir (512 samples
    per shard, first-come). *)
module Histogram : sig
  type t

  val make :
    ?unit_:string ->
    ?labels:(string * string) list ->
    ?buckets:float array ->
    string ->
    t
  (** [buckets] are upper bounds (ascending); observations above the
      last bound land in an implicit [+Inf] bucket.  Default: decades
      from 1 to 1e9. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float

  val buckets : t -> (float * int) list
  (** Merged per-bound counts (non-cumulative), ending with the
      [+Inf] (= [infinity]) overflow bucket; the counts always sum to
      {!count}. *)

  val percentile : t -> float -> float
  (** [percentile h 0.5] is the median of the retained samples; [nan]
      when empty. *)

  val name : t -> string
  val base : t -> string
  val labels : t -> (string * string) list
  val unit_ : t -> string

  type family

  val family :
    ?unit_:string -> ?buckets:float array -> label:string -> string -> family

  val tag : family -> string -> t
end

(** Nested spans.  Spans form a stack per domain; [stop]ping a span
    that is not innermost first auto-closes the spans opened inside
    it, so the exported trace is always properly nested — no orphan
    parents.  A span must be stopped on the domain that started it. *)
module Span : sig
  type t

  val null : t
  (** The disabled span; stopping it is a no-op.  [start] returns it
      whenever the layer is disabled. *)

  val start : ?args:(string * string) list -> string -> t

  val stop : ?args:(string * string) list -> t -> unit
  (** Extra [args] given at stop time are merged into the span's end
      event.  Stopping a span that was already stopped is a no-op. *)

  val with_ : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** [with_ name f] runs [f] inside a span; the span is closed even if
      [f] raises. *)

  val event : ?args:(string * string) list -> string -> unit
  (** An instant event (Chrome phase ["i"]), e.g. one escalation round
      or a budget trip. *)

  val depth : unit -> int
  (** Number of currently open spans on the calling domain (0 when
      balanced). *)
end

(** The buffered event stream (populated only under {!enable_tracing}). *)
module Trace : sig
  type phase = Begin | End | Instant

  type event = {
    name : string;
    ph : phase;
    ts_ns : int64;  (** relative to the trace epoch (the last {!reset}) *)
    tid : int;  (** originating domain (1 = first domain to instrument) *)
    args : (string * string) list;
  }

  val events : unit -> event list
  (** Grouped by originating domain, each group in emission order.
      Each per-domain buffer is capped (2^18 events); beyond that,
      events are dropped and counted. *)

  val dropped : unit -> int

  val to_chrome_json : unit -> string
  (** A complete Chrome [trace_event]-format document (JSON object with
      a [traceEvents] array of B/E/i events, microsecond timestamps,
      one [tid] per domain), loadable in [chrome://tracing] and
      Perfetto.  Spans still open at export time are closed
      synthetically at the current clock so the file is always
      well-formed. *)

  val write_chrome : string -> unit
  (** [to_chrome_json] to a file. *)
end

(** The decision audit journal: one structured record per decision
    (and per snapshot park/resume), giving per-request provenance that
    aggregate counters cannot.  Switched independently of the metrics
    layer; the buffer is mutex-guarded and capped (2^16 records). *)
module Audit : sig
  val enable : unit -> unit
  val disable : unit -> unit
  val enabled : unit -> bool

  val emit : ?fields:(string * Json.t) list -> string -> unit
  (** [emit ~fields event] appends a record
      [{"seq": n, "ts_ns": t, "event": event, ...fields}].  No-op while
      disabled. *)

  val records : unit -> Json.t list
  (** In emission order. *)

  val dropped : unit -> int

  val to_jsonl : unit -> string
  (** One record per line; [""] when empty. *)

  val validate : Json.t -> (unit, string) result
  (** Schema check: the [seq]/[ts_ns]/[event] envelope on every record;
      ["decision"] records must also carry string [route] and
      [verdict] fields and a [prefilter] of ["hit"], ["miss"] or
      ["skipped"]. *)
end

(** Aggregated statistics: every counter, gauge, histogram, and
    per-span-name totals (count, total wall-clock, self time = total
    minus time spent in child spans), merged over all domains. *)
module Stats : sig
  type span_stat = { count : int; total_ns : int64; self_ns : int64 }

  val spans : unit -> (string * span_stat) list
  (** Sorted by total time, descending. *)

  val to_json : unit -> Json.t
  val to_text : unit -> string
  (** Human-readable tables: counters, gauges, span attribution (count,
      total, self, share of the busiest root span), histograms. *)
end

(** OpenMetrics/Prometheus text exposition of the whole registry:
    counters as [pathcons_<name>_total] (labels preserved), gauges
    verbatim, histograms with cumulative [_bucket{le="..."}] series
    plus [_sum]/[_count], span aggregates as derived counter families
    ([pathcons_span_calls_total{span="..."}] etc.), terminated by
    [# EOF].  Metric names are sanitized (dots become underscores). *)
module Openmetrics : sig
  val render : unit -> string
end
