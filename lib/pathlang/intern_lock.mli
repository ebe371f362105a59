(** Serialization of the global interning tables under parallel runs.

    {!Label.make} and {!Path.make} both go through process-global
    mutable tables (the label table from names to interned labels, and
    the weak hash-consing set of paths).  Those tables are deliberately
    unsynchronized: the single-domain hot path must not pay for a lock
    it never contends.  When a [Par] pool is about to spawn worker
    domains it {e arms} this lock, and from then on every interning
    operation takes a process-wide mutex — the interning invariant
    (equal names or label sequences iff physical equality) survives
    concurrent construction.  Reading an interned value never locks:
    {!Label.id} is a field read.

    Arming is monotonic and happens-before the first worker domain
    starts (the pool arms before [Domain.spawn]), so a worker can never
    observe the unarmed fast path. *)

val arm : unit -> unit
(** Switch interning to the locked path for the rest of the process.
    Idempotent. *)

val armed : unit -> bool

val with_lock : (unit -> 'a) -> 'a
(** Run a critical section over the interning tables: under the mutex
    once {!arm} has been called, a plain call before that. *)
