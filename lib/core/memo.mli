(** A one-entry memo per domain, for decision contexts.

    A decision route keeps the context of the last Σ it saw, so a run
    of goals against one Σ builds the context once.  The slot lives in
    [Domain.DLS]: {!Par} domains never share it, and a context needs no
    locking.  There is no capacity to tune: the traffic that repeats a
    Σ asks its goals back to back.  Leave-one-out traffic, which asks
    about a different subset of one Σ each time, is served by subset
    contexts ({!Word_untyped.subsets}, {!Typed_m.subsets}), not by a
    cache. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val find_or_add : ('k, 'v) t -> same:('k -> 'k -> bool) -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add m ~same k build] is the calling domain's entry when
    its key is [same] as [k], and otherwise [build ()], which replaces
    the entry. *)
