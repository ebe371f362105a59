(** Finite automata over edge-label alphabets, with epsilon transitions.

    These are the "P-automata" of pushdown reachability: states are dense
    integers, transitions are added imperatively during saturation, and
    the only queries needed are reachability under a word and acceptance.
    A generic membership/emptiness interface is provided for tests. *)

type state = int

type t

module State_set : Set.S with type elt = state

val create : unit -> t

val add_state : t -> state
(** Fresh state (dense numbering from 0). *)

val ensure_states : t -> int -> unit
(** Make sure states [0 .. n-1] exist. *)

val state_count : t -> int

val add_trans : t -> state -> Pathlang.Label.t -> state -> unit
(** Idempotent. *)

val add_eps : t -> state -> state -> unit

val mem_trans : t -> state -> Pathlang.Label.t -> state -> bool

val set_final : t -> state -> unit
val is_final : t -> state -> bool
val finals : t -> State_set.t

val eps_closure : t -> State_set.t -> State_set.t

val step : t -> State_set.t -> Pathlang.Label.t -> State_set.t
(** One letter, including epsilon closure before and after. *)

val reach : t -> state -> Pathlang.Label.t list -> State_set.t
(** States reachable from the given state reading the word. *)

val accepts_from : t -> state -> Pathlang.Label.t list -> bool
(** Whether reading the word from the state can reach a final state. *)

val transitions : t -> (state * Pathlang.Label.t * state) list
val eps_transitions : t -> (state * state) list

val copy : t -> t
