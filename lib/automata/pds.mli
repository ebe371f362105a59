(** Pushdown systems.

    A PDS is a finite set of control states together with rules
    [<p, gamma> -> <q, w>]: in control state [p] with [gamma] on top of
    the stack, pop [gamma], push the word [w] and move to control state
    [q].  Configurations are pairs (control state, stack word).

    Pushdown reachability (pre*/post* of a regular configuration set is
    regular and computable by saturation) is the engine behind the PTIME
    decision procedure for word constraint implication: the three
    complete inference rules of [4] make derivability a prefix-rewriting
    reachability question, and prefix rewriting is a single-control-state
    PDS. *)

type state = int

type rule = {
  p : state;
  gamma : Pathlang.Label.t;
  q : state;
  push : Pathlang.Label.t list;
}

type t = { control_count : int; rules : rule list }

val make : control_count:int -> rule list -> t
(** @raise Invalid_argument if a rule mentions a control state outside
    [0 .. control_count - 1]. *)

val normalize : t -> t
(** An equivalent PDS whose rules push at most two symbols; rules pushing
    [k > 2] symbols are decomposed through fresh intermediate control
    states.  Needed by {!Saturation.post_star}. *)

val step :
  t -> state * Pathlang.Label.t list -> (state * Pathlang.Label.t list) list
(** Immediate successor configurations (used by the brute-force BFS
    oracle in tests). *)

val pp : Format.formatter -> t -> unit
