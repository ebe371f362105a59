(* The chase route lives in the decision router; this module keeps its
   historical entry points. *)
let implies = Decide.chase
let implies_escalating = Decide.chase_escalating
