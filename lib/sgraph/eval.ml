module Label = Pathlang.Label
module Path = Pathlang.Path
module NS = Graph.Node_set

type state = int
type move = { label : Label.t; id : int; next : state array }
type nfa = { start : state list; delta : move array array; final : bool array }
type automaton = Chain of Label.t list | Nfa of nfa

exception Interrupted

let move label next = { label; id = Label.id label; next = Array.of_list next }
let chain rho = Chain (Path.to_labels rho)

(* The chain walker.  A word's automaton is acyclic, so its product
   needs no visited set: layer r is the frontier after r letters.  Words
   are walked thousands of times per chase step on tiny graphs, where
   any fixed cost per walk would dominate, so the frontier is flat: the
   nodes [cur.(0 .. len-1)], each stamped with the current generation in
   [stamp], which dedups a layer without clearing anything between
   layers or walks.  One frontier per domain, grown with the largest
   graph walked, serves every walk. *)
type frontier = {
  mutable stamp : int array;  (** per node, the last generation that reached it *)
  mutable gen : int;
  mutable cur : int array;
  mutable nxt : int array;
  mutable len : int;
}

let scratch =
  Domain.DLS.new_key (fun () -> { stamp = [||]; gen = 0; cur = [||]; nxt = [||]; len = 0 })

let check_node g x = if not (Graph.mem_node g x) then invalid_arg "Eval.run: unknown node"

let start g x =
  check_node g x;
  let f = Domain.DLS.get scratch in
  let n = Graph.node_count g in
  if Array.length f.stamp < n then begin
    (* stamps are all below the next generation, so fresh zeros do *)
    let cap = max n (2 * Array.length f.stamp) in
    f.stamp <- Array.make cap 0;
    f.cur <- Array.make cap 0;
    f.nxt <- Array.make cap 0
  end;
  f.gen <- f.gen + 1;
  f.stamp.(x) <- f.gen;
  f.cur.(0) <- x;
  f.len <- 1;
  f

(* One letter: the frontier's successors (predecessors with [back])
   over the runs labelled [id].  An empty frontier stays empty, and no
   node holds its generation. *)
let step ~back g f id =
  if f.len > 0 then begin
    f.gen <- f.gen + 1;
    let gen = f.gen and stamp = f.stamp and cur = f.cur and nxt = f.nxt in
    let n = ref 0 in
    for i = 0 to f.len - 1 do
      let r : Graph.run = if back then Graph.in_run g cur.(i) id else Graph.out_run g cur.(i) id in
      let ts = r.targets in
      for e = 0 to r.len - 1 do
        let t = ts.(e) in
        if stamp.(t) <> gen then begin
          stamp.(t) <- gen;
          nxt.(!n) <- t;
          incr n
        end
      done
    done;
    f.cur <- nxt;
    f.nxt <- cur;
    f.len <- !n
  end

let image g f w lo hi =
  for q = lo to hi - 1 do
    step ~back:false g f w.(q)
  done

let preimage g f w lo hi =
  for q = hi - 1 downto lo do
    step ~back:true g f w.(q)
  done

let size f = f.len
let get f i = f.cur.(i)
let mem f x = f.stamp.(x) = f.gen
let word rho = Array.of_list (List.map Label.id (Path.to_labels rho))

(* A growable int array. *)
type buf = { mutable a : int array; mutable len : int }

let buf () = { a = [||]; len = 0 }

let push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make (max 64 (2 * b.len)) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

(* One bit per node. *)
let bits nodes = Bytes.make ((nodes + 7) lsr 3) '\000'

let test_and_set b v =
  let i = v lsr 3 and m = 1 lsl (v land 7) in
  let c = Char.code (Bytes.unsafe_get b i) in
  c land m <> 0 || (Bytes.unsafe_set b i (Char.unsafe_chr (c lor m)); false)

(* The product BFS over the graph's runs.  A pair (v, q) is
   the int [v * n + q], pushed on [queue], which is never shrunk: a
   pair's position there names it.  [visited.(q)] holds q's bitset over
   the nodes, allocated when q is first reached.  A pair is marked
   before [admit] is asked, so [admit] runs once per pair, and only an
   admitted pair is queued.  [hits] holds each answer's first final
   pair.  Pairs are queued in non-decreasing distance from the start,
   so a first final pair ends a shortest run.

   With [parents] (the witness search), [from] and [via] give each
   queued pair the position of the pair it was pushed from (-1 for a
   start pair) and the index of that pair's move, and the queue is cut
   into groups of pairs that one word reached, in ascending order of
   that word.  A group reads its labels in ascending order, each label
   for all its pairs before the next, so every group it pushes holds
   one word and the groups stay in ascending order: the first final
   pair of an answer ends the least of its shortest words, whatever
   order the graph and the automaton list their edges in. *)
type search = { queue : buf; hits : buf; from : buf; via : buf }

let product ~parents admit interrupt g src a =
  check_node g src;
  let nodes = Graph.node_count g in
  let n = Array.length a.delta in
  let visited = Array.make n Bytes.empty and answered = bits nodes in
  let s = { queue = buf (); hits = buf (); from = buf (); via = buf () } in
  let admit = Option.value admit ~default:(fun _ _ -> true) in
  let stop = Option.value interrupt ~default:(fun () -> false) in
  let visit v q from via =
    if visited.(q) == Bytes.empty then visited.(q) <- bits nodes;
    if (not (test_and_set visited.(q) v)) && admit v q then begin
      if a.final.(q) && not (test_and_set answered v) then push s.hits s.queue.len;
      push s.queue ((v * n) + q);
      if parents then begin
        push s.from from;
        push s.via via
      end
    end
  in
  (* the pair at queue position [i] reads its move [j] *)
  let expand i j m =
    let r = Graph.out_run g (s.queue.a.(i) / n) m.id in
    for e = 0 to r.len - 1 do
      for t = 0 to Array.length m.next - 1 do
        visit r.targets.(e) m.next.(t) i j
      done
    done
  in
  List.iter (fun q -> visit src q (-1) (-1)) a.start;
  if not parents then begin
    let head = ref 0 in
    while !head < s.queue.len do
      if stop () then raise Interrupted;
      let moves = a.delta.(s.queue.a.(!head) mod n) in
      for j = 0 to Array.length moves - 1 do
        expand !head j moves.(j)
      done;
      incr head
    done
  end
  else begin
    let groups = buf () and gi = ref 0 in
    push groups 0;
    while !gi < groups.len do
      let lo = groups.a.(!gi) in
      let hi = if !gi + 1 < groups.len then groups.a.(!gi + 1) else s.queue.len in
      let moves i = a.delta.(s.queue.a.(i) mod n) in
      let labels =
        List.init (hi - lo) (fun i -> Array.to_list (moves (lo + i)))
        |> List.concat_map (List.map (fun m -> m.label))
        |> List.sort_uniq Label.compare
      in
      List.iter
        (fun k ->
          let mark = s.queue.len in
          for i = lo to hi - 1 do
            Option.iter
              (fun j -> expand i j (moves i).(j))
              (Array.find_index (fun m -> Label.equal m.label k) (moves i))
          done;
          if s.queue.len > mark then push groups mark)
        labels;
      incr gi
    done
  end;
  s

(* The node and state of the pair at queue position [i]. *)
let node a s i = s.queue.a.(i) / Array.length a.delta
let state a s i = s.queue.a.(i) mod Array.length a.delta

let run ?admit ?interrupt g x = function
  | Chain ks ->
      let f = start g x in
      List.iter (fun k -> step ~back:false g f (Label.id k)) ks;
      let s = ref NS.empty in
      for i = 0 to f.len - 1 do
        s := NS.add f.cur.(i) !s
      done;
      !s
  | Nfa a ->
      let s = product ~parents:false admit interrupt g x a in
      NS.of_seq (Seq.init s.hits.len (fun i -> node a s s.hits.a.(i)))

let witnesses g x a =
  let s = product ~parents:true None None g x a in
  let rec back i acc =
    match s.from.a.(i) with
    | -1 -> acc
    | j -> back j (a.delta.(state a s j).(s.via.a.(i)).label :: acc)
  in
  List.init s.hits.len (fun i -> s.hits.a.(i))
  |> List.map (fun i -> (node a s i, Path.of_labels (back i [])))
  |> List.sort (fun (v, _) (w, _) -> Int.compare v w)

let eval_from g x rho = run g x (chain rho)
let eval g rho = eval_from g (Graph.root g) rho
let holds_between g x rho y = NS.mem y (eval_from g x rho)

let reachable g x =
  let seen = ref (NS.singleton x) and todo = Stack.create () in
  Stack.push x todo;
  while not (Stack.is_empty todo) do
    List.iter
      (fun (_, y) ->
        if not (NS.mem y !seen) then begin
          seen := NS.add y !seen;
          Stack.push y todo
        end)
      (Graph.succ_all g (Stack.pop todo))
  done;
  !seen
