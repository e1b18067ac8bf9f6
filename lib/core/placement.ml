(* Quadratic-assignment placement with tabu-search improvement (the 2QAN
   recipe).  The objective is the classic QAP form

     cost(sol) = sum over logical pairs (q, q')  flow(q, q') * dist(sol q, sol q')

   where flow counts two-qubit interactions and dist is device shortest
   path.  A greedy construction (highest-flow qubits first, each placed
   where it is closest to its already-placed partners) is improved by
   tabu search over pair swaps and relocations to free physical qubits,
   with an aspiration criterion on the incumbent best.

   The result is a placement, not a routing.  The sliced router pins its
   first slice to it by default ([Router.config.placement = Qap]); the
   [qap] engine routes from it with SABRE; and any engine that accepts a
   seed takes it through [--seed-placement qap].

   [embed] asks whether some placement puts every two-qubit gate on a
   device edge; the router takes a "no" as a proved lower bound of one
   SWAP for a block whose initial map is free. *)

let flow_matrix circuit =
  let n = Quantum.Circuit.n_qubits circuit in
  let flow = Array.make_matrix n n 0 in
  List.iter
    (fun (_, q, q') ->
      flow.(q).(q') <- flow.(q).(q') + 1;
      flow.(q').(q) <- flow.(q').(q) + 1)
    (Quantum.Circuit.two_qubit_gates circuit);
  flow

let cost ~device ~flow sol =
  let n = Array.length sol in
  let total = ref 0 in
  for q = 0 to n - 1 do
    for q' = q + 1 to n - 1 do
      if flow.(q).(q') > 0 then
        total :=
          !total + (flow.(q).(q') * Arch.Device.distance device sol.(q) sol.(q'))
    done
  done;
  !total

(* Cost change from assigning [q] to position [p] instead of [sol.(q)],
   everything else fixed. *)
let move_delta ~device ~flow sol q p =
  let n = Array.length sol in
  let d = ref 0 in
  for q' = 0 to n - 1 do
    if q' <> q && flow.(q).(q') > 0 then
      d :=
        !d
        + flow.(q).(q')
          * (Arch.Device.distance device p sol.(q')
            - Arch.Device.distance device sol.(q) sol.(q'))
  done;
  !d

let swap_delta ~device ~flow sol i j =
  let pi = sol.(i) and pj = sol.(j) in
  let n = Array.length sol in
  let d = ref 0 in
  for q = 0 to n - 1 do
    if q <> i && q <> j then begin
      if flow.(i).(q) > 0 then
        d :=
          !d
          + flow.(i).(q)
            * (Arch.Device.distance device pj sol.(q)
              - Arch.Device.distance device pi sol.(q));
      if flow.(j).(q) > 0 then
        d :=
          !d
          + flow.(j).(q)
            * (Arch.Device.distance device pi sol.(q)
              - Arch.Device.distance device pj sol.(q))
    end
  done;
  (* the (i, j) term itself is symmetric under the swap *)
  !d

let greedy device flow =
  let n_log = Array.length flow in
  let n_phys = Arch.Device.n_qubits device in
  let total_flow q = Array.fold_left ( + ) 0 flow.(q) in
  let order =
    List.sort
      (fun a b -> compare (total_flow b, a) (total_flow a, b))
      (List.init n_log Fun.id)
  in
  let sol = Array.make n_log (-1) in
  let taken = Array.make n_phys false in
  List.iter
    (fun q ->
      let score p =
        if taken.(p) then max_int
        else begin
          let placed = ref 0 in
          for q' = 0 to n_log - 1 do
            if sol.(q') >= 0 && flow.(q).(q') > 0 then
              placed :=
                !placed + (flow.(q).(q') * Arch.Device.distance device p sol.(q'))
          done;
          (* prefer central (high-degree) spots when no partner is placed *)
          (!placed * n_phys) - Arch.Device.degree device p
        end
      in
      let best = ref (-1) and best_s = ref max_int in
      for p = 0 to n_phys - 1 do
        let s = score p in
        if s < !best_s then begin
          best := p;
          best_s := s
        end
      done;
      sol.(q) <- !best;
      taken.(!best) <- true)
    order;
  sol

let place ?(seed = 1) ?(iterations = 250) device circuit =
  if Quantum.Circuit.n_qubits circuit > Arch.Device.n_qubits device then
    invalid_arg "Placement.place: circuit does not fit on the device";
  let flow = flow_matrix circuit in
  let n_log = Array.length flow in
  let n_phys = Arch.Device.n_qubits device in
  let rng = Rng.create seed in
  let sol = greedy device flow in
  let taken = Array.make n_phys false in
  Array.iter (fun p -> taken.(p) <- true) sol;
  let current = ref (cost ~device ~flow sol) in
  let best = ref !current in
  let best_sol = ref (Array.copy sol) in
  let tenure = 7 in
  (* tabu.(q).(p): iteration until which re-assigning q to p is tabu *)
  let tabu = Array.make_matrix n_log n_phys 0 in
  for iter = 1 to iterations do
    (* Best admissible move this iteration: either swap two logical
       qubits' positions or relocate one to a free physical qubit. *)
    let best_move = ref None and best_delta = ref max_int in
    let consider move delta forbidden =
      let aspirated = !current + delta < !best in
      if (not forbidden) || aspirated then
        if
          delta < !best_delta
          || (delta = !best_delta && Rng.bool rng)
        then begin
          best_move := Some move;
          best_delta := delta
        end
    in
    for i = 0 to n_log - 1 do
      for j = i + 1 to n_log - 1 do
        let delta = swap_delta ~device ~flow sol i j in
        let forbidden =
          tabu.(i).(sol.(j)) > iter || tabu.(j).(sol.(i)) > iter
        in
        consider (`Swap (i, j)) delta forbidden
      done;
      for p = 0 to n_phys - 1 do
        if not taken.(p) then begin
          let delta = move_delta ~device ~flow sol i p in
          consider (`Move (i, p)) delta (tabu.(i).(p) > iter)
        end
      done
    done;
    (match !best_move with
    | None -> ()
    | Some (`Swap (i, j)) ->
      tabu.(i).(sol.(i)) <- iter + tenure;
      tabu.(j).(sol.(j)) <- iter + tenure;
      let t = sol.(i) in
      sol.(i) <- sol.(j);
      sol.(j) <- t;
      current := !current + !best_delta
    | Some (`Move (i, p)) ->
      tabu.(i).(sol.(i)) <- iter + tenure;
      taken.(sol.(i)) <- false;
      taken.(p) <- true;
      sol.(i) <- p;
      current := !current + !best_delta);
    if !current < !best then begin
      best := !current;
      best_sol := Array.copy sol
    end
  done;
  !best_sol

(* ------------------------------------------------------------------ *)
(* Embedding: a zero-SWAP initial map *)

type embedding = Embeds of int array | Does_not_embed | Unknown

(* Search nodes (placements tried) before the test gives up.  On tokyo
   the largest search over the suite's whole circuits and its slices of
   10, 25, 50 and 100 two-qubit gates took 4,182 nodes, under 2 ms on a
   2-core x86-64 VM; a block the budget cannot settle answers [Unknown]
   after a few ms. *)
let embed_budget = 20_000

exception Out_of_budget

(* Backtracking subgraph embedding of the interaction graph.  Qubits are
   placed in connectivity order: next the one with the most placed
   neighbours, then the highest degree, then the lowest index.  A
   candidate position is free, has at least the qubit's degree, is
   adjacent to the position of every placed neighbour, and has enough
   free neighbours for the qubit's unplaced ones.  A qubit without
   two-qubit gates takes the lowest free position at the end. *)
let embed ?(budget = embed_budget) device circuit =
  let flow = flow_matrix circuit in
  let n_log = Array.length flow in
  let n_phys = Arch.Device.n_qubits device in
  if n_log > n_phys then Does_not_embed
  else begin
    let nbrs =
      Array.init n_log (fun q ->
          List.filter (fun q' -> flow.(q).(q') > 0) (List.init n_log Fun.id))
    in
    let deg = Array.map List.length nbrs in
    let order =
      Array.of_list
        (List.filter (fun q -> deg.(q) > 0) (List.init n_log Fun.id))
    in
    let n_active = Array.length order in
    let rank = Array.make n_log max_int in
    let placed_nbrs k q = List.filter (fun q' -> rank.(q') < k) nbrs.(q) in
    let key k q = (List.length (placed_nbrs k q), deg.(q), -q) in
    for k = 0 to n_active - 1 do
      let best = ref k in
      for j = k + 1 to n_active - 1 do
        if key k order.(j) > key k order.(!best) then best := j
      done;
      let q = order.(!best) in
      order.(!best) <- order.(k);
      order.(k) <- q;
      rank.(q) <- k
    done;
    let earlier = Array.init n_active (fun k -> placed_nbrs k order.(k)) in
    let later =
      Array.mapi (fun k q -> deg.(q) - List.length earlier.(k)) order
    in
    let nbr =
      Array.init n_phys (fun p ->
          Array.of_list (Arch.Device.neighbors device p))
    in
    let everywhere = Array.init n_phys Fun.id in
    let sol = Array.make n_log (-1) and taken = Array.make n_phys false in
    let nodes = ref 0 in
    let free_nbrs p =
      Array.fold_left
        (fun acc p' -> if taken.(p') then acc else acc + 1)
        0 nbr.(p)
    in
    let fits k p =
      (not taken.(p))
      && Arch.Device.degree device p >= deg.(order.(k))
      && List.for_all
           (fun q' -> Arch.Device.adjacent device p sol.(q'))
           earlier.(k)
      && free_nbrs p >= later.(k)
    in
    let rec place k =
      k = n_active
      ||
      let q = order.(k) in
      let candidates =
        match earlier.(k) with q' :: _ -> nbr.(sol.(q')) | [] -> everywhere
      in
      Array.exists
        (fun p ->
          fits k p
          && begin
            incr nodes;
            if !nodes > budget then raise Out_of_budget;
            sol.(q) <- p;
            taken.(p) <- true;
            place (k + 1)
            || begin
              taken.(p) <- false;
              sol.(q) <- -1;
              false
            end
          end)
        candidates
    in
    match place 0 with
    | exception Out_of_budget -> Unknown
    | false -> Does_not_embed
    | true ->
      let free = ref 0 in
      Array.iteri
        (fun q p ->
          if p < 0 then begin
            while taken.(!free) do
              incr free
            done;
            sol.(q) <- !free;
            taken.(!free) <- true
          end)
        sol;
      Embeds sol
  end
