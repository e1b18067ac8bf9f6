(* Tests for the SATMAP core: mappings, the verifier, the encoding, the
   routers (monolithic / sliced / cyclic / portfolio), and the noise-aware
   objective.  Router optimality is checked against an independent
   brute-force reference (Dijkstra over (step, mapping) states). *)

let cx = Quantum.Gate.cx
let line n = Arch.Topologies.linear n
let tokyo = Arch.Topologies.tokyo ()

let quick_config =
  { Satmap.Router.default_config with timeout = 20.0 }

(* The paper's running example (Fig. 3): a 4-qubit star circuit on a
   4-qubit path; the optimal solution inserts exactly one swap. *)
let running_example () =
  ( line 4,
    Quantum.Circuit.create ~n_qubits:4 [ cx 0 1; cx 0 2; cx 0 1; cx 0 3 ] )

(* ------------------------------------------------------------------ *)
(* Brute-force optimal QMR (independent reference) *)

module Brute_qmr = struct
  (* All injective maps from n_log logical onto n_phys physical qubits. *)
  let all_maps ~n_log ~n_phys =
    let rec go chosen free k =
      if k = n_log then [ Array.of_list (List.rev chosen) ]
      else
        List.concat_map
          (fun p ->
            go (p :: chosen) (List.filter (( <> ) p) free) (k + 1))
          free
    in
    go [] (List.init n_phys Fun.id) 0

  let apply_swap map (a, b) =
    Array.map (fun p -> if p = a then b else if p = b then a else p) map

  (* Minimal number of swaps for the whole circuit: Dijkstra over
     (next-step index, mapping). *)
  let optimal_swaps device circuit =
    let steps =
      List.map
        (fun (_, q, q') -> (q, q'))
        (Quantum.Circuit.two_qubit_gates circuit)
    in
    let n_steps = List.length steps in
    if n_steps = 0 then Some 0
    else begin
      let steps = Array.of_list steps in
      let n_log = Quantum.Circuit.n_qubits circuit in
      let n_phys = Arch.Device.n_qubits device in
      let maps = all_maps ~n_log ~n_phys in
      let dist = Hashtbl.create 4096 in
      let module Pq = Map.Make (Int) in
      let pq = ref Pq.empty in
      let push cost state =
        pq :=
          Pq.update cost
            (fun l -> Some (state :: Option.value l ~default:[]))
            !pq
      in
      let pop () =
        match Pq.min_binding_opt !pq with
        | None -> None
        | Some (c, [ s ]) ->
          pq := Pq.remove c !pq;
          Some (c, s)
        | Some (c, s :: rest) ->
          pq := Pq.add c rest !pq;
          Some (c, s)
        | Some (_, []) -> assert false
      in
      let key (i, map) = (i, Array.to_list map) in
      List.iter
        (fun m ->
          Hashtbl.replace dist (key (0, m)) 0;
          push 0 (0, m))
        maps;
      let result = ref None in
      while !result = None && Pq.cardinal !pq > 0 do
        match pop () with
        | None -> ()
        | Some (cost, (i, map)) ->
          if Hashtbl.find dist (key (i, map)) = cost then begin
            if i = n_steps then result := Some cost
            else begin
              let relax cost' state =
                let k = key state in
                match Hashtbl.find_opt dist k with
                | Some c when c <= cost' -> ()
                | _ ->
                  Hashtbl.replace dist k cost';
                  push cost' state
              in
              (* Execute the next gate if its qubits are adjacent. *)
              let q, q' = steps.(i) in
              if Arch.Device.adjacent device map.(q) map.(q') then
                relax cost (i + 1, map);
              (* Or apply any swap. *)
              List.iter
                (fun e -> relax (cost + 1) (i, apply_swap map e))
                (Arch.Device.edges device)
            end
          end
      done;
      !result
    end
end

(* ------------------------------------------------------------------ *)
(* Mapping *)

let test_mapping_validation () =
  Alcotest.check_raises "not injective"
    (Invalid_argument "Mapping: not injective") (fun () ->
      ignore (Satmap.Mapping.of_array ~n_phys:3 [| 0; 0 |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Mapping: target out of range") (fun () ->
      ignore (Satmap.Mapping.of_array ~n_phys:3 [| 0; 5 |]));
  Alcotest.check_raises "too many logical"
    (Invalid_argument "Mapping: more logical than physical qubits") (fun () ->
      ignore (Satmap.Mapping.of_array ~n_phys:1 [| 0; 1 |]))

let test_mapping_swap () =
  let m = Satmap.Mapping.of_array ~n_phys:4 [| 0; 1; 2 |] in
  let m' = Satmap.Mapping.apply_swap m (1, 3) in
  Alcotest.(check int) "q1 moved" 3 (Satmap.Mapping.phys_of_log m' 1);
  Alcotest.(check int) "q0 stays" 0 (Satmap.Mapping.phys_of_log m' 0);
  (* Swapping with an unoccupied qubit moves the occupant. *)
  let m'' = Satmap.Mapping.apply_swap m' (3, 1) in
  Alcotest.(check bool) "involution" true (Satmap.Mapping.equal m m'')

let test_mapping_inverse () =
  let m = Satmap.Mapping.of_array ~n_phys:4 [| 2; 0 |] in
  Alcotest.(check (array int)) "inverse" [| 1; -1; 0; -1 |]
    (Satmap.Mapping.phys_to_log m);
  Alcotest.(check (option int)) "log_of_phys" (Some 0)
    (Satmap.Mapping.log_of_phys m 2);
  Alcotest.(check (option int)) "free" None (Satmap.Mapping.log_of_phys m 1)

let prop_mapping_swaps_preserve_injectivity =
  QCheck2.Test.make ~count:200 ~name:"swap sequences preserve injectivity"
    QCheck2.Gen.(
      let* seed = int_range 0 100000 in
      let* n_swaps = int_range 0 20 in
      return (seed, n_swaps))
    (fun (seed, n_swaps) ->
      let rng = Rng.create seed in
      let n_phys = 4 + Rng.int rng 6 in
      let n_log = 2 + Rng.int rng (n_phys - 2) in
      let m = ref (Satmap.Mapping.random rng ~n_log ~n_phys) in
      for _ = 1 to n_swaps do
        let a = Rng.int rng n_phys in
        let b = (a + 1 + Rng.int rng (n_phys - 1)) mod n_phys in
        m := Satmap.Mapping.apply_swap !m (a, b)
      done;
      let arr = Satmap.Mapping.to_array !m in
      Array.length arr = n_log
      && List.length (List.sort_uniq compare (Array.to_list arr)) = n_log)

let test_swap_distance_lower_bound () =
  let a = Satmap.Mapping.of_array ~n_phys:3 [| 0; 1; 2 |] in
  let b = Satmap.Mapping.of_array ~n_phys:3 [| 1; 0; 2 |] in
  Alcotest.(check int) "one transposition" 1
    (Satmap.Mapping.swap_distance_lower_bound a b);
  let c = Satmap.Mapping.of_array ~n_phys:3 [| 1; 2; 0 |] in
  Alcotest.(check int) "3-cycle" 2
    (Satmap.Mapping.swap_distance_lower_bound a c);
  Alcotest.(check int) "identity" 0
    (Satmap.Mapping.swap_distance_lower_bound a a)

(* ------------------------------------------------------------------ *)
(* Verifier *)

let routed_of_gates ~device ~initial ~final gates =
  Satmap.Routed.create ~device
    ~initial:
      (Satmap.Mapping.of_array ~n_phys:(Arch.Device.n_qubits device) initial)
    ~final:
      (Satmap.Mapping.of_array ~n_phys:(Arch.Device.n_qubits device) final)
    ~circuit:
      (Quantum.Circuit.create ~n_qubits:(Arch.Device.n_qubits device) gates)

let test_verifier_accepts_valid () =
  let device = line 3 in
  let original = Quantum.Circuit.create ~n_qubits:3 [ cx 0 1; cx 0 2 ] in
  (* map identity; swap p2,p1 before second gate so q2 reaches p1 *)
  let routed =
    routed_of_gates ~device ~initial:[| 0; 1; 2 |] ~final:[| 0; 2; 1 |]
      [ cx 0 1; Quantum.Gate.swap 1 2; cx 0 1 ]
  in
  Alcotest.(check (list string)) "no failures" []
    (List.map Satmap.Verifier.failure_to_string
       (Satmap.Verifier.check ~original routed))

let test_verifier_rejects_disconnected () =
  let device = line 3 in
  let original = Quantum.Circuit.create ~n_qubits:3 [ cx 0 2 ] in
  let routed =
    routed_of_gates ~device ~initial:[| 0; 1; 2 |] ~final:[| 0; 1; 2 |]
      [ cx 0 2 ]
  in
  match Satmap.Verifier.check ~original routed with
  | Satmap.Verifier.Disconnected_gate _ :: _ -> ()
  | other ->
    Alcotest.failf "expected disconnection, got %s"
      (String.concat ";" (List.map Satmap.Verifier.failure_to_string other))

let test_verifier_rejects_wrong_gate () =
  let device = line 2 in
  let original = Quantum.Circuit.create ~n_qubits:2 [ cx 0 1 ] in
  let routed =
    routed_of_gates ~device ~initial:[| 0; 1 |] ~final:[| 0; 1 |]
      [ cx 1 0 (* flipped orientation *) ]
  in
  match Satmap.Verifier.check ~original routed with
  | Satmap.Verifier.Wrong_gate _ :: _ -> ()
  | _ -> Alcotest.fail "expected wrong gate"

let test_verifier_rejects_missing () =
  let device = line 2 in
  let original = Quantum.Circuit.create ~n_qubits:2 [ cx 0 1; cx 0 1 ] in
  let routed =
    routed_of_gates ~device ~initial:[| 0; 1 |] ~final:[| 0; 1 |] [ cx 0 1 ]
  in
  match Satmap.Verifier.check ~original routed with
  | [ Satmap.Verifier.Missing_gates { n_missing = 1 } ] -> ()
  | _ -> Alcotest.fail "expected missing gate"

let test_verifier_rejects_bad_final_map () =
  let device = line 3 in
  let original = Quantum.Circuit.create ~n_qubits:3 [ cx 0 1 ] in
  let routed =
    routed_of_gates ~device ~initial:[| 0; 1; 2 |] ~final:[| 0; 2; 1 |]
      [ cx 0 1 ]
  in
  match Satmap.Verifier.check ~original routed with
  | [ Satmap.Verifier.Final_map_mismatch ] -> ()
  | _ -> Alcotest.fail "expected final map mismatch"

let test_verifier_accepts_reordered_independent () =
  let device = line 4 in
  let original = Quantum.Circuit.create ~n_qubits:4 [ cx 0 1; cx 2 3 ] in
  let routed =
    routed_of_gates ~device ~initial:[| 0; 1; 2; 3 |] ~final:[| 0; 1; 2; 3 |]
      [ cx 2 3; cx 0 1 (* independent gates swapped *) ]
  in
  Alcotest.(check bool) "accepted" true
    (Satmap.Verifier.is_valid ~original routed)

let test_verifier_rejects_reordered_dependent () =
  let device = line 3 in
  let original = Quantum.Circuit.create ~n_qubits:3 [ cx 0 1; cx 1 2 ] in
  let routed =
    routed_of_gates ~device ~initial:[| 0; 1; 2 |] ~final:[| 0; 1; 2 |]
      [ cx 1 2; cx 0 1 ]
  in
  Alcotest.(check bool) "rejected" false
    (Satmap.Verifier.is_valid ~original routed)

(* ------------------------------------------------------------------ *)
(* Encoding *)

let test_encoding_running_example () =
  let device, circuit = running_example () in
  let spec = Satmap.Encoding.spec device in
  let enc = Satmap.Encoding.build spec circuit in
  (* Consecutive duplicate pair (cx 0 1 twice in a row)?  The example has
     cx 0 1; cx 0 2; cx 0 1; cx 0 3 — no consecutive duplicates. *)
  Alcotest.(check int) "steps" 4 (Satmap.Encoding.n_steps enc);
  let inst = Satmap.Encoding.instance enc in
  match Maxsat.Optimizer.solve inst with
  | Maxsat.Optimizer.Optimal o ->
    Alcotest.(check int) "optimal one swap" 1 o.cost;
    let sol = Satmap.Encoding.decode enc o.model in
    Alcotest.(check int) "decoded swaps" 1 sol.swap_count
  | _ -> Alcotest.fail "expected Optimal"

let test_encoding_coalesce () =
  let device = line 3 in
  let circuit =
    Quantum.Circuit.create ~n_qubits:3 [ cx 0 1; cx 1 0; cx 0 1; cx 1 2 ]
  in
  let enc = Satmap.Encoding.build (Satmap.Encoding.spec device) circuit in
  Alcotest.(check int) "coalesced steps" 2 (Satmap.Encoding.n_steps enc);
  let enc' =
    Satmap.Encoding.build (Satmap.Encoding.spec ~coalesce:false device) circuit
  in
  Alcotest.(check int) "uncoalesced steps" 4 (Satmap.Encoding.n_steps enc')

let test_encoding_estimate () =
  let device, circuit = running_example () in
  let spec = Satmap.Encoding.spec device in
  let est = Satmap.Encoding.estimate_vars spec circuit in
  Alcotest.(check bool) "positive and sane" true (est > 0 && est < 100000)

let test_encoding_fixed_initial () =
  let device, circuit = running_example () in
  (* Pin the known-optimal initial map q0->p1: still cost 1.  Pin a bad
     initial map (q0 at the end of the line): cost goes up. *)
  let solve fixed_initial =
    let enc =
      Satmap.Encoding.build ~fixed_initial (Satmap.Encoding.spec device) circuit
    in
    match Maxsat.Optimizer.solve (Satmap.Encoding.instance enc) with
    | Maxsat.Optimizer.Optimal o -> o.cost
    | _ -> Alcotest.fail "expected Optimal"
  in
  Alcotest.(check int) "good pin" 1 (solve [| 1; 0; 2; 3 |]);
  Alcotest.(check bool) "bad pin costs more" true (solve [| 0; 1; 2; 3 |] > 1)

let test_encoding_cyclic () =
  let device, circuit = running_example () in
  let enc =
    Satmap.Encoding.build ~cyclic:true
      (Satmap.Encoding.spec ~post_slots:2 device)
      circuit
  in
  match Maxsat.Optimizer.solve (Satmap.Encoding.instance enc) with
  | Maxsat.Optimizer.Optimal o ->
    let sol = Satmap.Encoding.decode enc o.model in
    Alcotest.(check (array int)) "final = initial" sol.initial sol.final
  | _ -> Alcotest.fail "expected Optimal"

let test_encoding_blocked_finals () =
  let device = line 2 in
  let circuit = Quantum.Circuit.create ~n_qubits:2 [ cx 0 1 ] in
  let spec = Satmap.Encoding.spec device in
  (* Only two injective maps exist; block both finals -> unsat. *)
  let enc =
    Satmap.Encoding.build ~blocked_finals:[ [| 0; 1 |]; [| 1; 0 |] ] spec
      circuit
  in
  match Maxsat.Optimizer.solve (Satmap.Encoding.instance enc) with
  | Maxsat.Optimizer.Unsatisfiable _ -> ()
  | _ -> Alcotest.fail "expected Unsatisfiable"

(* ------------------------------------------------------------------ *)
(* Encoding sessions: skeleton sharing across activations *)

let session_optimum act =
  match
    Maxsat.Optimizer.resume
      (Maxsat.Optimizer.attach
         ~assumptions:act.Satmap.Encoding.Session.a_assumptions
         ~bounds:act.Satmap.Encoding.Session.a_bounds
         ~solver:act.Satmap.Encoding.Session.a_solver
         ~relax:act.Satmap.Encoding.Session.a_relax ())
  with
  | Maxsat.Optimizer.Optimal o ->
    (o.Maxsat.Optimizer.cost, Satmap.Encoding.decode act.a_enc o.model)
  | _ -> Alcotest.fail "expected Optimal from session descent"

let test_session_skeleton_sharing () =
  (* Three same-shape activations over one session: the first builds the
     skeleton solver, the retry (blocked final — the seam-backtracking
     pattern) and the next slice (different gates) both reuse it.  Each
     descent must still land on ITS circuit's optimum. *)
  let device = line 3 in
  let triangle =
    Quantum.Circuit.create ~n_qubits:3 [ cx 0 1; cx 1 2; cx 0 2 ]
  in
  let easy = Quantum.Circuit.create ~n_qubits:3 [ cx 0 1; cx 1 2; cx 0 1 ] in
  let spec = Satmap.Encoding.spec device in
  Alcotest.(check bool) "count-swaps supported" true
    (Satmap.Encoding.Session.supported spec);
  let created () = Obs.Metrics.value (Obs.Metrics.counter "solver.created") in
  let session = Satmap.Encoding.Session.create () in
  let before = created () in
  let act1 = Satmap.Encoding.Session.prepare session spec triangle in
  Alcotest.(check bool) "first activation builds" false
    act1.Satmap.Encoding.Session.a_reused;
  let cost1, sol1 = session_optimum act1 in
  Alcotest.(check int) "triangle needs one swap" 1 cost1;
  (* Retry of the same slice with the found final blocked. *)
  let act2 =
    Satmap.Encoding.Session.prepare ~blocked_finals:[ sol1.final ] session
      spec triangle
  in
  Alcotest.(check bool) "retry reuses the skeleton" true
    act2.Satmap.Encoding.Session.a_reused;
  let cost2, sol2 = session_optimum act2 in
  Alcotest.(check bool) "retry avoids the blocked final" false
    (sol2.final = sol1.final);
  Alcotest.(check bool) "retry optimum still a swap count" true (cost2 >= 1);
  (* Next slice: different gates, same shape. *)
  let act3 = Satmap.Encoding.Session.prepare session spec easy in
  Alcotest.(check bool) "next slice reuses the skeleton" true
    act3.Satmap.Encoding.Session.a_reused;
  let cost3, _ = session_optimum act3 in
  Alcotest.(check int) "adjacent gates need no swap" 0 cost3;
  Alcotest.(check int) "three activations, one solver" 1 (created () - before)

let test_session_freeze_determinism () =
  (* A frozen-then-thawed session must be indistinguishable from a cold
     one: after a descent leaves learnt clauses and saved phases behind,
     freeze + prepare replays the recipe into a fresh solver, so the
     next descent lands on the same cost AND the same model a brand-new
     session finds.  This is the serving tier's shard-count-invariance
     contract at the session level (a warm engine must answer
     byte-identically to a cold engine). *)
  let device = line 3 in
  let triangle =
    Quantum.Circuit.create ~n_qubits:3 [ cx 0 1; cx 1 2; cx 0 2 ]
  in
  let spec = Satmap.Encoding.spec device in
  (* Cold reference. *)
  let cold = Satmap.Encoding.Session.create () in
  let cost_cold, sol_cold =
    session_optimum (Satmap.Encoding.Session.prepare cold spec triangle)
  in
  (* Warm path: dirty a session with a full descent, freeze, re-prepare. *)
  let warm = Satmap.Encoding.Session.create () in
  let _ = session_optimum (Satmap.Encoding.Session.prepare warm spec triangle) in
  Satmap.Encoding.Session.freeze warm;
  let act = Satmap.Encoding.Session.prepare warm spec triangle in
  Alcotest.(check bool) "thaw is not live-solver reuse" false
    act.Satmap.Encoding.Session.a_reused;
  let cost_warm, sol_warm = session_optimum act in
  Alcotest.(check int) "same cost as cold" cost_cold cost_warm;
  Alcotest.(check bool) "same initial map as cold" true
    (sol_warm.initial = sol_cold.initial);
  Alcotest.(check bool) "same final map as cold" true
    (sol_warm.final = sol_cold.final)

let test_session_window_rebuild () =
  (* Past the reuse window the skeleton is rebuilt: a window-1 session
     builds a fresh solver on every prepare. *)
  let device = line 3 in
  let circuit = Quantum.Circuit.create ~n_qubits:3 [ cx 0 1; cx 1 2 ] in
  let spec = Satmap.Encoding.spec device in
  let session = Satmap.Encoding.Session.create ~window:1 () in
  let a1 = Satmap.Encoding.Session.prepare session spec circuit in
  let a2 = Satmap.Encoding.Session.prepare session spec circuit in
  Alcotest.(check bool) "window exhausted: rebuilt" false
    a2.Satmap.Encoding.Session.a_reused;
  ignore a1

(* ------------------------------------------------------------------ *)
(* Router: correctness and optimality *)

let get_routed = function
  | Satmap.Router.Routed (r, s) -> (r, s)
  | Satmap.Router.Failed m -> Alcotest.failf "routing failed: %s" m

let test_router_running_example () =
  let device, circuit = running_example () in
  let r, s = get_routed (Satmap.Router.route_monolithic ~config:quick_config device circuit) in
  Alcotest.(check int) "paper's optimal" 1 (Satmap.Routed.n_swaps r);
  Alcotest.(check int) "3 added CNOTs" 3 (Satmap.Routed.added_cnots r);
  Alcotest.(check bool) "proved optimal" true s.proved_optimal;
  Alcotest.(check bool) "verifies" true
    (Satmap.Verifier.is_valid ~original:circuit r)

let test_router_no_two_qubit_gates () =
  let device = line 3 in
  let circuit =
    Quantum.Circuit.create ~n_qubits:2 [ Quantum.Gate.h 0; Quantum.Gate.h 1 ]
  in
  let r, s = get_routed (Satmap.Router.route_monolithic device circuit) in
  Alcotest.(check int) "no swaps" 0 (Satmap.Routed.n_swaps r);
  Alcotest.(check bool) "optimal" true s.proved_optimal

let test_router_does_not_fit () =
  let device = line 2 in
  let circuit = Quantum.Circuit.create ~n_qubits:3 [ cx 0 2 ] in
  match Satmap.Router.route_monolithic device circuit with
  | Satmap.Router.Failed _ -> ()
  | Satmap.Router.Routed _ -> Alcotest.fail "expected failure"

let prop_router_optimal_vs_brute =
  QCheck2.Test.make ~count:12 ~name:"monolithic router matches brute optimum"
    QCheck2.Gen.(
      let* seed = int_range 0 1000 in
      let* n_gates = int_range 1 5 in
      return (seed, n_gates))
    (fun (seed, n_gates) ->
      let rng = Rng.create seed in
      let n_phys = 4 in
      let n_log = 3 in
      let device = line n_phys in
      let circuit =
        Quantum.Circuit.create ~n_qubits:n_log
          (List.init n_gates (fun _ ->
               let a = Rng.int rng n_log in
               let b = (a + 1 + Rng.int rng (n_log - 1)) mod n_log in
               cx a b))
      in
      let expected = Brute_qmr.optimal_swaps device circuit in
      match
        Satmap.Router.route_monolithic ~config:quick_config device circuit
      with
      | Satmap.Router.Routed (r, s) ->
        s.proved_optimal
        && Some (Satmap.Routed.n_swaps r) = expected
        && Satmap.Verifier.is_valid ~original:circuit r
      | Satmap.Router.Failed _ -> false)

let test_router_sliced_valid_and_bounded () =
  (* Fig. 6 example spirit: slicing may cost more but never less than the
     global optimum, and always verifies. *)
  let device = line 3 in
  let circuit = Quantum.Circuit.create ~n_qubits:3 [ cx 0 1; cx 0 2 ] in
  let mono, _ =
    get_routed (Satmap.Router.route_monolithic ~config:quick_config device circuit)
  in
  Alcotest.(check int) "monolithic optimum 0" 0 (Satmap.Routed.n_swaps mono);
  let sliced, _ =
    get_routed
      (Satmap.Router.route_sliced ~config:quick_config ~slice_size:1 device circuit)
  in
  Alcotest.(check bool) "sliced verifies" true
    (Satmap.Verifier.is_valid ~original:circuit sliced);
  Alcotest.(check bool) "sliced >= optimal" true
    (Satmap.Routed.n_swaps sliced >= 0)

let test_router_sliced_equals_monolithic_when_one_slice () =
  let device, circuit = running_example () in
  let r, _ =
    get_routed
      (Satmap.Router.route_sliced ~config:quick_config ~slice_size:100 device
         circuit)
  in
  Alcotest.(check int) "same as monolithic" 1 (Satmap.Routed.n_swaps r)

let test_router_backtracking_seam () =
  (* A seam that forces either backtracking or escalation: on a line of 4,
     with slice size 1, consecutive far-apart interactions. *)
  let device = line 4 in
  let circuit =
    Quantum.Circuit.create ~n_qubits:4 [ cx 0 1; cx 2 3; cx 0 3; cx 1 2 ]
  in
  let r, _ =
    get_routed
      (Satmap.Router.route_sliced ~config:quick_config ~slice_size:1 device
         circuit)
  in
  Alcotest.(check bool) "verifies" true
    (Satmap.Verifier.is_valid ~original:circuit r);
  (* Seven logical qubits on a ring of seven, sliced at one gate: the
     tied last block cannot reach block 0's initial map, so the walk
     backtracks. *)
  let body =
    Quantum.Circuit.create ~n_qubits:7
      [ cx 4 5; cx 6 3; cx 0 5; cx 6 4; cx 3 4; cx 6 1; cx 6 2 ]
  in
  let r, s =
    get_routed
      (Satmap.Router.route_cyclic_body ~config:quick_config ~slice_size:1
         ~repetitions:2 (Arch.Topologies.ring 7) body)
  in
  Alcotest.(check bool) "backtracked" true (s.n_backtracks > 0);
  Alcotest.(check bool) "cyclic routing verifies" true
    (Satmap.Verifier.is_valid ~original:(Quantum.Circuit.repeat body 2) r)

let test_router_certified_optimum () =
  (* With certification on, every infeasible bound in the descent carries
     a checker-accepted DRUP proof; the running example needs one swap,
     so the proof of the swaps=0 bound is non-vacuous. *)
  let device, circuit = running_example () in
  let config =
    { quick_config with Satmap.Router.certify = true; verify = true }
  in
  let r, s =
    get_routed (Satmap.Router.route_monolithic ~config device circuit)
  in
  Alcotest.(check int) "optimal swaps" 1 (Satmap.Routed.n_swaps r);
  Alcotest.(check bool) "proved optimal" true s.proved_optimal;
  Alcotest.(check bool) "certified" true s.certified;
  Alcotest.(check bool) "non-vacuous proof" true (s.proof_events > 0);
  (* Sliced routing certifies each block's local optimum. *)
  let _, s' =
    get_routed
      (Satmap.Router.route_sliced ~config ~slice_size:1 device circuit)
  in
  Alcotest.(check bool) "sliced certified" true s'.certified

let test_router_certify_off_by_default () =
  let device, circuit = running_example () in
  let _, s =
    get_routed
      (Satmap.Router.route_monolithic ~config:quick_config device circuit)
  in
  Alcotest.(check bool) "not certified" false s.certified;
  Alcotest.(check int) "no proof events" 0 s.proof_events

let test_router_vacuous_certify () =
  (* A cost-0 optimum proves no bound infeasible, so certification has
     zero proofs to check — the route must NOT claim [certified] on that
     empty evidence (the vacuous-certification regression). *)
  let device = line 3 in
  let circuit = Quantum.Circuit.create ~n_qubits:3 [ cx 0 1 ] in
  let config =
    { quick_config with Satmap.Router.certify = true; verify = true }
  in
  let r, s =
    get_routed (Satmap.Router.route_monolithic ~config device circuit)
  in
  Alcotest.(check int) "zero swaps" 0 (Satmap.Routed.n_swaps r);
  Alcotest.(check bool) "proved optimal" true s.proved_optimal;
  Alcotest.(check int) "zero proofs checked" 0 s.proofs_checked;
  Alcotest.(check bool) "not certified on vacuous evidence" false s.certified

let test_router_incremental_matches_scratch () =
  (* The incremental (session) path and the from-scratch path agree on
     the monolithic optimum. *)
  let device, circuit = running_example () in
  let swaps incremental =
    let config = { quick_config with Satmap.Router.incremental } in
    let r, s =
      get_routed (Satmap.Router.route_monolithic ~config device circuit)
    in
    Alcotest.(check bool) "proved optimal" true s.proved_optimal;
    Satmap.Routed.n_swaps r
  in
  Alcotest.(check int) "incremental = from-scratch" (swaps false) (swaps true)

let test_slice_budget () =
  (* The per-slice deadline split: remaining budget divided evenly over
     the blocks left, floored at 100ms, never past the deadline. *)
  let budget = Satmap.Router.slice_budget in
  let now = 1000.0 in
  Alcotest.(check (float 1e-9)) "even split" 1002.0
    (budget ~deadline:1010.0 ~now ~blocks_remaining:5);
  Alcotest.(check (float 1e-9)) "last block gets the rest" 1010.0
    (budget ~deadline:1010.0 ~now ~blocks_remaining:1);
  Alcotest.(check (float 1e-9)) "floored at 100ms" 1000.1
    (budget ~deadline:1010.0 ~now ~blocks_remaining:1000);
  Alcotest.(check (float 1e-9)) "floor capped by the deadline" 1000.05
    (budget ~deadline:1000.05 ~now ~blocks_remaining:1000);
  Alcotest.(check (float 1e-9)) "expired budget never extends" 990.0
    (budget ~deadline:990.0 ~now ~blocks_remaining:3);
  Alcotest.check_raises "no blocks left"
    (Invalid_argument "Router.slice_budget: blocks_remaining < 1") (fun () ->
      ignore (budget ~deadline:1010.0 ~now ~blocks_remaining:0))

let test_router_cyclic_body () =
  let device, body = running_example () in
  let r, _ =
    get_routed
      (Satmap.Router.route_cyclic_body ~config:quick_config ~repetitions:3
         device body)
  in
  Alcotest.(check bool) "cyclic" true
    (Satmap.Mapping.equal (Satmap.Routed.initial r) (Satmap.Routed.final r));
  let original = Quantum.Circuit.repeat body 3 in
  Alcotest.(check bool) "verifies" true
    (Satmap.Verifier.is_valid ~original r);
  (* Swaps scale linearly with repetitions. *)
  Alcotest.(check int) "multiple of 3" 0 (Satmap.Routed.n_swaps r mod 3)

(* A cyclic body that fits in one slice is the same single block as the
   unsliced body: the same instance, the same routing and the same
   optimality label. *)
let test_router_cyclic_one_slice () =
  let device = Arch.Topologies.ring 6 in
  List.iter
    (fun (n, seed) ->
      let graph, _ = Qaoa.Build.maxcut_3_regular ~seed ~n ~cycles:1 in
      let body = Qaoa.Build.body graph in
      let route ?slice_size () =
        get_routed
          (Satmap.Router.route_cyclic_body ~config:quick_config ?slice_size
             ~repetitions:2 device body)
      in
      let r, s = route () in
      let r', s' = route ~slice_size:100 () in
      let name = Printf.sprintf "qaoa %dq g%d" n seed in
      Alcotest.(check int) (name ^ " one block") 1 s'.n_blocks;
      Alcotest.(check string) (name ^ " same routing")
        (Quantum.Qasm.to_string (Satmap.Routed.circuit r))
        (Quantum.Qasm.to_string (Satmap.Routed.circuit r'));
      Alcotest.(check bool) (name ^ " unsliced optimal") true
        s.proved_optimal;
      Alcotest.(check bool) (name ^ " same label") s.proved_optimal
        s'.proved_optimal)
    [ (4, 1); (6, 2) ]

let m_routes = Obs.Metrics.counter "router.routes"

(* Every entry point counts one route, also for a circuit without
   two-qubit gates. *)
let test_router_route_count () =
  let device, example = running_example () in
  let trivial =
    Quantum.Circuit.create ~n_qubits:2 [ Quantum.Gate.h 0; Quantum.Gate.h 1 ]
  in
  List.iter
    (fun (what, circuit) ->
      List.iter
        (fun (entry, route) ->
          let before = Obs.Metrics.value m_routes in
          ignore (get_routed (route circuit));
          Alcotest.(check int)
            (Printf.sprintf "%s, %s" entry what)
            1
            (Obs.Metrics.value m_routes - before))
        [
          ( "monolithic",
            Satmap.Router.route_monolithic ~config:quick_config device );
          ( "sliced",
            Satmap.Router.route_sliced ~config:quick_config ~slice_size:2
              device );
          ( "cyclic body",
            Satmap.Router.route_cyclic_body ~config:quick_config
              ~repetitions:2 device );
          ( "sliced cyclic body",
            Satmap.Router.route_cyclic_body ~config:quick_config ~slice_size:2
              ~repetitions:2 device );
          ( "cyclic",
            fun c ->
              Satmap.Router.route_cyclic ~config:quick_config device
                (Quantum.Circuit.repeat c 2) );
        ])
    [ ("no two-qubit gates", trivial); ("running example", example) ]

let test_router_cyclic_autodetect () =
  let device, body = running_example () in
  let circuit = Quantum.Circuit.repeat body 2 in
  let r, _ =
    get_routed (Satmap.Router.route_cyclic ~config:quick_config device circuit)
  in
  Alcotest.(check bool) "verifies" true
    (Satmap.Verifier.is_valid ~original:circuit r)

let test_router_portfolio () =
  let device, circuit = running_example () in
  let best, per_size =
    Satmap.Router.route_portfolio ~config:quick_config ~sizes:[ 1; 2; 100 ]
      device circuit
  in
  Alcotest.(check int) "three entries" 3 (List.length per_size);
  let r, _ = get_routed best in
  List.iter
    (fun (_, outcome) ->
      match outcome with
      | Satmap.Router.Routed (r', _) ->
        Alcotest.(check bool) "best is min" true
          (Satmap.Routed.n_swaps r <= Satmap.Routed.n_swaps r')
      | Satmap.Router.Failed _ -> ())
    per_size

(* Members on two domains give the same per-size routings, in [sizes]
   order, and the same best as one after another. *)
let test_router_parallel_portfolio () =
  let device, circuit = running_example () in
  let run jobs =
    Satmap.Router.route_portfolio
      ~config:{ quick_config with solver_parallelism = jobs }
      ~sizes:[ 1; 2; 100 ] device circuit
  in
  let routing = function
    | Satmap.Router.Routed (r, _) ->
      Some
        ( Satmap.Routed.n_swaps r,
          Quantum.Qasm.to_string (Satmap.Routed.circuit r) )
    | Satmap.Router.Failed _ -> None
  in
  let summary (best, per_size) =
    (routing best, List.map (fun (size, o) -> (size, routing o)) per_size)
  in
  let sequential = run 1 in
  let parallel = run 2 in
  let outcome = Alcotest.(option (pair int string)) in
  Alcotest.(check (pair outcome (list (pair int outcome))))
    "same outcomes as sequential" (summary sequential) (summary parallel);
  let r, _ = get_routed (fst parallel) in
  Alcotest.(check int) "optimal found in parallel" 1 (Satmap.Routed.n_swaps r);
  Alcotest.(check bool) "verifies" true
    (Satmap.Verifier.is_valid ~original:circuit r)

(* [timeout] bounds the whole portfolio call, not each member: four
   slice sizes at one second must not take four seconds.  Size 10 finds
   this route's 3 SWAPs in about 0.1 s, inside its quarter. *)
let test_router_portfolio_budget () =
  let circuit =
    (List.find
       (fun (b : Workloads.Suite.benchmark) -> b.name = "local-5q-078")
       (Workloads.Suite.full ()))
      .circuit
  in
  let config = { Satmap.Router.default_config with timeout = 1.0 } in
  let t0 = Unix.gettimeofday () in
  let best, _ = Satmap.Router.route_portfolio ~config tokyo circuit in
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 1.5 then
    Alcotest.failf "a 1 s portfolio took %.2f s" elapsed;
  let r, _ = get_routed best in
  Alcotest.(check int) "best routing" 3 (Satmap.Routed.n_swaps r)

let test_router_expired_timeout () =
  let device = tokyo in
  let rng = Rng.create 99 in
  let circuit =
    Workloads.Generators.uniform_random rng ~n:10 ~gates:60
  in
  let config = { Satmap.Router.default_config with timeout = 0.0 } in
  (match Satmap.Router.route_sliced ~config ~slice_size:10 device circuit with
  | Satmap.Router.Failed _ -> ()
  | Satmap.Router.Routed _ ->
    (* acceptable if the first deadline check passed before expiry *)
    ());
  (* A block too big to encode in no time cannot route: the zero budget
     fails fast with a timeout classification. *)
  let big =
    Workloads.Generators.local_random (Rng.create 7) ~n:15 ~gates:120
      ~locality:0.5
  in
  match Satmap.Router.route_monolithic ~config device big with
  | Satmap.Router.Failed msg ->
    Alcotest.(check bool)
      ("zero budget fails with a timeout, got: " ^ msg)
      true
      (msg = "encode timeout" || msg = "timeout")
  | Satmap.Router.Routed _ -> Alcotest.fail "zero budget cannot route"

(* Regression: classify_block_result must map optimizer verdicts purely
   structurally.  The old code re-read the wall clock and filed a late
   [Timeout] under [Block_unsat], which triggered bogus seam
   backtracking in the sliced router. *)
let test_block_result_classification () =
  let device, circuit = running_example () in
  let enc = Satmap.Encoding.build (Satmap.Encoding.spec device) circuit in
  let classify config r = Satmap.Router.classify_block_result ~config enc r in
  (match classify quick_config Maxsat.Optimizer.Timeout with
  | Satmap.Router.Block_timeout -> ()
  | Satmap.Router.Block_unsat ->
    Alcotest.fail "Timeout misclassified as Block_unsat"
  | _ -> Alcotest.fail "Timeout must classify as Block_timeout");
  (match classify quick_config (Maxsat.Optimizer.Unsatisfiable None) with
  | Satmap.Router.Block_unsat -> ()
  | _ -> Alcotest.fail "Unsatisfiable must classify as Block_unsat");
  (* A feasible-but-unproved model counts as a timeout unless the config
     opts in, in which case it is solved but not optimal. *)
  let outcome =
    match Maxsat.Optimizer.solve (Satmap.Encoding.instance enc) with
    | Maxsat.Optimizer.Optimal o -> o
    | _ -> Alcotest.fail "expected Optimal"
  in
  (match
     classify
       { quick_config with Satmap.Router.accept_feasible = false }
       (Maxsat.Optimizer.Feasible outcome)
   with
  | Satmap.Router.Block_timeout -> ()
  | _ -> Alcotest.fail "Feasible rejected without accept_feasible");
  match
    classify
      { quick_config with Satmap.Router.accept_feasible = true }
      (Maxsat.Optimizer.Feasible outcome)
  with
  | Satmap.Router.Block_solved b ->
    Alcotest.(check bool) "not marked optimal" false b.Satmap.Router.optimal
  | _ -> Alcotest.fail "Feasible accepted under accept_feasible"

(* Regression: a corrupted decoded solution makes [emit]'s replay check
   raise [Failure]; the route_* boundary must surface that as [Failed],
   never let the exception escape. *)
let test_fault_injection_yields_failed () =
  let device, circuit = running_example () in
  let corrupt (sol : Satmap.Encoding.solution) =
    let final = Array.copy sol.final in
    let tmp = final.(0) in
    final.(0) <- final.(1);
    final.(1) <- tmp;
    { sol with Satmap.Encoding.final }
  in
  let config = { quick_config with Satmap.Router.fault_injection = Some corrupt } in
  match Satmap.Router.route_monolithic ~config device circuit with
  | Satmap.Router.Failed msg ->
    Alcotest.(check bool) "failure message is descriptive" true
      (String.length msg > 0)
  | Satmap.Router.Routed _ ->
    Alcotest.fail "corrupted solution slipped through as Routed"

let prop_routers_always_verified =
  QCheck2.Test.make ~count:10 ~name:"all SATMAP modes produce verified routings"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 3 in
      let circuit =
        Workloads.Generators.local_random rng ~n ~gates:(4 + Rng.int rng 8)
          ~locality:0.7
      in
      let device = Arch.Topologies.grid ~rows:2 ~cols:4 in
      let ok outcome =
        match outcome with
        | Satmap.Router.Routed (r, _) ->
          Satmap.Verifier.is_valid ~original:circuit r
        | Satmap.Router.Failed _ -> false
      in
      ok (Satmap.Router.route_monolithic ~config:quick_config device circuit)
      && ok
           (Satmap.Router.route_sliced ~config:quick_config ~slice_size:3
              device circuit))

(* ------------------------------------------------------------------ *)
(* Placement before slicing and the zero-swap shortcut *)

let m_zero_swap = Obs.Metrics.counter "router.zero_swap_blocks"
let qasm_of r = Quantum.Qasm.to_string (Satmap.Routed.circuit r)
let final_of r = Satmap.Mapping.to_array (Satmap.Routed.final r)

(* A random placement of [n_log] qubits with at least one logical pair on
   a device edge, and a circuit whose two-qubit gates all use such pairs
   (one-qubit gates in between). *)
let adjacent_under_pin rng device ~n_log ~gates =
  let n_phys = Arch.Device.n_qubits device in
  let qubits = List.init n_log Fun.id in
  let rec draw () =
    let pin =
      Satmap.Mapping.to_array (Satmap.Mapping.random rng ~n_log ~n_phys)
    in
    let pairs =
      List.concat_map
        (fun q ->
          List.filter_map
            (fun q' ->
              if q < q' && Arch.Device.adjacent device pin.(q) pin.(q') then
                Some (q, q')
              else None)
            qubits)
        qubits
    in
    if pairs = [] then draw () else (pin, Array.of_list pairs)
  in
  let pin, pairs = draw () in
  let two () =
    let q, q' = pairs.(Rng.int rng (Array.length pairs)) in
    if Rng.bool rng then cx q q' else cx q' q
  in
  let gate () =
    if Rng.int rng 4 = 0 then Quantum.Gate.h (Rng.int rng n_log) else two ()
  in
  ( pin,
    Quantum.Circuit.create ~n_qubits:n_log
      (two () :: List.init gates (fun _ -> gate ())) )

(* Differential: with an all-adjacent pin every block takes the shortcut,
   and [certify] forces the solver on the same blocks; both must emit the
   same routed circuit byte for byte and end on the same map. *)
let prop_zero_swap_matches_solver =
  QCheck2.Test.make ~count:25
    ~name:"zero-swap shortcut emits what the solver emits"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let device =
        Rng.pick rng
          [
            line 4;
            line 5;
            Arch.Topologies.ring 5;
            Arch.Topologies.grid ~rows:2 ~cols:3;
            Arch.Topologies.complete 4;
          ]
      in
      let n_log = 2 + Rng.int rng (Arch.Device.n_qubits device - 1) in
      let pin, circuit =
        adjacent_under_pin rng device ~n_log ~gates:(2 + Rng.int rng 8)
      in
      let shortcut = { quick_config with Satmap.Router.placement = Fixed pin } in
      let solver = { shortcut with Satmap.Router.certify = true } in
      let run config route =
        let z0 = Obs.Metrics.value m_zero_swap in
        let r, s = get_routed (route config) in
        (r, s, Obs.Metrics.value m_zero_swap - z0)
      in
      List.for_all
        (fun route ->
          let r, s, z = run shortcut route in
          let r', s', z' = run solver route in
          if qasm_of r <> qasm_of r' then
            QCheck2.Test.fail_reportf "QASM differs:@.%s@.vs@.%s" (qasm_of r)
              (qasm_of r');
          final_of r = final_of r'
          && final_of r = pin
          && z = s.Satmap.Router.n_blocks
          && s.solver_calls = 0 && z' = 0
          && s'.Satmap.Router.solver_calls = s'.n_blocks)
        [
          (fun config -> Satmap.Router.route_monolithic ~config device circuit);
          (fun config ->
            Satmap.Router.route_sliced ~config ~slice_size:1 device circuit);
          (fun config ->
            Satmap.Router.route_sliced ~config ~slice_size:3 device circuit);
        ])

let solve_pinned ?(config = quick_config) ?(blocked_finals = []) device pin
    circuit =
  Satmap.Router.solve_block ~config
    ~deadline:(Unix.gettimeofday () +. 20.)
    {
      bq_device = device;
      bq_slice = circuit;
      bq_n_swaps = config.n_swaps;
      bq_post_slots = 0;
      bq_cyclic = false;
      bq_fixed_initial = Some pin;
      bq_fixed_final = None;
      bq_blocked_finals = blocked_finals;
    }

let test_zero_swap_blocked_pin () =
  (* Blocking the pin forbids the forced final map, so the block must go
     to the solver, which finds a one-swap optimum ending elsewhere. *)
  let device = line 3 in
  let circuit = Quantum.Circuit.create ~n_qubits:2 [ cx 0 1 ] in
  let pin = [| 0; 1 |] in
  (match solve_pinned device pin circuit with
  | Satmap.Router.Block_solved b, 0, true, 0 ->
    Alcotest.(check (array int)) "final is the pin" pin b.sol.final;
    Alcotest.(check int) "no swap" 0 b.sol.swap_count
  | _ -> Alcotest.fail "an unblocked adjacent pin takes the shortcut");
  match solve_pinned ~blocked_finals:[ pin ] device pin circuit with
  | Satmap.Router.Block_solved b, 1, false, 0 ->
    Alcotest.(check bool) "final avoids the blocked pin" true
      (b.sol.final <> pin);
    Alcotest.(check int) "one swap" 1 b.sol.swap_count;
    Alcotest.(check bool) "optimal" true b.optimal
  | _ -> Alcotest.fail "a blocked pin must fall through to the solver"

let test_zero_swap_not_under_fidelity () =
  let cal = Arch.Calibration.fake_tokyo () in
  let device = Arch.Calibration.device cal in
  let a, b = List.hd (Arch.Device.edges device) in
  let circuit = Quantum.Circuit.create ~n_qubits:2 [ cx 0 1; cx 1 0 ] in
  let config =
    { quick_config with objective = Satmap.Encoding.Fidelity cal }
  in
  (match solve_pinned ~config device [| a; b |] circuit with
  | Satmap.Router.Block_solved _, 1, false, 0 -> ()
  | _ -> Alcotest.fail "Fidelity must reach the solver");
  let z0 = Obs.Metrics.value m_zero_swap in
  let _, s =
    get_routed
      (Satmap.Router.route_sliced
         ~config:{ config with placement = Fixed [| a; b |] }
         ~slice_size:1 device circuit)
  in
  Alcotest.(check int) "no shortcut block" 0
    (Obs.Metrics.value m_zero_swap - z0);
  Alcotest.(check int) "every block solved" s.n_blocks s.solver_calls

let test_default_pins_slice_zero () =
  let rng = Rng.create 11 in
  let circuit =
    Workloads.Generators.local_random rng ~n:6 ~gates:12 ~locality:0.7
  in
  let device = Arch.Topologies.grid ~rows:2 ~cols:4 in
  let r, s =
    get_routed
      (Satmap.Router.route_sliced ~config:quick_config ~slice_size:4 device
         circuit)
  in
  Alcotest.(check bool) "more than one slice" true (s.n_blocks > 1);
  Alcotest.(check (array int)) "starts at the QAP placement"
    (Satmap.Placement.place device circuit)
    (Satmap.Mapping.to_array (Satmap.Routed.initial r))

let test_default_free_where_one_block () =
  (* One block's free optimum is already the global optimum, and the
     cyclic tie needs a free initial map: these routes ignore [Qap]. *)
  let device, body = running_example () in
  let free = { quick_config with Satmap.Router.placement = Free } in
  let same name route =
    let r, _ = get_routed (route quick_config) in
    let r', _ = get_routed (route free) in
    Alcotest.(check string) name (qasm_of r') (qasm_of r);
    Alcotest.(check (array int)) (name ^ " final") (final_of r') (final_of r)
  in
  same "single slice" (fun config ->
      Satmap.Router.route_sliced ~config ~slice_size:100 device body);
  same "monolithic" (fun config ->
      Satmap.Router.route_monolithic ~config device body);
  same "cyclic body, sliced" (fun config ->
      Satmap.Router.route_cyclic_body ~config ~slice_size:2 ~repetitions:3
        device body);
  same "cyclic autodetect" (fun config ->
      Satmap.Router.route_cyclic ~config device (Quantum.Circuit.repeat body 2))

(* ------------------------------------------------------------------ *)
(* The embedding test and the free-block lower bound *)

(* A random connected device on [n] qubits: a random spanning tree plus
   up to [n - 1] random extra edges. *)
let random_device rng n =
  let tree = List.init (n - 1) (fun i -> (Rng.int rng (i + 1), i + 1)) in
  let extra =
    List.filter
      (fun (a, b) -> a <> b)
      (List.init (Rng.int rng n) (fun _ -> (Rng.int rng n, Rng.int rng n)))
  in
  Arch.Device.create ~name:"random" n (tree @ extra)

let embed_device rng =
  match Rng.int rng 4 with
  | 0 -> line (2 + Rng.int rng 6)
  | 1 -> Arch.Topologies.ring (3 + Rng.int rng 5)
  | 2 -> Arch.Topologies.grid ~rows:2 ~cols:3
  | _ -> random_device rng (2 + Rng.int rng 6)

(* A random interaction graph on [n_log] qubits, as a circuit: each pair
   interacts with a probability drawn from [density, density + 0.5], some
   pairs twice, in either direction, in a shuffled order with one-qubit
   gates among them. *)
let random_interaction ?(density = 0.2) rng ~n_log =
  let p = density +. (0.5 *. Rng.float rng) in
  let qubits = List.init n_log Fun.id in
  let gates =
    List.concat_map
      (fun q ->
        List.concat_map
          (fun q' ->
            if q < q' && Rng.float rng < p then
              let g = if Rng.bool rng then cx q q' else cx q' q in
              if Rng.int rng 3 = 0 then [ g; Quantum.Gate.h q; g ] else [ g ]
            else [])
          qubits)
      qubits
    |> Array.of_list
  in
  Rng.shuffle rng gates;
  Quantum.Circuit.create ~n_qubits:n_log (Array.to_list gates)

let on_edges device circuit m =
  List.for_all
    (fun (_, a, b) -> Arch.Device.adjacent device m.(a) m.(b))
    (Quantum.Circuit.two_qubit_gates circuit)

let brute_embeds device circuit =
  List.exists (on_edges device circuit)
    (Brute_qmr.all_maps
       ~n_log:(Quantum.Circuit.n_qubits circuit)
       ~n_phys:(Arch.Device.n_qubits device))

let is_embedding device circuit m =
  let n_phys = Arch.Device.n_qubits device in
  Array.length m = Quantum.Circuit.n_qubits circuit
  && Array.for_all (fun p -> p >= 0 && p < n_phys) m
  && List.length (List.sort_uniq compare (Array.to_list m)) = Array.length m
  && on_edges device circuit m

let embedding_name = function
  | Satmap.Placement.Embeds _ -> "embeds"
  | Does_not_embed -> "does not embed"
  | Unknown -> "unknown"

(* The default budget settles every case; a budget of 0 to 7 nodes may
   answer [Unknown] instead, but never a wrong "does not embed". *)
let prop_embed_matches_brute =
  QCheck2.Test.make ~count:300 ~name:"embedding test = brute force"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let device = embed_device rng in
      let circuit = random_interaction rng ~n_log:(1 + Rng.int rng 6) in
      let embeds = brute_embeds device circuit in
      let agrees ~unknown = function
        | Satmap.Placement.Embeds m -> is_embedding device circuit m
        | Does_not_embed -> not embeds
        | Unknown -> unknown
      in
      agrees ~unknown:false (Satmap.Placement.embed device circuit)
      && agrees ~unknown:true
           (Satmap.Placement.embed ~budget:(Rng.int rng 8) device circuit))

let test_embed_budget () =
  let grid = Arch.Topologies.grid ~rows:2 ~cols:3 in
  let cycle n =
    Quantum.Circuit.create ~n_qubits:n
      (List.init n (fun q -> cx q ((q + 1) mod n)))
  in
  let answer ?budget circuit =
    embedding_name (Satmap.Placement.embed ?budget grid circuit)
  in
  (* The grid's rim is a 6-cycle; it is bipartite, so a 5-cycle does not
     embed. *)
  Alcotest.(check string) "6-cycle embeds" "embeds" (answer (cycle 6));
  Alcotest.(check string) "5-cycle does not" "does not embed"
    (answer (cycle 5));
  List.iter
    (fun c ->
      Alcotest.(check string) "budget 0" "unknown" (answer ~budget:0 c);
      for budget = 0 to 40 do
        let a = answer ~budget c in
        if a <> "unknown" then
          Alcotest.(check string)
            (Printf.sprintf "budget %d settles as the full search does" budget)
            (answer c) a
      done)
    [ cycle 6; cycle 5 ]

let m_lower_bound_stops = Obs.Metrics.counter "maxsat.lower_bound_stops"
let m_iterations = Obs.Metrics.counter "maxsat.iterations"

(* Route monolithic, with the lower-bound stops and the descent's solver
   calls (satisfiable or not) that the route added to the counters. *)
let route_counting config device circuit =
  let stops0 = Obs.Metrics.value m_lower_bound_stops
  and calls0 = Obs.Metrics.value m_iterations in
  let r, s =
    get_routed (Satmap.Router.route_monolithic ~config device circuit)
  in
  ( r,
    s,
    Obs.Metrics.value m_lower_bound_stops - stops0,
    Obs.Metrics.value m_iterations - calls0 )

(* A one-block free route has the optimum the certified route proves and
   refutes.  It ends at its lower bound exactly when that optimum is one
   SWAP (its graph then cannot embed), and makes one refutation call only
   when the optimum is two or more; every escalation adds its one
   unsatisfiable first call on both sides. *)
let prop_lower_bound_matches_certified =
  QCheck2.Test.make ~count:40 ~name:"free-block bound = certified refutation"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let device =
        Rng.pick rng
          [
            line 3;
            line 4;
            line 5;
            Arch.Topologies.ring 4;
            Arch.Topologies.ring 5;
            Arch.Topologies.grid ~rows:2 ~cols:3;
          ]
      in
      let n_log = max 2 (Arch.Device.n_qubits device - Rng.int rng 3) in
      let circuit =
        Quantum.Circuit.concat
          (Quantum.Circuit.create ~n_qubits:n_log [ cx 0 1 ])
          (random_interaction ~density:0.4 rng ~n_log)
      in
      let r, s, stops, calls = route_counting quick_config device circuit in
      let r', s', stops', _ =
        route_counting { quick_config with certify = true } device circuit
      in
      let swaps = Satmap.Routed.n_swaps r in
      if swaps <> Satmap.Routed.n_swaps r' then
        QCheck2.Test.fail_reportf "%d swaps against %d certified" swaps
          (Satmap.Routed.n_swaps r');
      s.Satmap.Router.proved_optimal && s'.Satmap.Router.proved_optimal
      && stops' = 0
      && stops = (if swaps = 1 then 1 else 0)
      && calls
         = s.maxsat_iterations + s.escalations + if swaps >= 2 then 1 else 0)

let test_lower_bound_stops () =
  List.iter
    (fun (name, device, circuit) ->
      let r, s, stops, calls = route_counting quick_config device circuit in
      Alcotest.(check int) (name ^ ": one swap") 1 (Satmap.Routed.n_swaps r);
      Alcotest.(check bool) (name ^ ": proved optimal") true s.proved_optimal;
      Alcotest.(check int) (name ^ ": one lower-bound stop") 1 stops;
      Alcotest.(check int)
        (name ^ ": no refutation call")
        s.maxsat_iterations calls)
    [
      ( "triangle linear-3",
        line 3,
        Quantum.Circuit.create ~n_qubits:3 [ cx 0 1; cx 1 2; cx 0 2 ] );
      ( "serve-pool 1 tokyo",
        tokyo,
        Workloads.Generators.local_random
          (Rng.create ((42 * 7919) + 1))
          ~n:6 ~gates:12 ~locality:0.8 );
    ]

(* ------------------------------------------------------------------ *)
(* Noise-aware objective (Q6) *)

let test_noise_aware_routes () =
  let cal = Arch.Calibration.fake_tokyo () in
  let device = Arch.Calibration.device cal in
  let rng = Rng.create 4 in
  let circuit = Workloads.Generators.local_random rng ~n:5 ~gates:6 ~locality:0.8 in
  let config =
    {
      quick_config with
      objective = Satmap.Encoding.Fidelity cal;
    }
  in
  let r, _ = get_routed (Satmap.Router.route_sliced ~config ~slice_size:10 device circuit) in
  Alcotest.(check bool) "verifies" true
    (Satmap.Verifier.is_valid ~original:circuit r);
  let f = Arch.Calibration.circuit_fidelity cal (Satmap.Routed.circuit r) in
  Alcotest.(check bool) "fidelity in (0,1]" true (f > 0.0 && f <= 1.0)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "mapping",
      [
        Alcotest.test_case "validation" `Quick test_mapping_validation;
        Alcotest.test_case "swap application" `Quick test_mapping_swap;
        Alcotest.test_case "inverse view" `Quick test_mapping_inverse;
        Alcotest.test_case "swap distance bound" `Quick
          test_swap_distance_lower_bound;
        qtest prop_mapping_swaps_preserve_injectivity;
      ] );
    ( "verifier",
      [
        Alcotest.test_case "accepts valid" `Quick test_verifier_accepts_valid;
        Alcotest.test_case "rejects disconnected" `Quick
          test_verifier_rejects_disconnected;
        Alcotest.test_case "rejects wrong gate" `Quick
          test_verifier_rejects_wrong_gate;
        Alcotest.test_case "rejects missing gates" `Quick
          test_verifier_rejects_missing;
        Alcotest.test_case "rejects bad final map" `Quick
          test_verifier_rejects_bad_final_map;
        Alcotest.test_case "accepts commuting reorder" `Quick
          test_verifier_accepts_reordered_independent;
        Alcotest.test_case "rejects dependent reorder" `Quick
          test_verifier_rejects_reordered_dependent;
      ] );
    ( "encoding",
      [
        Alcotest.test_case "running example (Fig 3)" `Quick
          test_encoding_running_example;
        Alcotest.test_case "step coalescing" `Quick test_encoding_coalesce;
        Alcotest.test_case "size estimate" `Quick test_encoding_estimate;
        Alcotest.test_case "pinned initial maps" `Quick
          test_encoding_fixed_initial;
        Alcotest.test_case "cyclic tie (Sec VI)" `Quick test_encoding_cyclic;
        Alcotest.test_case "blocked finals (Sec V)" `Quick
          test_encoding_blocked_finals;
      ] );
    ( "session",
      [
        Alcotest.test_case "skeleton shared across activations" `Quick
          test_session_skeleton_sharing;
        Alcotest.test_case "freeze/thaw matches cold session" `Quick
          test_session_freeze_determinism;
        Alcotest.test_case "window exhaustion rebuilds" `Quick
          test_session_window_rebuild;
      ] );
    ( "router",
      [
        Alcotest.test_case "running example optimal" `Quick
          test_router_running_example;
        Alcotest.test_case "no 2q gates" `Quick test_router_no_two_qubit_gates;
        Alcotest.test_case "does not fit" `Quick test_router_does_not_fit;
        Alcotest.test_case "sliced valid" `Quick
          test_router_sliced_valid_and_bounded;
        Alcotest.test_case "single slice = monolithic" `Quick
          test_router_sliced_equals_monolithic_when_one_slice;
        Alcotest.test_case "certified optimum" `Quick
          test_router_certified_optimum;
        Alcotest.test_case "certify off by default" `Quick
          test_router_certify_off_by_default;
        Alcotest.test_case "vacuous certification rejected" `Quick
          test_router_vacuous_certify;
        Alcotest.test_case "incremental = from-scratch" `Quick
          test_router_incremental_matches_scratch;
        Alcotest.test_case "slice budget split" `Quick test_slice_budget;
        Alcotest.test_case "seam backtracking" `Quick
          test_router_backtracking_seam;
        Alcotest.test_case "cyclic body" `Quick test_router_cyclic_body;
        Alcotest.test_case "cyclic autodetect" `Quick
          test_router_cyclic_autodetect;
        Alcotest.test_case "one-slice cyclic = unsliced" `Quick
          test_router_cyclic_one_slice;
        Alcotest.test_case "one route count per entry" `Quick
          test_router_route_count;
        Alcotest.test_case "portfolio" `Quick test_router_portfolio;
        Alcotest.test_case "parallel portfolio" `Quick
          test_router_parallel_portfolio;
        Alcotest.test_case "portfolio budget" `Quick
          test_router_portfolio_budget;
        Alcotest.test_case "expired timeout" `Quick test_router_expired_timeout;
        Alcotest.test_case "block result classification" `Quick
          test_block_result_classification;
        Alcotest.test_case "fault injection yields Failed" `Quick
          test_fault_injection_yields_failed;
        qtest prop_router_optimal_vs_brute;
        qtest prop_routers_always_verified;
      ] );
    ( "pinning",
      [
        qtest prop_zero_swap_matches_solver;
        Alcotest.test_case "blocked pin falls through" `Quick
          test_zero_swap_blocked_pin;
        Alcotest.test_case "no shortcut under fidelity" `Quick
          test_zero_swap_not_under_fidelity;
        Alcotest.test_case "multi-slice default pins slice 0" `Quick
          test_default_pins_slice_zero;
        Alcotest.test_case "one-block and cyclic defaults are free" `Quick
          test_default_free_where_one_block;
      ] );
    ( "embed",
      [
        qtest prop_embed_matches_brute;
        Alcotest.test_case "budget answers unknown" `Quick test_embed_budget;
      ] );
    ( "bound",
      [
        qtest prop_lower_bound_matches_certified;
        Alcotest.test_case "one-swap optimum, no refutation" `Quick
          test_lower_bound_stops;
      ] );
    ("noise", [ Alcotest.test_case "fidelity objective" `Quick test_noise_aware_routes ]);
  ]

let () = Alcotest.run "satmap" suite
