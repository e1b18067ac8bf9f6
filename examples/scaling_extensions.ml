(* The two scaling avenues from the paper's Discussion section, both
   implemented in this repository:

   1. Parallel SAT solving — the slice-size portfolio runs its members
      on several OCaml 5 domains ([solver_parallelism]), so wall-clock is
      the slowest domain's share, not the sum.
   2. Hybrid mapping — solve only the *mapping* constraints optimally
      (a circuit-length-independent MaxSAT instance) and leave routing to
      a heuristic (SABRE).

   Run with:  dune exec examples/scaling_extensions.exe *)

let () =
  let tokyo = Arch.Topologies.tokyo () in
  let rng = Rng.create 31 in
  let circuit =
    Workloads.Generators.local_random rng ~n:10 ~gates:60 ~locality:0.6
  in
  Format.printf "Circuit: %d qubits, %d two-qubit gates@."
    (Quantum.Circuit.n_qubits circuit)
    (Quantum.Circuit.count_two_qubit circuit);

  (* 1. Sequential vs parallel portfolio over slice sizes. *)
  let config = { Satmap.Router.default_config with timeout = 10.0 } in
  let sizes = [ 5; 10; 25 ] in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let show label (outcome, dt) =
    match outcome with
    | Satmap.Router.Routed (r, _), _ ->
      Format.printf "%-22s %d swaps in %.1fs@." label
        (Satmap.Routed.n_swaps r) dt
    | Satmap.Router.Failed m, _ -> Format.printf "%-22s failed: %s@." label m
  in
  show "sequential portfolio"
    (time (fun () -> Satmap.Router.route_portfolio ~config ~sizes tokyo circuit));
  show "parallel portfolio"
    (time (fun () ->
         Satmap.Router.route_portfolio
           ~config:{ config with solver_parallelism = List.length sizes }
           ~sizes tokyo circuit));

  (* 2. Hybrid: optimal mapping + SABRE routing, against plain SABRE. *)
  let hybrid, dt_hybrid = time (fun () -> Heuristics.Hybrid.route tokyo circuit) in
  let sabre, dt_sabre = time (fun () -> Heuristics.Sabre.route tokyo circuit) in
  Satmap.Verifier.check_exn ~original:circuit hybrid;
  Satmap.Verifier.check_exn ~original:circuit sabre;
  Format.printf "%-22s %d swaps in %.1fs@." "hybrid (map+SABRE)"
    (Satmap.Routed.n_swaps hybrid) dt_hybrid;
  Format.printf "%-22s %d swaps in %.1fs@." "plain SABRE"
    (Satmap.Routed.n_swaps sabre) dt_sabre;
  Format.printf
    "@.The hybrid's MaxSAT stage is independent of circuit length, so it \
     keeps a constraint-based placement on circuits far beyond the \
     monolithic encoding's reach.@."
