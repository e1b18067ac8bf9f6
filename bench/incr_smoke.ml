(* Incremental-reuse smoke test (the @incr-smoke dune alias).

   Pins the end-to-end contracts of the incremental solve path:

   1. Solver reuse: a sliced route with B same-shape blocks creates at
      most ceil(B / reuse_window) CDCL solvers (measured by the
      [solver.created] metric), not one per block, and skips skeleton
      re-emission on every reuse ([encode.reused_clauses] > 0).
   2. Differential: the monolithic optimum is identical with the
      incremental path on and off (the optimum is a unique number; both
      runs must prove it).
   3. Certify fallback: [certify] forces the from-scratch path and still
      reaches the same optimum, certified with at least one checked
      proof on a workload whose optimum needs a swap.

   The workload repeats CX(0,1) / CX(1,2) / CX(0,2) on a 3-qubit line,
   one gate per slice.  From any pinned seam permutation each gate is at
   distance <= 2, so every slice is solvable within the default
   n_swaps = 1 and no budget escalation (which would legitimately build
   an extra solver) can occur.  A triangle cannot embed in a line, so
   some blocks need a SWAP whatever map they inherit and reach the solver
   instead of the zero-swap shortcut; a workload whose every map is
   zero-swap would never reuse a skeleton. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let metric name = Obs.Metrics.value (Obs.Metrics.counter name)

let routed_or_fail name = function
  | Satmap.Router.Routed (r, s) -> (r, s)
  | Satmap.Router.Failed msg -> fail "incr-smoke: %s failed to route: %s" name msg

let () =
  let device = Arch.Topologies.linear 3 in
  let gates =
    List.concat
      (List.init 4 (fun _ ->
           [ Quantum.Gate.cx 0 1; Quantum.Gate.cx 1 2; Quantum.Gate.cx 0 2 ]))
  in
  let circuit = Quantum.Circuit.create ~n_clbits:0 ~n_qubits:3 gates in
  let config =
    { Satmap.Router.default_config with timeout = 30.0; reuse_window = 64 }
  in

  (* 1. Solver reuse across a sliced route. *)
  Obs.Metrics.reset ();
  let _, stats =
    routed_or_fail "sliced"
      (Satmap.Router.route_sliced ~config ~slice_size:1 device circuit)
  in
  let created = metric "solver.created" in
  let reused = metric "encode.reused_clauses" in
  let blocks = stats.Satmap.Router.n_blocks in
  Printf.printf
    "incr-smoke: sliced blocks=%d backtracks=%d escalations=%d \
     solver.created=%d encode.reused_clauses=%d\n"
    blocks stats.Satmap.Router.n_backtracks stats.Satmap.Router.escalations
    created reused;
  if blocks < 2 then fail "incr-smoke: expected a multi-block route";
  if stats.Satmap.Router.escalations > 0 then
    fail "incr-smoke: unexpected budget escalation";
  let max_solvers =
    (blocks + stats.Satmap.Router.n_backtracks + config.reuse_window - 1)
    / config.reuse_window
  in
  if created > max_solvers then
    fail "incr-smoke: %d blocks created %d solvers (want <= %d)" blocks
      created max_solvers;
  if reused = 0 then
    fail "incr-smoke: no skeleton clauses were reused across %d blocks" blocks;

  (* 2. Incremental vs from-scratch monolithic optimum. *)
  let swaps_with incremental certify =
    let config = { config with incremental; certify } in
    let routed, stats =
      routed_or_fail
        (Printf.sprintf "monolithic(incremental=%b,certify=%b)" incremental
           certify)
        (Satmap.Router.route_monolithic ~config device circuit)
    in
    if not stats.Satmap.Router.proved_optimal then
      fail "incr-smoke: monolithic route did not prove optimality";
    (Satmap.Routed.n_swaps routed, stats)
  in
  let incr_swaps, _ = swaps_with true false in
  let scratch_swaps, _ = swaps_with false false in
  if incr_swaps <> scratch_swaps then
    fail "incr-smoke: incremental optimum %d <> from-scratch optimum %d"
      incr_swaps scratch_swaps;
  Printf.printf "incr-smoke: monolithic optimum %d (incremental = scratch)\n"
    incr_swaps;

  (* 3. Certification forces the from-scratch path and reaches the same
     optimum; with at least one swap in the optimum, at least one
     infeasibility proof must actually be checked. *)
  let cert_swaps, cert_stats = swaps_with true true in
  if cert_swaps <> scratch_swaps then
    fail "incr-smoke: certified optimum %d <> from-scratch optimum %d"
      cert_swaps scratch_swaps;
  if cert_swaps > 0 then begin
    if not cert_stats.Satmap.Router.certified then
      fail "incr-smoke: non-trivial optimum not certified";
    if cert_stats.Satmap.Router.proofs_checked = 0 then
      fail "incr-smoke: certified route checked zero proofs"
  end
  else if cert_stats.Satmap.Router.certified then
    fail "incr-smoke: cost-0 optimum must not claim certification";
  Printf.printf
    "incr-smoke: certify fallback ok (swaps=%d certified=%b proofs=%d)\n"
    cert_swaps cert_stats.Satmap.Router.certified
    cert_stats.Satmap.Router.proofs_checked;
  print_endline "incr-smoke: ok"
