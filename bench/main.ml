(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section VII), scaled to laptop budgets.

     dune exec bench/main.exe                  run everything (quick scale)
     dune exec bench/main.exe -- -e table1     run one experiment
     dune exec bench/main.exe -- --full        paper-scale suite and budgets
     dune exec bench/main.exe -- --list        list experiment ids

   Scaling (see EXPERIMENTS.md): the paper gives each tool 30-60 minutes
   per benchmark on a cluster; we default to a few seconds per tool per
   benchmark and a stratified subset of the 160-circuit suite.  Absolute
   numbers differ; the comparisons regenerated here are the *shapes*:
   which tool solves more, who is faster, cost ratios and their trends. *)

(* ------------------------------------------------------------------ *)
(* Command line *)

let opt_experiments : string list ref = ref []
let opt_timeout = ref 6.0
let opt_suite_n = ref 12
let opt_full = ref false
let opt_list = ref false
let opt_no_micro = ref false
let opt_json : string option ref = ref None
let opt_smoke = ref false
let opt_certify = ref false
let opt_trace : string option ref = ref None

let args =
  [
    ("-e", Arg.String (fun s -> opt_experiments := s :: !opt_experiments),
     "ID run a single experiment (repeatable)");
    ("--timeout", Arg.Set_float opt_timeout, "S per-tool time budget (default 6)");
    ("--suite", Arg.Set_int opt_suite_n, "N benchmarks in the main set (default 12)");
    ("--full", Arg.Set opt_full, " paper-scale: all 160 benchmarks, 30s budgets");
    ("--list", Arg.Set opt_list, " list experiment ids and exit");
    ("--no-micro", Arg.Set opt_no_micro, " skip the Bechamel micro-benchmarks");
    ("--json", Arg.String (fun s -> opt_json := Some s),
     "FILE write a machine-readable snapshot of the main set (per-benchmark \
      wall time, swaps, solver conflicts/s and propagations/s)");
    ("--smoke", Arg.Set opt_smoke,
     " 3-benchmark, seconds-scale slice of the harness (used by the \
      @bench-smoke dune alias, so the perf plumbing is exercised by \
      `dune runtest`)");
    ("--certify", Arg.Set opt_certify,
     " log DRUP proofs in the SATMAP runs and re-check every infeasible \
      bound with the independent checker; trace sizes and checking time \
      land in the --json snapshot (forces the from-scratch solver path)");
    ("--trace", Arg.String (fun s -> opt_trace := Some s),
     "PREFIX record a Chrome trace_events timeline of each main-set SATMAP \
      run and write it to PREFIX-<benchmark>.json (open in chrome://tracing \
      or ui.perfetto.dev)");
  ]

(* ------------------------------------------------------------------ *)
(* Infrastructure *)

let tokyo = Arch.Topologies.tokyo ()

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let timeout () = if !opt_full then 30.0 else !opt_timeout

let main_suite =
  lazy
    (if !opt_full then Workloads.Suite.full ()
     else Workloads.Suite.quick ~n:!opt_suite_n ())

let small_suite =
  lazy
    (if !opt_full then Workloads.Suite.quick ~n:40 ()
     else Workloads.Suite.quick ~n:8 ())

type run = {
  solved : bool;
  swaps : int;  (** meaningful only when solved *)
  seconds : float;
  optimal : bool;
  status : string;
      (** "solved", or the router's failure reason (e.g. "timeout",
          "encode timeout") so unsolved rows say why in the snapshot *)
  certified : bool;
  proofs_checked : int;
  proof_events : int;
  certify_seconds : float;
  solver_calls : int;  (** MaxSAT optimizer invocations actually paid for *)
}

let failed_run seconds =
  {
    solved = false;
    swaps = 0;
    seconds;
    optimal = false;
    status = "failed";
    certified = false;
    proofs_checked = 0;
    proof_events = 0;
    certify_seconds = 0.;
    solver_calls = 0;
  }

let run_of_outcome = function
  | Satmap.Router.Routed (r, (s : Satmap.Router.stats)) ->
    {
      solved = true;
      swaps = Satmap.Routed.n_swaps r;
      seconds = s.time;
      optimal = s.proved_optimal;
      status = "solved";
      certified = s.certified;
      proofs_checked = s.proofs_checked;
      proof_events = s.proof_events;
      certify_seconds = s.certify_time;
      solver_calls = s.solver_calls;
    }
  | Satmap.Router.Failed msg -> { (failed_run (timeout ())) with status = msg }

let added_gates run = 3 * run.swaps

(* The paper's SATMAP lets slice 0's MaxSAT instance choose the initial
   map, so the reproduced tables route with [placement = Free], not the
   library's QAP pin. *)
let satmap_config () =
  {
    Satmap.Router.default_config with
    placement = Satmap.Router.Free;
    timeout = timeout ();
    certify = !opt_certify;
  }

(* Tool wrappers over the shared benchmark type.  Without an explicit
   slice size, SATMAP runs as the paper reports it: best over a small
   portfolio of slice sizes.  [Router.route_portfolio] splits the one
   budget across its members, so the total stays comparable to the other
   tools.  The member set scales
   with the budget: the paper's 10/25 windows want tens of seconds —
   at seconds-scale budgets a 10-gate block on tokyo cannot even finish
   encoding in its share, so the portfolio drops to smaller windows
   (more blocks, but each solves in milliseconds on the shared
   incremental skeleton). *)
let run_satmap ?slice (b : Workloads.Suite.benchmark) =
  match slice with
  | Some s ->
    run_of_outcome
      (Satmap.Router.route_sliced ~config:(satmap_config ()) ~slice_size:s
         tokyo b.circuit)
  | None ->
    let t0 = Unix.gettimeofday () in
    let sizes = if timeout () < 2.0 then [ 3; 10 ] else [ 10; 25 ] in
    let config = satmap_config () in
    let best, _ = Satmap.Router.route_portfolio ~config ~sizes tokyo b.circuit in
    let r = run_of_outcome best in
    { r with seconds = Unix.gettimeofday () -. t0 }

let run_nl_satmap (b : Workloads.Suite.benchmark) =
  run_of_outcome
    (Satmap.Router.route_monolithic ~config:(satmap_config ()) tokyo b.circuit)

let run_ex_mqt (b : Workloads.Suite.benchmark) =
  run_of_outcome (Baselines.Ex_mqt.route ~timeout:(timeout ()) tokyo b.circuit)

let run_tb_olsq (b : Workloads.Suite.benchmark) =
  run_of_outcome
    (Baselines.Tb_olsq.route
       ~config:{ Baselines.Tb_olsq.default_config with timeout = timeout () }
       tokyo b.circuit)

let time_heuristic f (b : Workloads.Suite.benchmark) =
  let t0 = Unix.gettimeofday () in
  let routed = f b.circuit in
  {
    (failed_run (Unix.gettimeofday () -. t0)) with
    solved = true;
    swaps = Satmap.Routed.n_swaps routed;
  }

(* SABRE is randomised: the paper takes the mean of 20 runs; we take the
   mean cost over a few seeds. *)
let run_sabre ?(device = tokyo) (b : Workloads.Suite.benchmark) =
  let seeds = if !opt_full then [ 1; 2; 3; 4; 5 ] else [ 1; 2; 3 ] in
  let t0 = Unix.gettimeofday () in
  let costs =
    List.map
      (fun seed ->
        Satmap.Routed.n_swaps
          (Heuristics.Sabre.route
             ~config:{ Heuristics.Sabre.default_config with seed; trials = 3 }
             device b.circuit))
      seeds
  in
  let mean_cost =
    float_of_int (List.fold_left ( + ) 0 costs)
    /. float_of_int (List.length seeds)
  in
  {
    (failed_run (Unix.gettimeofday () -. t0)) with
    solved = true;
    swaps = int_of_float (Float.round mean_cost);
  }

let run_tket ?(device = tokyo) (b : Workloads.Suite.benchmark) =
  time_heuristic (Heuristics.Tket_route.route device) b

let run_astar ?(device = tokyo) (b : Workloads.Suite.benchmark) =
  time_heuristic (Heuristics.Astar_route.route device) b

(* Delta of the process-wide SAT-solver counters around [f], attributing
   solver work (conflicts, propagations, learnt clauses) to one tool run. *)
let with_sat_totals f =
  let before = Sat.Solver.totals () in
  let r = f () in
  (r, Sat.Solver.sub_totals (Sat.Solver.totals ()) before)

(* Cold/warm pair over a shared block-level result cache (certification
   off — cached solutions carry no proofs, so the router bypasses the
   cache under certify): the warm run answers every block from the
   cache, so its solver-call count is the serving layer's steady state
   on repeated traffic. *)
type cache_probe = {
  cold_calls : int;
  warm_calls : int;
  cache_hits : int;
  cache_misses : int;
}

let run_cache_probe (b : Workloads.Suite.benchmark) =
  let bc =
    Service.Block_cache.create ~name:"bench.block_cache" ~capacity:1024 ()
  in
  let config =
    {
      (satmap_config ()) with
      certify = false;
      block_cache = Some (Service.Block_cache.hook bc);
    }
  in
  let calls = function
    | Satmap.Router.Routed (_, (s : Satmap.Router.stats)) -> s.solver_calls
    | Satmap.Router.Failed _ -> 0
  in
  let route () =
    Satmap.Router.route_sliced ~config ~slice_size:10 tokyo b.circuit
  in
  let cold_calls = calls (route ()) in
  let warm_calls = calls (route ()) in
  {
    cold_calls;
    warm_calls;
    cache_hits = Service.Block_cache.hits bc;
    cache_misses = Service.Block_cache.misses bc;
  }

(* Memoised runs of the main dataset, shared across experiments. *)
type main_row = {
  bench : Workloads.Suite.benchmark;
  ex_mqt : run;
  tb_olsq : run;
  satmap : run;
  satmap_sat : Sat.Solver.totals;  (** solver counters of the SATMAP run *)
  satmap_cache : cache_probe;
  obs_events : int;  (** trace events recorded during the SATMAP run *)
  obs_metrics : (string * float) list;
      (** per-run observability counters (metrics are reset around each
          SATMAP run, so these are this run's alone) *)
  nl_satmap : run;
  sabre : run;
  tket : run;
  astar : run;
}

(* Run the SATMAP member of a row with per-row observability: metrics are
   reset so their snapshot is attributable to this run, and when --trace
   is given the run's timeline goes to PREFIX-<name>.json. *)
let run_satmap_observed (b : Workloads.Suite.benchmark) =
  Obs.Metrics.reset ();
  if !opt_trace <> None then begin
    Obs.Trace.clear ();
    Obs.Trace.enable ()
  end;
  let satmap, satmap_sat = with_sat_totals (fun () -> run_satmap b) in
  let obs_events = Obs.Trace.recorded () in
  Option.iter
    (fun prefix ->
      let path = Printf.sprintf "%s-%s.json" prefix b.name in
      Obs.Trace.write_chrome path;
      Obs.Trace.disable ();
      Printf.eprintf "[bench] trace: %s (%d events)\n%!" path obs_events)
    !opt_trace;
  (satmap, satmap_sat, obs_events, Obs.Metrics.snapshot ())

let main_rows : main_row list Lazy.t =
  lazy
    (List.map
       (fun (b : Workloads.Suite.benchmark) ->
         Printf.eprintf "[bench] main set: %s (%d two-qubit gates)\n%!" b.name
           b.n_two_qubit;
         let satmap, satmap_sat, obs_events, obs_metrics =
           run_satmap_observed b
         in
         {
           bench = b;
           ex_mqt = run_ex_mqt b;
           tb_olsq = run_tb_olsq b;
           satmap;
           satmap_sat;
           satmap_cache = run_cache_probe b;
           obs_events;
           obs_metrics;
           nl_satmap = run_nl_satmap b;
           sabre = run_sabre b;
           tket = run_tket b;
           astar = run_astar b;
         })
       (Lazy.force main_suite))

let solved_count rows select =
  List.length (List.filter (fun r -> (select r).solved) rows)

let largest_solved rows select =
  List.fold_left
    (fun acc r ->
      if (select r).solved then max acc r.bench.Workloads.Suite.n_two_qubit
      else acc)
    0 rows

let geometric_mean xs =
  match xs with
  | [] -> Float.nan
  | _ ->
    Float.exp
      (List.fold_left (fun acc x -> acc +. Float.log x) 0.0 xs
      /. float_of_int (List.length xs))

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    Float.sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) xs))

(* Cost ratio in "gates added" (SWAP = 3 CNOTs), the paper's Fig. 12
   metric.  Returns [None] when SATMAP added zero gates and the tool added
   a positive number (the "infinite ratio" points at the top of the
   paper's plot). *)
let cost_ratio ~tool ~satmap =
  if not (tool.solved && satmap.solved) then None
  else if added_gates satmap = 0 then
    if added_gates tool = 0 then Some 1.0 else None
  else
    Some (float_of_int (added_gates tool) /. float_of_int (added_gates satmap))

(* ------------------------------------------------------------------ *)
(* Table I / Fig. 1: constraint-based comparison *)

let table1 () =
  section "Table I / Fig. 1 — constraint-based tools (scaled)";
  let rows = Lazy.force main_rows in
  let n = List.length rows in
  Printf.printf "%-10s %-18s %s\n" "tool"
    (Printf.sprintf "solved (of %d)" n)
    "largest solved (2q gates)";
  List.iter
    (fun (name, select) ->
      Printf.printf "%-10s %-18d %d\n" name
        (solved_count rows select)
        (largest_solved rows select))
    [
      ("EX-MQT", fun r -> r.ex_mqt);
      ("TB-OLSQ", fun r -> r.tb_olsq);
      ("SATMAP", fun r -> r.satmap);
    ];
  Printf.printf
    "(paper, full scale: EX-MQT 4/160 largest 23; TB-OLSQ 38/160 largest \
     90; SATMAP 109/160 largest 598)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 10: runtimes on the set EX-MQT solved *)

let fig10 () =
  section "Fig. 10 — runtime on the EX-MQT-solved set (seconds)";
  let rows = List.filter (fun r -> r.ex_mqt.solved) (Lazy.force main_rows) in
  if rows = [] then print_endline "(EX-MQT solved nothing at this budget)"
  else begin
    Printf.printf "%-24s %-6s %-10s %-10s %-10s\n" "benchmark" "2q" "EX-MQT"
      "TB-OLSQ" "SATMAP";
    List.iter
      (fun r ->
        Printf.printf "%-24s %-6d %-10.2f %-10.2f %-10.2f\n"
          r.bench.Workloads.Suite.name r.bench.n_two_qubit r.ex_mqt.seconds
          r.tb_olsq.seconds r.satmap.seconds)
      rows;
    let speedups =
      List.filter_map
        (fun r ->
          if r.satmap.solved then
            Some (r.ex_mqt.seconds /. Float.max 1e-3 r.satmap.seconds)
          else None)
        rows
    in
    Printf.printf "geomean speedup SATMAP vs EX-MQT: %.1fx (paper: ~400x)\n"
      (geometric_mean speedups)
  end

(* ------------------------------------------------------------------ *)
(* Fig. 11: runtimes on the set TB-OLSQ solved *)

let fig11 () =
  section "Fig. 11 — runtime on the TB-OLSQ-solved set (seconds)";
  let rows = List.filter (fun r -> r.tb_olsq.solved) (Lazy.force main_rows) in
  if rows = [] then print_endline "(TB-OLSQ solved nothing at this budget)"
  else begin
    Printf.printf "%-24s %-6s %-10s %-10s\n" "benchmark" "2q" "TB-OLSQ"
      "SATMAP";
    List.iter
      (fun r ->
        Printf.printf "%-24s %-6d %-10.2f %-10.2f\n"
          r.bench.Workloads.Suite.name r.bench.n_two_qubit r.tb_olsq.seconds
          r.satmap.seconds)
      rows;
    let speedups =
      List.filter_map
        (fun r ->
          if r.satmap.solved then
            Some (r.tb_olsq.seconds /. Float.max 1e-3 r.satmap.seconds)
          else None)
        rows
    in
    Printf.printf "geomean speedup SATMAP vs TB-OLSQ: %.1fx (paper: ~20x)\n"
      (geometric_mean speedups)
  end

(* ------------------------------------------------------------------ *)
(* Fig. 12: cost ratios against heuristics *)

let fig12 () =
  section "Fig. 12 — heuristic cost / SATMAP cost (gates added)";
  let rows = List.filter (fun r -> r.satmap.solved) (Lazy.force main_rows) in
  Printf.printf "%-24s %-6s %-8s %-8s %-8s\n" "benchmark" "2q" "MQTH" "SABRE"
    "TKET";
  let ratios_of select =
    List.filter_map
      (fun r -> cost_ratio ~tool:(select r) ~satmap:r.satmap)
      rows
  in
  let infinities select =
    List.length
      (List.filter
         (fun r ->
           (select r).solved && r.satmap.solved
           && added_gates r.satmap = 0
           && added_gates (select r) > 0)
         rows)
  in
  List.iter
    (fun r ->
      let show select =
        match cost_ratio ~tool:(select r) ~satmap:r.satmap with
        | Some x -> Printf.sprintf "%.2f" x
        | None -> "inf"
      in
      Printf.printf "%-24s %-6d %-8s %-8s %-8s\n" r.bench.Workloads.Suite.name
        r.bench.n_two_qubit
        (show (fun r -> r.astar))
        (show (fun r -> r.sabre))
        (show (fun r -> r.tket)))
    rows;
  Printf.printf
    "mean ratio (finite): MQTH %.2f  SABRE %.2f  TKET %.2f   (paper: 5.2 / \
     7.0 / 3.6)\n"
    (mean (ratios_of (fun r -> r.astar)))
    (mean (ratios_of (fun r -> r.sabre)))
    (mean (ratios_of (fun r -> r.tket)));
  Printf.printf
    "zero-gate SATMAP solutions where the heuristic paid: MQTH %d, SABRE \
     %d, TKET %d\n"
    (infinities (fun r -> r.astar))
    (infinities (fun r -> r.sabre))
    (infinities (fun r -> r.tket));
  let zero_pct select =
    100
    * List.length
        (List.filter (fun r -> (select r).solved && (select r).swaps = 0) rows)
    / max 1 (List.length rows)
  in
  Printf.printf
    "benchmarks with zero added gates: SATMAP %d%%, MQTH %d%%, SABRE %d%%, \
     TKET %d%% (paper: 14/0/3/10)\n"
    (zero_pct (fun r -> r.satmap))
    (zero_pct (fun r -> r.astar))
    (zero_pct (fun r -> r.sabre))
    (zero_pct (fun r -> r.tket))

(* ------------------------------------------------------------------ *)
(* Table II + Fig. 13: slice-size ablation *)

let slice_sizes () =
  if !opt_full then [ 10; 25; 50; 100 ] else [ 5; 10; 25; 50 ]

type slice_row = {
  sbench : Workloads.Suite.benchmark;
  per_size : (int * run) list;
  nl : run;
}

let slice_rows : slice_row list Lazy.t =
  lazy
    (List.map
       (fun (b : Workloads.Suite.benchmark) ->
         Printf.eprintf "[bench] slice ablation: %s\n%!" b.name;
         {
           sbench = b;
           per_size =
             List.map (fun s -> (s, run_satmap ~slice:s b)) (slice_sizes ());
           nl = run_nl_satmap b;
         })
       (Lazy.force small_suite))

let table2 () =
  section "Table II — local relaxation levels (scaled slice sizes)";
  let rows = Lazy.force slice_rows in
  let n = List.length rows in
  Printf.printf "%-12s %-16s %s\n" "slice size"
    (Printf.sprintf "solved (of %d)" n)
    "largest solved (2q gates)";
  List.iter
    (fun size ->
      let select r = List.assoc size r.per_size in
      let solved =
        List.length (List.filter (fun r -> (select r).solved) rows)
      in
      let largest =
        List.fold_left
          (fun acc r ->
            if (select r).solved then
              max acc r.sbench.Workloads.Suite.n_two_qubit
            else acc)
          0 rows
      in
      Printf.printf "%-12d %-16d %d\n" size solved largest)
    (slice_sizes ());
  let nl_solved = List.length (List.filter (fun r -> r.nl.solved) rows) in
  let nl_largest =
    List.fold_left
      (fun acc r ->
        if r.nl.solved then max acc r.sbench.Workloads.Suite.n_two_qubit
        else acc)
      0 rows
  in
  Printf.printf "%-12s %-16d %d\n" "NL-SATMAP" nl_solved nl_largest;
  Printf.printf
    "(paper: a moderate slice size solves the most; NL-SATMAP the fewest \
     and smallest)\n"

let fig13 () =
  section "Fig. 13 — cost ratio of slice sizes vs NL-SATMAP (gates added)";
  let rows = List.filter (fun r -> r.nl.solved) (Lazy.force slice_rows) in
  if rows = [] then print_endline "(NL-SATMAP solved nothing at this budget)"
  else begin
    Printf.printf "%-12s %-14s %s\n" "slice size" "mean ratio" "n compared";
    List.iter
      (fun size ->
        let ratios =
          List.filter_map
            (fun r ->
              let run = List.assoc size r.per_size in
              cost_ratio ~tool:run ~satmap:r.nl)
            rows
        in
        Printf.printf "%-12d %-14.2f %d\n" size (mean ratios)
          (List.length ratios))
      (slice_sizes ());
    Printf.printf
      "(paper: tiny slices cost ~2.7x NL; moderate slices reach ratios <= \
       1 as NL degrades on big circuits)\n"
  end

(* ------------------------------------------------------------------ *)
(* Table IV: QAOA and the cyclic relaxation; Table III uses its data *)

type qaoa_row = {
  nq : int;
  cycles : int;
  cyc : run;
  sat : run;
  tkt : run;
}

let qaoa_rows : qaoa_row list Lazy.t =
  lazy
    (let configs =
       if !opt_full then
         [
           (6, 2); (6, 4); (8, 2); (8, 4); (10, 2); (10, 4); (12, 2);
           (12, 4); (16, 2); (16, 4);
         ]
       else [ (6, 2); (6, 3); (8, 2); (8, 3); (10, 2) ]
     in
     List.map
       (fun (nq, cycles) ->
         Printf.eprintf "[bench] qaoa: %d qubits, %d cycles\n%!" nq cycles;
         let _, circuit =
           Qaoa.Build.maxcut_3_regular ~seed:(100 + nq) ~n:nq ~cycles
         in
         let bench =
           Workloads.Suite.of_circuit
             ~name:(Printf.sprintf "qaoa-%dq-%dc" nq cycles)
             ~family:"qaoa" circuit
         in
         let cyc =
           run_of_outcome
             (Satmap.Router.route_cyclic ~config:(satmap_config ())
                ~slice_size:10 tokyo circuit)
         in
         { nq; cycles; cyc; sat = run_satmap bench; tkt = run_tket bench })
       configs)

let table4 () =
  section "Table IV — QAOA: cost (gates added) and time (s)";
  Printf.printf "%-8s %-7s | %-9s %-7s | %-9s %-7s | %-9s %-7s\n" "qubits"
    "cycles" "CYC cost" "time" "SAT cost" "time" "TKET cost" "time";
  List.iter
    (fun r ->
      let cell run =
        if run.solved then
          ( Printf.sprintf "%d" (added_gates run),
            Printf.sprintf "%.1f" run.seconds )
        else ("-", "-")
      in
      let c1, t1 = cell r.cyc
      and c2, t2 = cell r.sat
      and c3, t3 = cell r.tkt in
      Printf.printf "%-8d %-7d | %-9s %-7s | %-9s %-7s | %-9s %-7s\n" r.nq
        r.cycles c1 t1 c2 t2 c3 t3)
    (Lazy.force qaoa_rows);
  Printf.printf
    "(paper: CYC-SATMAP solves every instance; SATMAP times out on large \
     ones; TKET is instant but costlier on big graphs)\n"

let table3 () =
  section "Table III — breakdown of encoding and relaxations";
  let rows = Lazy.force main_rows in
  let qaoa = Lazy.force qaoa_rows in
  let n = List.length rows in
  let nq = List.length qaoa in
  let qaoa_solved select =
    List.length (List.filter (fun r -> (select r).solved) qaoa)
  in
  Printf.printf "%-12s %-10s %-10s %-12s\n" "tool"
    (Printf.sprintf "solved/%d" n)
    "largest" (Printf.sprintf "QAOA solved/%d" nq);
  Printf.printf "%-12s %-10d %-10d %-12s\n" "TB-OLSQ"
    (solved_count rows (fun r -> r.tb_olsq))
    (largest_solved rows (fun r -> r.tb_olsq))
    "0";
  Printf.printf "%-12s %-10d %-10d %-12s\n" "NL-SATMAP"
    (solved_count rows (fun r -> r.nl_satmap))
    (largest_solved rows (fun r -> r.nl_satmap))
    "-";
  Printf.printf "%-12s %-10d %-10d %-12d\n" "SATMAP"
    (solved_count rows (fun r -> r.satmap))
    (largest_solved rows (fun r -> r.satmap))
    (qaoa_solved (fun r -> r.sat));
  Printf.printf "%-12s %-10s %-10s %-12d\n" "CYC-SATMAP" "-" "-"
    (qaoa_solved (fun r -> r.cyc));
  Printf.printf
    "(paper: 38 < 70 < 109 solved on the main set; 0 < 5 < 7 < 10 on QAOA)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 14: architecture variation *)

let fig14 () =
  section "Fig. 14 — TKET cost / SATMAP cost on Tokyo-, Tokyo, Tokyo+";
  let benches = Lazy.force small_suite in
  Printf.printf "%-8s %-12s %-12s %s\n" "arch" "mean ratio" "stddev" "n";
  List.iter
    (fun device ->
      let ratios =
        List.filter_map
          (fun (b : Workloads.Suite.benchmark) ->
            Printf.eprintf "[bench] fig14 %s: %s\n%!"
              (Arch.Device.name device) b.name;
            let sat =
              run_of_outcome
                (Satmap.Router.route_sliced ~config:(satmap_config ())
                   ~slice_size:10 device b.circuit)
            in
            let tket = run_tket ~device b in
            cost_ratio ~tool:tket ~satmap:sat)
          benches
      in
      Printf.printf "%-8s %-12.2f %-12.2f %d\n" (Arch.Device.name device)
        (mean ratios) (stddev ratios) (List.length ratios))
    [ Arch.Topologies.tokyo_minus (); tokyo; Arch.Topologies.tokyo_plus () ];
  Printf.printf
    "(paper: ratio near 1 on tokyo-; larger and higher-variance on tokyo+)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 15: time-budget sweep; Fig. 16: cost ratio vs circuit size *)

let fig15 () =
  section "Fig. 15 — solution quality across time budgets";
  let budgets =
    if !opt_full then [ 2.0; 5.0; 10.0; 30.0; 60.0 ]
    else [ 1.0; 2.0; 4.0; 8.0 ]
  in
  let baseline_budget = timeout () in
  let benches = Lazy.force small_suite in
  let run_with budget (b : Workloads.Suite.benchmark) =
    run_of_outcome
      (Satmap.Router.route_sliced
         ~config:{ (satmap_config ()) with timeout = budget }
         ~slice_size:10 tokyo b.circuit)
  in
  let baseline = List.map (fun b -> (b, run_with baseline_budget b)) benches in
  Printf.printf "%-10s %-14s %-10s %s\n" "budget(s)" "mean ratio" "solved"
    "largest solved";
  List.iter
    (fun budget ->
      Printf.eprintf "[bench] fig15 budget %.1f\n%!" budget;
      let runs =
        List.map (fun (b, base) -> (b, base, run_with budget b)) baseline
      in
      let ratios =
        List.filter_map (fun (_, base, run) -> cost_ratio ~tool:run ~satmap:base) runs
      in
      let solved = List.filter (fun (_, _, r) -> r.solved) runs in
      let largest =
        List.fold_left
          (fun acc ((b : Workloads.Suite.benchmark), _, _) ->
            max acc b.n_two_qubit)
          0 solved
      in
      Printf.printf "%-10.1f %-14.2f %-10d %d\n" budget (mean ratios)
        (List.length solved) largest)
    budgets;
  Printf.printf
    "(paper: ratio decreases towards 1 with more time; solved count and \
     largest circuit grow)\n"

let fig16 () =
  section "Fig. 16 — TKET/SATMAP cost ratio vs circuit size";
  let rows = List.filter (fun r -> r.satmap.solved) (Lazy.force main_rows) in
  let buckets = [ (0, 25); (25, 50); (50, 100); (100, 200); (200, max_int) ] in
  Printf.printf "%-14s %-12s %s\n" "2q gates" "mean ratio" "n";
  List.iter
    (fun (lo, hi) ->
      let ratios =
        List.filter_map
          (fun r ->
            if
              r.bench.Workloads.Suite.n_two_qubit >= lo
              && r.bench.n_two_qubit < hi
            then cost_ratio ~tool:r.tket ~satmap:r.satmap
            else None)
          rows
      in
      if ratios <> [] then
        Printf.printf "%-14s %-12.2f %d\n"
          (if hi = max_int then Printf.sprintf ">=%d" lo
           else Printf.sprintf "%d-%d" lo hi)
          (mean ratios) (List.length ratios))
    buckets;
  Printf.printf
    "(paper: downward trend — larger circuits lose optimality to slicing \
     and early termination)\n"

(* ------------------------------------------------------------------ *)
(* Q6: noise-aware weighted MaxSAT *)

let q6 () =
  section "Q6 — noise-aware (weighted MaxSAT) routing";
  let cal = Arch.Calibration.fake_tokyo () in
  let benches = Lazy.force small_suite in
  let results =
    List.map
      (fun (b : Workloads.Suite.benchmark) ->
        Printf.eprintf "[bench] q6: %s\n%!" b.name;
        let sat =
          Satmap.Router.route_sliced
            ~config:
              { (satmap_config ()) with objective = Satmap.Encoding.Fidelity cal }
            ~slice_size:10 tokyo b.circuit
        in
        let tb =
          Baselines.Tb_olsq.route
            ~config:
              {
                Baselines.Tb_olsq.default_config with
                timeout = timeout ();
                objective = Baselines.Tb_olsq.Fidelity cal;
              }
            tokyo b.circuit
        in
        (b, sat, tb))
      benches
  in
  let fidelity = function
    | Satmap.Router.Routed (r, _) ->
      Some (Arch.Calibration.circuit_fidelity cal (Satmap.Routed.circuit r))
    | Satmap.Router.Failed _ -> None
  in
  let n = List.length results in
  let solved f =
    List.length
      (List.filter
         (fun (_, sat, tb) -> Option.is_some (fidelity (f (sat, tb))))
         results)
  in
  Printf.printf
    "solved (of %d): SATMAP-noise %d, TB-OLSQ-noise %d (paper: 89 vs 23 of \
     160)\n"
    n (solved fst) (solved snd);
  Printf.printf "%-24s %-12s %-12s\n" "benchmark" "SATMAP fid" "TB-OLSQ fid";
  List.iter
    (fun ((b : Workloads.Suite.benchmark), sat, tb) ->
      let show o =
        match fidelity o with Some f -> Printf.sprintf "%.4f" f | None -> "-"
      in
      Printf.printf "%-24s %-12s %-12s\n" b.name (show sat) (show tb))
    results

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper: encoding design choices *)

let ablation () =
  section "Ablation — encoding design choices (beyond the paper)";
  let small = Lazy.force small_suite in
  let b = List.nth small (min 3 (List.length small - 1)) in
  Printf.printf "benchmark: %s (%d two-qubit gates)\n" b.Workloads.Suite.name
    b.n_two_qubit;
  Printf.printf "%-28s %-8s %-8s %-8s\n" "configuration" "solved" "swaps"
    "time";
  let base = { (satmap_config ()) with timeout = 2.0 *. timeout () } in
  List.iter
    (fun (label, config) ->
      let run =
        run_of_outcome
          (Satmap.Router.route_sliced ~config ~slice_size:10 tokyo b.circuit)
      in
      Printf.printf "%-28s %-8b %-8s %-8.2f\n" label run.solved
        (if run.solved then string_of_int run.swaps else "-")
        run.seconds)
    [
      ("default", base);
      ("no mobility clauses", { base with mobility = false });
      ("no step coalescing", { base with coalesce = false });
      ("pairwise only-one", { base with amo = Sat.Card.Pairwise });
      ( "injectivity at layer 0 only",
        { base with inject_all_gate_layers = false } );
      ("n_swaps = 2", { base with n_swaps = 2 });
    ]

(* ------------------------------------------------------------------ *)
(* Machine-readable snapshot (--json): per-benchmark wall time, swaps, and
   SAT-core throughput, so successive PRs can regress against a recorded
   perf trajectory (BENCH_sat.json). *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x =
  if Float.is_nan x || Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" (if Float.is_nan x then 0.0 else x)
  else Printf.sprintf "%.6g" x

let json_of_totals (t : Sat.Solver.totals) ~wall =
  let conflicts_per_s =
    if wall > 0.0 then float_of_int t.total_conflicts /. wall else 0.0
  in
  Printf.sprintf
    "{\"conflicts\": %d, \"decisions\": %d, \"propagations\": %d, \
     \"restarts\": %d, \"learnts\": %d, \"avg_lbd\": %s, \"glue\": %d, \
     \"deleted\": %d, \"reductions\": %d, \"solve_time_s\": %s, \
     \"conflicts_per_s\": %s, \"propagations_per_s\": %s}"
    t.total_conflicts t.total_decisions t.total_propagations t.total_restarts
    t.total_learnts
    (json_float (Sat.Solver.totals_avg_lbd t))
    t.total_glue t.total_deleted t.total_reductions
    (json_float t.total_solve_time)
    (json_float conflicts_per_s)
    (json_float (Sat.Solver.totals_props_per_second t))

let json_of_proof (r : run) =
  Printf.sprintf
    "{\"certified\": %b, \"proofs_checked\": %d, \"trace_events\": %d, \
     \"check_time_s\": %s}"
    r.certified r.proofs_checked r.proof_events
    (json_float r.certify_seconds)

let json_of_metrics metrics =
  Printf.sprintf "{%s}"
    (String.concat ", "
       (List.map
          (fun (k, v) ->
            Printf.sprintf "\"%s\": %s" (json_escape k) (json_float v))
          metrics))

(* Only the counters that moved: most registered ones belong to layers
   (the socket server, the shard router) that a bench row never runs. *)
let json_of_obs ~events metrics =
  Printf.sprintf "{\"trace_events\": %d, \"metrics\": %s}" events
    (json_of_metrics (List.filter (fun (_, v) -> v <> 0.0) metrics))

let json_of_cache (c : cache_probe) =
  let looked_up = c.cache_hits + c.cache_misses in
  Printf.sprintf
    "{\"cold_solver_calls\": %d, \"warm_solver_calls\": %d, \"hits\": %d, \
     \"misses\": %d, \"hit_rate\": %s}"
    c.cold_calls c.warm_calls c.cache_hits c.cache_misses
    (json_float
       (if looked_up = 0 then 0.0
        else float_of_int c.cache_hits /. float_of_int looked_up))

(* Serving-tier probe for the snapshot: drive the socket server with the
   open-loop load generator (latency percentiles, hit/coalesce rates),
   demonstrate single-flight coalescing on an identical concurrent burst
   (N clients, one engine solve), and check that a 2-shard deployment
   behind the shard router answers byte-identically to a single server. *)
let serve_section () =
  let module P = Service.Protocol in
  let dir = Filename.temp_file "bench_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let sock name = Serving.Server.Unix_path (Filename.concat dir name) in
  let send oc req =
    output_string oc (P.request_to_string req);
    output_char oc '\n';
    flush oc
  in
  let rec recv ic =
    match P.parse_response (input_line ic) with
    | Ok (P.Progress_response _) -> recv ic
    | Ok (P.Ok_response p) -> Some p
    | Ok (P.Error_response _) | Error _ -> None
    | exception End_of_file -> None
  in
  let request ~id circuit =
    {
      P.default_request with
      id;
      qasm = Quantum.Qasm.to_string circuit;
      device = "tokyo";
      timeout = 30.0;
    }
  in
  (* 1. Open-loop load. *)
  let engine = Service.Engine.create ~workers:1 () in
  let server = Serving.Server.start ~admission:false engine (sock "lg.sock") in
  let lg =
    Loadgen.run
      { Loadgen.default_spec with Loadgen.n_requests = 24; rate = 24.0 }
      (Serving.Server.address server)
  in
  (* 2. Identical concurrent burst: park the single worker on a hard
     solve, then fire N identical requests — single-flight must answer
     them all with exactly one engine solve (one leader reply). *)
  let _, hard = Qaoa.Build.maxcut_3_regular ~seed:7 ~n:6 ~cycles:3 in
  let burst_circuit =
    Workloads.Generators.local_random (Rng.create 4242) ~n:6 ~gates:12
      ~locality:0.8
  in
  let addr = Serving.Server.address server in
  let blocker = Serving.Server.connect addr in
  let misses0 = Service.Cache.misses (Service.Engine.serve_cache engine) in
  send (snd blocker)
    { (request ~id:"blocker" hard) with P.method_ = P.Cyclic };
  Thread.delay 0.15;
  let clients = 4 in
  let burst = Array.init clients (fun _ -> Serving.Server.connect addr) in
  Array.iteri
    (fun i (_, oc) ->
      send oc (request ~id:(Printf.sprintf "b%d" i) burst_circuit))
    burst;
  let replies =
    Array.to_list burst
    |> List.filter_map (fun (ic, _) -> recv ic)
  in
  ignore (recv (fst blocker));
  let coalesced_replies =
    List.length (List.filter (fun p -> p.P.ok_coalesced) replies)
  in
  let burst_solves =
    Service.Cache.misses (Service.Engine.serve_cache engine) - misses0 - 1
  in
  Array.iter Serving.Server.disconnect burst;
  Serving.Server.disconnect blocker;
  Serving.Server.stop server;
  Service.Engine.shutdown engine;
  (* 3. Shard invariance: one sequential stream against 1 shard direct
     and 2 shards behind the router, fresh engines each. *)
  let c1 =
    Workloads.Generators.local_random (Rng.create 4243) ~n:6 ~gates:12
      ~locality:0.8
  and c2 =
    Workloads.Generators.local_random (Rng.create 4244) ~n:6 ~gates:12
      ~locality:0.8
  in
  let renamed =
    let n = Quantum.Circuit.n_qubits c2 in
    Quantum.Circuit.relabel_qubits c2 (fun q -> n - 1 - q)
  in
  let stream =
    [
      request ~id:"t1" c1; request ~id:"t2" c2; request ~id:"t3" c1;
      request ~id:"t4" renamed;
    ]
  in
  let stable p = P.response_to_string (P.Ok_response { p with P.ok_time = 0. }) in
  let run_stream addr =
    let conn = Serving.Server.connect addr in
    let out =
      List.map
        (fun r ->
          send (snd conn) r;
          Option.map stable (recv (fst conn)))
        stream
    in
    Serving.Server.disconnect conn;
    out
  in
  let engine1 = Service.Engine.create ~workers:1 () in
  let one = Serving.Server.start ~shard:(0, 1) engine1 (sock "one.sock") in
  let direct = run_stream (Serving.Server.address one) in
  Serving.Server.stop one;
  Service.Engine.shutdown engine1;
  let engine_a = Service.Engine.create ~workers:1 () in
  let engine_b = Service.Engine.create ~workers:1 () in
  let shard_a = Serving.Server.start ~shard:(0, 2) engine_a (sock "a.sock") in
  let shard_b = Serving.Server.start ~shard:(1, 2) engine_b (sock "b.sock") in
  let router =
    Serving.Shard_router.start
      ~backends:
        [ Serving.Server.address shard_a; Serving.Server.address shard_b ]
      (sock "router.sock")
  in
  let routed = run_stream (Serving.Shard_router.address router) in
  Serving.Shard_router.stop router;
  Serving.Server.stop shard_a;
  Serving.Server.stop shard_b;
  Service.Engine.shutdown engine_a;
  Service.Engine.shutdown engine_b;
  let shard_invariant =
    List.length direct = List.length routed
    && List.for_all2 (fun a b -> a = b && a <> None) direct routed
  in
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir);
     Unix.rmdir dir
   with Unix.Unix_error _ | Sys_error _ -> ());
  Printf.sprintf
    "{\"loadgen\": %s,\n\
    \   \"burst\": {\"clients\": %d, \"engine_solves\": %d, \
     \"coalesced_replies\": %d},\n\
    \   \"shard_invariant\": %b}"
    (Obs.Json.to_string (Loadgen.result_to_json lg))
    clients burst_solves coalesced_replies shard_invariant

(* Engine win-matrix for the snapshot: run the full engine catalogue
   through the differential harness on one representative of each
   circuit family — commuting (QAOA maxcut), sparse random, and a deep
   arithmetic block — and record per-engine cost/depth/time plus who
   won each family on swaps.  [Differential.run] verifies every output
   and checks that a proved MaxSAT optimum lower-bounds every
   order-preserving heuristic, so a non-empty violations list here is a
   routing bug, not a tuning regression. *)
let engines_section () =
  let budget = Float.max 5.0 (timeout ()) in
  let config = { Engines.Registry.default_config with timeout = budget } in
  let families =
    [
      ( "qaoa-commuting",
        Arch.Topologies.linear 8,
        snd (Qaoa.Build.maxcut_3_regular ~seed:5 ~n:6 ~cycles:2) );
      ( "sparse-random",
        Arch.Topologies.grid ~rows:2 ~cols:3,
        Workloads.Generators.local_random (Rng.create 17) ~n:6 ~gates:12
          ~locality:0.85 );
      ("deep-adder", Arch.Topologies.linear 8, Workloads.Generators.ripple_adder 2);
    ]
  in
  let family_json (name, device, circuit) =
    Printf.eprintf "[bench] engines: %s\n%!" name;
    let report = Engines.Differential.run ~config device circuit in
    let best =
      List.fold_left
        (fun acc (r : Engines.Differential.row) ->
          match r.r_result with
          | Ok (routed, _) -> min acc (Satmap.Routed.n_swaps routed)
          | Error _ -> acc)
        max_int report.rows
    in
    let row_json (r : Engines.Differential.row) =
      match r.r_result with
      | Ok (routed, meta) ->
        Printf.sprintf
          "{\"engine\": \"%s\", \"solved\": true, \"swaps\": %d, \
           \"depth\": %d, \"seconds\": %s, \"optimal\": %b, \"won\": %b}"
          (json_escape r.r_engine)
          (Satmap.Routed.n_swaps routed)
          (Satmap.Routed.depth routed)
          (json_float meta.Engines.Registry.m_time)
          meta.Engines.Registry.m_optimal
          (Satmap.Routed.n_swaps routed = best)
      | Error msg ->
        Printf.sprintf
          "{\"engine\": \"%s\", \"solved\": false, \"error\": \"%s\"}"
          (json_escape r.r_engine) (json_escape msg)
    in
    Printf.sprintf
      "{\"family\": \"%s\", \"device\": \"%s\", \"violations\": [%s],\n\
      \     \"rows\": [%s]}"
      (json_escape name)
      (json_escape (Arch.Device.name device))
      (String.concat ", "
         (List.map
            (fun v -> Printf.sprintf "\"%s\"" (json_escape v))
            report.violations))
      (String.concat ",\n       " (List.map row_json report.rows))
  in
  Printf.sprintf "[\n    %s\n  ]"
    (String.concat ",\n    " (List.map family_json families))

(* Race-layer probe for the snapshot: what do the sync shims cost?  The
   same shim-heavy workload — LRU churn, then two pool workers reading
   the same cache, so the probe crosses domains — runs with the
   instrumentation off (the single-boolean-load passthrough that
   production always pays) and again with SATMAP_RACE on in passive mode
   (vector-clock detector live, no controlled scheduler).  Passive mode
   on a clean tree must stay silent. *)
let race_section () =
  let workload () =
    let c = Service.Cache.create ~name:"bench.race" ~capacity:64 () in
    for i = 0 to 4_000 do
      let k = Printf.sprintf "k%d" (i mod 96) in
      match Service.Cache.find c k with
      | Some _ -> ()
      | None -> Service.Cache.add c k i
    done;
    let p =
      Service.Pool.create ~name:"bench.race.pool" ~workers:2 ~capacity:8 ()
    in
    for j = 0 to 7 do
      ignore
        (Service.Pool.submit p (fun () ->
             for i = 0 to 99 do
               let k = Printf.sprintf "k%d" ((i + j) mod 96) in
               ignore (Service.Cache.find c k)
             done))
    done;
    Service.Pool.shutdown p
  in
  let time f =
    (* Three repetitions, keep the best: the probe wants the cost of the
       instrumentation, not scheduler noise. *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let was_on = Race.Runtime.on () in
  Race.Runtime.disable ();
  let off_s = time workload in
  Race.Runtime.enable ();
  Race.Detect.reset ();
  Race.Report.reset ();
  let on_s = time workload in
  let events = Race.Detect.events () in
  let findings = Race.Report.count () in
  if was_on then Race.Runtime.enable () else Race.Runtime.disable ();
  Race.Report.reset ();
  Printf.sprintf
    "{\"passthrough_s\": %s, \"passive_s\": %s, \"overhead_x\": %s,\n\
    \   \"detect_events\": %d, \"passive_findings\": %d}"
    (json_float off_s) (json_float on_s)
    (json_float (if off_s > 0. then on_s /. off_s else 0.))
    events findings

let write_json path =
  let rows = Lazy.force main_rows in
  let oc = open_out path in
  let row_json (r : main_row) =
    Printf.sprintf
      "    {\"name\": \"%s\", \"family\": \"%s\", \"two_qubit\": %d, \
       \"solved\": %b, \"status\": \"%s\", \"swaps\": %d, \
       \"seconds\": %s, \"optimal\": %b, \"solver_calls\": %d,\n\
      \     \"solver\": %s,\n\
      \     \"proof\": %s,\n\
      \     \"cache\": %s,\n\
      \     \"obs\": %s}"
      (json_escape r.bench.Workloads.Suite.name)
      (json_escape r.bench.family)
      r.bench.n_two_qubit r.satmap.solved
      (json_escape r.satmap.status)
      (if r.satmap.solved then r.satmap.swaps else 0)
      (json_float r.satmap.seconds)
      r.satmap.optimal r.satmap.solver_calls
      (json_of_totals r.satmap_sat ~wall:r.satmap.seconds)
      (json_of_proof r.satmap)
      (json_of_cache r.satmap_cache)
      (json_of_obs ~events:r.obs_events r.obs_metrics)
  in
  let total_wall =
    List.fold_left (fun acc r -> acc +. r.satmap.seconds) 0.0 rows
  in
  let sum =
    List.fold_left
      (fun acc r ->
        let d = r.satmap_sat in
        Sat.Solver.
          {
            total_propagations = acc.total_propagations + d.total_propagations;
            total_conflicts = acc.total_conflicts + d.total_conflicts;
            total_decisions = acc.total_decisions + d.total_decisions;
            total_restarts = acc.total_restarts + d.total_restarts;
            total_learnts = acc.total_learnts + d.total_learnts;
            total_lbd_sum = acc.total_lbd_sum + d.total_lbd_sum;
            total_glue = acc.total_glue + d.total_glue;
            total_deleted = acc.total_deleted + d.total_deleted;
            total_reductions = acc.total_reductions + d.total_reductions;
            total_solve_time = acc.total_solve_time +. d.total_solve_time;
          })
      Sat.Solver.
        {
          total_propagations = 0;
          total_conflicts = 0;
          total_decisions = 0;
          total_restarts = 0;
          total_learnts = 0;
          total_lbd_sum = 0;
          total_glue = 0;
          total_deleted = 0;
          total_reductions = 0;
          total_solve_time = 0.0;
        }
      rows
  in
  let solved = List.length (List.filter (fun r -> r.satmap.solved) rows) in
  (* Counter-style metrics sum meaningfully across rows; the few gauges
     (e.g. sat.props_per_s) are summed too — read them per-row instead. *)
  let obs_totals =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun r ->
        List.iter
          (fun (k, v) ->
            Hashtbl.replace tbl k
              (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)))
          r.obs_metrics)
      rows;
    json_of_obs
      ~events:(List.fold_left (fun acc r -> acc + r.obs_events) 0 rows)
      (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))
  in
  let cache_totals =
    json_of_cache
      (List.fold_left
         (fun acc r ->
           {
             cold_calls = acc.cold_calls + r.satmap_cache.cold_calls;
             warm_calls = acc.warm_calls + r.satmap_cache.warm_calls;
             cache_hits = acc.cache_hits + r.satmap_cache.cache_hits;
             cache_misses = acc.cache_misses + r.satmap_cache.cache_misses;
           })
         { cold_calls = 0; warm_calls = 0; cache_hits = 0; cache_misses = 0 }
         rows)
  in
  let proof_totals =
    let solved_rows = List.filter (fun r -> r.satmap.solved) rows in
    let total_proofs =
      List.fold_left (fun acc r -> acc + r.satmap.proofs_checked) 0 rows
    in
    (* "certified" here means: at least one proof was actually checked,
       and every solved row either carries an accepted certificate or
       had nothing to prove (vacuous, cost-0).  A run that checked zero
       proofs overall verified nothing and must not claim the label. *)
    Printf.sprintf
      "{\"enabled\": %b, \"certified\": %b, \"proofs_checked\": %d, \
       \"trace_events\": %d, \"check_time_s\": %s}"
      !opt_certify
      (!opt_certify && solved_rows <> [] && total_proofs > 0
      && List.for_all
           (fun r -> r.satmap.certified || r.satmap.proofs_checked = 0)
           solved_rows)
      total_proofs
      (List.fold_left (fun acc r -> acc + r.satmap.proof_events) 0 rows)
      (json_float
         (List.fold_left (fun acc r -> acc +. r.satmap.certify_seconds) 0. rows))
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"satmap-bench/v1\",\n\
    \  \"scale\": \"%s\",\n\
    \  \"per_tool_budget_s\": %s,\n\
    \  \"suite_size\": %d,\n\
    \  \"solved\": %d,\n\
    \  \"solver_totals\": %s,\n\
    \  \"proof_totals\": %s,\n\
    \  \"cache_totals\": %s,\n\
    \  \"obs_totals\": %s,\n\
    \  \"serve\": %s,\n\
    \  \"race\": %s,\n\
    \  \"engines\": %s,\n\
    \  \"benchmarks\": [\n%s\n  ]\n\
     }\n"
    (if !opt_smoke then "smoke" else if !opt_full then "full" else "quick")
    (json_float (timeout ()))
    (List.length rows) solved
    (json_of_totals sum ~wall:total_wall)
    proof_totals cache_totals obs_totals (serve_section ())
    (race_section ())
    (engines_section ())
    (String.concat ",\n" (List.map row_json rows));
  close_out oc;
  Printf.printf "\nwrote %s: %d benchmarks, %d solved, %.0f props/s\n" path
    (List.length rows) solved
    (Sat.Solver.totals_props_per_second sum)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of per-experiment kernels *)

(* A long binary implication chain plus a few long clauses: assuming the
   chain's root forces one propagation per variable, nearly all of it
   through the binary watch lists, so this kernel isolates raw
   propagation throughput of the SAT core. *)
let binary_chain_solver n =
  let s = Sat.Solver.create () in
  let v = Array.init n (fun _ -> Sat.Lit.of_var (Sat.Solver.new_var s)) in
  for i = 0 to n - 2 do
    Sat.Solver.add_clause s [ Sat.Lit.neg v.(i); v.(i + 1) ]
  done;
  (* A sprinkle of long clauses so the blocker path is exercised too. *)
  for i = 0 to (n / 8) - 1 do
    Sat.Solver.add_clause s
      [ Sat.Lit.neg v.(8 * i); v.((8 * i) + 3); v.((8 * i) + 5) ]
  done;
  (s, v.(0))

let micro () =
  section "Micro-benchmarks (Bechamel) — per-table kernels";
  let open Bechamel in
  let rng = Rng.create 9 in
  let circuit =
    Workloads.Generators.local_random rng ~n:8 ~gates:20 ~locality:0.6
  in
  let spec = Satmap.Encoding.spec tokyo in
  let big_circuit =
    Workloads.Generators.local_random rng ~n:12 ~gates:100 ~locality:0.6
  in
  let chain, chain_root = binary_chain_solver 4000 in
  let micro_before = Sat.Solver.totals () in
  let tests =
    Test.make_grouped ~name:"kernels" ~fmt:"%s %s"
      [
        Test.make ~name:"sat:binary-chain-propagation"
          (Staged.stage (fun () ->
               ignore
                 (Sat.Solver.solve ~assumptions:[ chain_root ] chain)));
        Test.make ~name:"table1:encoding-build"
          (Staged.stage (fun () -> ignore (Satmap.Encoding.build spec circuit)));
        Test.make ~name:"table2:slicing"
          (Staged.stage (fun () ->
               ignore
                 (Quantum.Circuit.slice_by_two_qubit big_circuit ~slice_size:10)));
        Test.make ~name:"table4:qaoa-build"
          (Staged.stage (fun () ->
               ignore (Qaoa.Build.maxcut_3_regular ~seed:1 ~n:10 ~cycles:2)));
        Test.make ~name:"fig10:sat-first-model"
          (Staged.stage (fun () ->
               let enc = Satmap.Encoding.build spec circuit in
               let inst = Satmap.Encoding.instance enc in
               let s = Sat.Solver.create () in
               for _ = 1 to Maxsat.Instance.n_vars inst do
                 ignore (Sat.Solver.new_var s)
               done;
               List.iter (Sat.Solver.add_clause s) (Maxsat.Instance.hard inst);
               ignore (Sat.Solver.solve s)));
        Test.make ~name:"fig12:sabre-route"
          (Staged.stage (fun () ->
               ignore (Heuristics.Sabre.route tokyo big_circuit)));
        Test.make ~name:"fig14:device-distances"
          (Staged.stage (fun () -> ignore (Arch.Topologies.tokyo ())));
        Test.make ~name:"q6:weighted-encoding"
          (Staged.stage (fun () ->
               let cal = Arch.Calibration.fake_tokyo () in
               let spec =
                 Satmap.Encoding.spec
                   ~objective:(Satmap.Encoding.Fidelity cal) tokyo
               in
               ignore (Satmap.Encoding.build spec circuit)));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let est =
        match Analyze.OLS.estimates result with
        | Some [ e ] -> e
        | Some _ | None -> Float.nan
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "%-44s %14.0f ns/run\n" name est)
    (List.sort compare !rows);
  let d = Sat.Solver.sub_totals (Sat.Solver.totals ()) micro_before in
  Printf.printf
    "SAT core across all kernels: %d propagations, %d conflicts in %.2fs \
     solver time — %.2e props/s\n"
    d.Sat.Solver.total_propagations d.Sat.Solver.total_conflicts
    d.Sat.Solver.total_solve_time
    (Sat.Solver.totals_props_per_second d)

(* ------------------------------------------------------------------ *)
(* Registry and main *)

let experiments =
  [
    ("table1", "Table I / Fig 1: constraint-based comparison", table1);
    ("fig10", "Fig 10: runtime vs EX-MQT", fig10);
    ("fig11", "Fig 11: runtime vs TB-OLSQ", fig11);
    ("fig12", "Fig 12: cost ratio vs heuristics", fig12);
    ("table2", "Table II: slice-size ablation", table2);
    ("fig13", "Fig 13: slice-size cost ratios", fig13);
    ("table4", "Table IV: QAOA cyclic relaxation", table4);
    ("table3", "Table III: relaxation breakdown", table3);
    ("fig14", "Fig 14: architecture variation", fig14);
    ("fig15", "Fig 15: time budget sweep", fig15);
    ("fig16", "Fig 16: cost ratio vs size", fig16);
    ("q6", "Q6: noise-aware weighted MaxSAT", q6);
    ("ablation", "Ablation: encoding design choices", ablation);
  ]

let () =
  Arg.parse args
    (fun s -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" s)))
    "bench/main.exe — regenerate the paper's tables and figures";
  if !opt_list then begin
    List.iter
      (fun (id, doc, _) -> Printf.printf "%-10s %s\n" id doc)
      experiments;
    Printf.printf "%-10s %s\n" "micro" "Bechamel micro-benchmarks";
    exit 0
  end;
  (* Fail on an unwritable snapshot path now, not after the bench budget. *)
  Option.iter
    (fun path ->
      match open_out_gen [ Open_append; Open_creat ] 0o644 path with
      | oc -> close_out oc
      | exception Sys_error msg ->
        Printf.eprintf "cannot write --json snapshot: %s\n" msg;
        exit 1)
    !opt_json;
  if !opt_smoke then begin
    (* Seconds-scale slice for `dune runtest`: 3 benchmarks, 1s budgets,
       just the main comparison (which is what --json snapshots).
       Certification stays opt-in (--certify): it forces the
       from-scratch solver path, and the smoke suite's job is to
       exercise the default incremental one (solver.created /
       encode.reused_clauses land in the snapshot's metrics; the
       @certify-smoke alias covers the proof path separately). *)
    opt_suite_n := 3;
    opt_timeout := 1.0;
    opt_full := false;
    if !opt_experiments = [] then opt_experiments := [ "table1" ]
  end;
  let t0 = Unix.gettimeofday () in
  let selected =
    match !opt_experiments with
    | [] -> List.map (fun (id, _, _) -> id) experiments @ [ "micro" ]
    | ids -> List.rev ids
  in
  Printf.printf
    "SATMAP experiment harness — scale: %s (per-tool budget %.1fs)\n"
    (if !opt_smoke then "smoke" else if !opt_full then "full" else "quick")
    (timeout ());
  List.iter
    (fun id ->
      if id = "micro" then begin
        if not !opt_no_micro then micro ()
      end
      else
        match List.find_opt (fun (id', _, _) -> id' = id) experiments with
        | Some (_, _, run) -> run ()
        | None ->
          Printf.eprintf "unknown experiment %S (use --list)\n" id;
          exit 1)
    selected;
  Option.iter write_json !opt_json;
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
