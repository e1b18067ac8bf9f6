(* The satmap command-line tool.

   Subcommands:
     route        read an OpenQASM circuit, map and route it onto a device
     lint         statically analyse the MaxSAT encoding of a circuit
     race         dynamically analyse the concurrent tier for data races
     stats        print circuit statistics
     export-wcnf  emit the MaxSAT encoding as a DIMACS WCNF file
     devices      list built-in device topologies
     suite        list the synthetic benchmark suite

   Exit codes (cmdliner reserves 123-125 for usage/internal errors):
     0  success
     1  routing failed (unsatisfiable, timeout, memory guard, or a
        routing-internal check failure — the Router.route_* entry points
        return Failed rather than raising)
     2  argument error: the input circuit does not parse, or a value we
        validate ourselves is invalid (unknown --engine or
        --seed-placement; validated in-command so the engine list can go
        to stderr instead of cmdliner's generic 124)
     3  a check failed outside the routing path: lint or race findings,
        or a broken invariant in a non-routing subcommand *)

open Cmdliner

let exit_routing_failure = 1
let exit_parse_error = 2
let exit_check_failure = 3

(* Uniform exception-to-exit-code discipline for every subcommand. *)
let guarded f =
  try f () with
  | Quantum.Qasm.Parse_error msg ->
    Format.eprintf "parse error: %s@." msg;
    exit exit_parse_error
  | Failure msg ->
    Format.eprintf "check failed: %s@." msg;
    exit exit_check_failure
  | Invalid_argument msg ->
    Format.eprintf "invalid input: %s@." msg;
    exit exit_routing_failure

(* ------------------------------------------------------------------ *)
(* Shared argument parsers *)

let device_arg =
  let parse s =
    match Arch.Topologies.by_name s with
    | Some d -> Ok d
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown device %S (try: %s)" s
             (String.concat ", " Arch.Topologies.known_names)))
  in
  let print fmt d = Format.fprintf fmt "%s" (Arch.Device.name d) in
  Arg.conv (parse, print)

let device =
  Arg.(
    value
    & opt device_arg (Arch.Topologies.tokyo ())
    & info [ "d"; "device" ] ~docv:"DEVICE"
        ~doc:"Target device topology (e.g. tokyo, tokyo-, tokyo+, linear-8).")

let qasm_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"CIRCUIT.qasm" ~doc:"Input OpenQASM 2.0 circuit.")

(* Optional variant for [route], which must also accept a bare
   [--list-engines] with no circuit; absence is checked in-command. *)
let route_qasm_file =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"CIRCUIT.qasm" ~doc:"Input OpenQASM 2.0 circuit.")

let timeout =
  Arg.(
    value & opt float 30.0
    & info [ "t"; "timeout" ] ~docv:"SECONDS" ~doc:"Solver time budget.")

let slice_size =
  Arg.(
    value
    & opt (some int) None
    & info [ "s"; "slice-size" ] ~docv:"N"
        ~doc:
          "Two-qubit gates per slice for the local relaxation; omit for the \
           portfolio of sizes 10/25/50/100.")

let method_ =
  Arg.(
    value
    & opt
        (enum
           [
             ("sliced", `Sliced);
             ("monolithic", `Monolithic);
             ("cyclic", `Cyclic);
           ])
        `Sliced
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:
          "Routing method: sliced (SATMAP), monolithic (NL-SATMAP), or \
           cyclic (CYC-SATMAP, auto-detects the repeated body).  Other \
           pipelines, such as hybrid, are engines: see --engine.")

let noise =
  Arg.(
    value & flag
    & info [ "noise" ]
        ~doc:
          "Noise-aware objective: maximise fidelity using the synthetic \
           calibration data instead of minimising the swap count.")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the routed circuit as OpenQASM.")

let n_swaps =
  Arg.(
    value & opt int 1
    & info [ "n-swaps" ] ~docv:"N" ~doc:"Swap slots per gate (the paper's n; default 1).")

let solver_jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "solver-jobs" ] ~docv:"N"
        ~doc:
          "Domains the slice-size portfolio runs its members on (default \
           1); only used without an explicit slice size under the sliced \
           method.")

let solver_stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print SAT-solver and optimizer statistics (conflicts, decisions, \
           propagations/s, restarts, learnt-clause LBD) after routing.")

let certify =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Log DRUP proofs in the MaxSAT engine and re-check every \
           infeasible bound with the independent proof checker; reports \
           whether the optimum is certified and the checking overhead.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a timeline of the run (solver calls, MaxSAT descent \
           iterations, router blocks, portfolio members) and write it to \
           $(docv) in Chrome trace_events JSON; open it in \
           chrome://tracing or ui.perfetto.dev.")

let metrics_out =
  Arg.(
    value
    & opt ~vopt:(Some "metrics.json") (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write process-wide counters (solver conflicts/propagations, \
           MaxSAT iterations, router blocks/backtracks/escalations) as \
           flat JSON to $(docv); defaults to metrics.json when the flag \
           is given bare.")

(* ------------------------------------------------------------------ *)
(* route *)

(* Engine selection is validated in-command (not via Arg.conv) so an
   unknown name exits 2 with the engine list on stderr instead of
   cmdliner's 124. *)
let engine_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Route through a named engine from the registry (see \
           --list-engines) instead of the default MaxSAT pipeline; \
           --method is ignored when an engine is selected.")

let list_engines =
  Arg.(
    value & flag
    & info [ "list-engines" ]
        ~doc:"List the available routing engines and exit.")

let seed_placement =
  Arg.(
    value
    & opt (some string) None
    & info [ "seed-placement" ] ~docv:"SEEDER"
        ~doc:
          "Initial placement: 'qap' or 'none'.  For the MaxSAT router the \
           default is 'qap': a route that spans more than one slice pins \
           its first slice to the quadratic-assignment placement (tabu \
           search) of the whole circuit; single-slice, monolithic and \
           cyclic routes stay free.  'none' lets the solver choose the \
           first slice's map, as the paper's SATMAP does.  With --engine, \
           'qap' seeds any engine that accepts a seed; without it each \
           engine places on its own.")

let print_engine_list fmt () =
  List.iter
    (fun (e : Engines.Registry.t) ->
      let caps = e.caps in
      let tags =
        List.filter_map Fun.id
          [
            (if caps.Engines.Registry.optimal then Some "optimal" else None);
            (if caps.Engines.Registry.anytime then Some "anytime" else None);
            (if caps.Engines.Registry.commuting_only then Some "commuting-only"
             else None);
            (if caps.Engines.Registry.reorders_commuting then
               Some "reorders-commuting"
             else None);
            (if caps.Engines.Registry.accepts_seed then Some "accepts-seed"
             else None);
            (if caps.Engines.Registry.places then Some "places" else None);
          ]
      in
      Format.fprintf fmt "%-14s %s%s@." e.Engines.Registry.name
        e.Engines.Registry.description
        (if tags = [] then "" else " [" ^ String.concat ", " tags ^ "]"))
    (Engines.Catalog.all ())

let print_mapping fmt mapping =
  Array.iteri
    (fun q p -> Format.fprintf fmt "  q%d -> p%d@." q p)
    (Satmap.Mapping.to_array mapping)

let print_solver_stats () =
  let tot = Sat.Solver.totals () in
  Format.printf "--- solver statistics ---@.";
  Format.printf "conflicts:     %d@." tot.Sat.Solver.total_conflicts;
  Format.printf "decisions:     %d@." tot.Sat.Solver.total_decisions;
  Format.printf "propagations:  %d (%.0f/s)@." tot.Sat.Solver.total_propagations
    (Sat.Solver.totals_props_per_second tot);
  Format.printf "restarts:      %d@." tot.Sat.Solver.total_restarts;
  Format.printf "learnt:        %d (avg LBD %.2f, glue %d)@."
    tot.Sat.Solver.total_learnts
    (Sat.Solver.totals_avg_lbd tot)
    tot.Sat.Solver.total_glue;
  Format.printf "deleted:       %d (in %d reductions)@."
    tot.Sat.Solver.total_deleted tot.Sat.Solver.total_reductions;
  Format.printf "solver time:   %.2fs@." tot.Sat.Solver.total_solve_time;
  (* Incremental-reuse counters: how many CDCL solvers this run actually
     instantiated, how many skeleton clauses skipped re-emission because
     a live solver was reused, and how many descents picked up where an
     earlier bound left off. *)
  let v name = Obs.Metrics.value (Obs.Metrics.counter name) in
  Format.printf "solvers:       %d created@." (v "solver.created");
  Format.printf "reused:        %d clauses (descents resumed %d)@."
    (v "encode.reused_clauses") (v "descent.resumed");
  Format.printf "zero-swap:     %d of %d blocks skipped the solver@."
    (v "router.zero_swap_blocks") (v "router.blocks");
  Format.printf "lower bound:   %d descents ended at it, without a refutation@."
    (v "maxsat.lower_bound_stops")

let lint_blocks =
  Arg.(
    value & flag
    & info [ "lint-blocks" ]
        ~doc:
          "Debug mode: statically analyse every block's MaxSAT instance \
           before solving it; any Warning-or-worse finding aborts the run \
           with exit code 3.")

let route_cmd_run device qasm timeout slice_size method_ noise output n_swaps
    solver_jobs stats_flag certify lint_blocks trace metrics engine
    list_engines seed_placement =
 guarded @@ fun () ->
  if list_engines then begin
    Format.printf "%a" print_engine_list ();
    exit 0
  end;
  let qasm =
    match qasm with
    | Some q -> q
    | None ->
      Format.eprintf "route: a CIRCUIT.qasm argument is required@.";
      exit exit_parse_error
  in
  let engine =
    match engine with
    | None -> None
    | Some name -> (
      match Engines.Catalog.find name with
      | Some e -> Some e
      | None ->
        Format.eprintf "unknown engine %S; available engines:@.%a" name
          print_engine_list ();
        exit exit_parse_error)
  in
  let seed_placement =
    match seed_placement with
    | None -> `Default
    | Some "none" -> `None
    | Some "qap" -> `Qap
    | Some other ->
      Format.eprintf "unknown seed placement %S (try: qap, none)@." other;
      exit exit_parse_error
  in
  Sat.Solver.reset_totals ();
  Obs.Metrics.reset ();
  if trace <> None then Obs.Trace.enable ();
  (* Exports run in both the success and the failure branch so a timed-out
     or unsatisfiable route still leaves its timeline behind. *)
  let finish_obs () =
    Option.iter
      (fun path ->
        Obs.Trace.write_chrome path;
        Format.printf "trace:         %s (%d events, %d dropped)@." path
          (Obs.Trace.recorded ()) (Obs.Trace.dropped ()))
      trace;
    Option.iter
      (fun path ->
        Obs.Metrics.write_json path;
        Format.printf "metrics:       %s@." path)
      metrics
  in
  let circuit = Quantum.Qasm.of_file qasm in
  let objective =
    if noise then
      Satmap.Encoding.Fidelity (Arch.Calibration.synthetic device)
    else Satmap.Encoding.Count_swaps
  in
  match engine with
  | Some e -> (
    let ecfg =
      {
        Engines.Registry.default_config with
        timeout;
        n_swaps;
        slice_size = Option.value slice_size ~default:25;
        objective;
        initial =
          (match seed_placement with
          | `Qap -> Some (Satmap.Placement.place device circuit)
          | `Default | `None -> None);
      }
    in
    match Engines.Registry.run e device circuit ecfg with
    | Error msg ->
      Format.eprintf "routing failed: %s@." msg;
      if stats_flag then print_solver_stats ();
      finish_obs ();
      exit exit_routing_failure
    | Ok (routed, m) ->
      Format.printf "engine:        %s@." m.Engines.Registry.m_engine;
      Format.printf "device:        %s@." (Arch.Device.name device);
      Format.printf "two-qubit:     %d@."
        (Quantum.Circuit.count_two_qubit circuit);
      Format.printf "swaps added:   %d@." (Satmap.Routed.n_swaps routed);
      Format.printf "added CNOTs:   %d@." (Satmap.Routed.added_cnots routed);
      Format.printf "solve time:    %.2fs@." m.Engines.Registry.m_time;
      Format.printf "optimal:       %b@." m.Engines.Registry.m_optimal;
      Format.printf "verified:      true@.";
      Format.printf "initial map:@.%a" print_mapping
        (Satmap.Routed.initial routed);
      if stats_flag then print_solver_stats ();
      finish_obs ();
      Option.iter
        (fun path ->
          Quantum.Qasm.to_file path (Satmap.Routed.circuit routed);
          Format.printf "routed circuit written to %s@." path)
        output)
  | None ->
  let config =
    {
      Satmap.Router.default_config with
      timeout;
      objective;
      n_swaps;
      solver_parallelism = max 1 solver_jobs;
      certify;
      lint_blocks;
      placement =
        (match seed_placement with
        | `Default | `Qap -> Satmap.Router.Qap
        | `None -> Satmap.Router.Free);
    }
  in
  let span =
    if Obs.Trace.enabled () then
      Obs.Trace.start "cli.route"
        ~args:
          [
            ("circuit", Obs.Trace.Str qasm);
            ("device", Obs.Trace.Str (Arch.Device.name device));
          ]
    else Obs.Trace.null_span
  in
  let outcome =
    match (method_, slice_size) with
    | `Monolithic, _ -> Satmap.Router.route_monolithic ~config device circuit
    | `Cyclic, s -> Satmap.Router.route_cyclic ~config ?slice_size:s device circuit
    | `Sliced, Some s ->
      Satmap.Router.route_sliced ~config ~slice_size:s device circuit
    | `Sliced, None ->
      fst (Satmap.Router.route_portfolio ~config device circuit)
  in
  if span != Obs.Trace.null_span then
    Obs.Trace.stop span
      ~args:
        [
          ( "outcome",
            Obs.Trace.Str
              (match outcome with
              | Satmap.Router.Routed _ -> "routed"
              | Satmap.Router.Failed _ -> "failed") );
        ];
  match outcome with
  | Satmap.Router.Failed msg ->
    Format.eprintf "routing failed: %s@." msg;
    if stats_flag then print_solver_stats ();
    finish_obs ();
    exit exit_routing_failure
  | Satmap.Router.Routed (routed, stats) ->
    Format.printf "device:        %s@." (Arch.Device.name device);
    Format.printf "two-qubit:     %d@." (Quantum.Circuit.count_two_qubit circuit);
    Format.printf "swaps added:   %d@." (Satmap.Routed.n_swaps routed);
    Format.printf "added CNOTs:   %d@." (Satmap.Routed.added_cnots routed);
    Format.printf "solve time:    %.2fs@." stats.time;
    Format.printf "blocks:        %d (backtracks %d, escalations %d)@."
      stats.n_blocks stats.n_backtracks stats.escalations;
    Format.printf "optimal:       %b@." stats.proved_optimal;
    if certify then
      Format.printf "certified:     %b (%d proofs checked, %d proof events, check %.3fs)%s@."
        stats.certified stats.proofs_checked stats.proof_events
        stats.certify_time
        (if stats.proofs_checked = 0 then
           " [vacuous: no infeasibility proofs to check]"
         else "");
    if noise then begin
      let cal = Arch.Calibration.synthetic device in
      Format.printf "est. fidelity: %.4f@."
        (Arch.Calibration.circuit_fidelity cal (Satmap.Routed.circuit routed))
    end;
    Format.printf "initial map:@.%a" print_mapping (Satmap.Routed.initial routed);
    Format.printf "maxsat iters:  %d@." stats.maxsat_iterations;
    if stats_flag then print_solver_stats ();
    finish_obs ();
    Option.iter
      (fun path ->
        Quantum.Qasm.to_file path (Satmap.Routed.circuit routed);
        Format.printf "routed circuit written to %s@." path)
      output

let route_cmd =
  Cmd.v
    (Cmd.info "route" ~doc:"Map and route a circuit onto a device via MaxSAT.")
    Term.(
      const route_cmd_run $ device $ route_qasm_file $ timeout $ slice_size
      $ method_ $ noise $ output $ n_swaps $ solver_jobs
      $ solver_stats $ certify $ lint_blocks $ trace_out $ metrics_out
      $ engine_opt $ list_engines $ seed_placement)

(* ------------------------------------------------------------------ *)
(* lint *)

let lint_cmd_run device qasm n_swaps noise mutate list_mutations =
 guarded @@ fun () ->
  let circuit = Quantum.Qasm.of_file qasm in
  let objective =
    if noise then
      Satmap.Encoding.Fidelity (Arch.Calibration.synthetic device)
    else Satmap.Encoding.Count_swaps
  in
  (* The mutation corpus locates pairwise cardinality clauses, so seeded
     runs force the pairwise encoding; plain lint uses the default. *)
  let amo =
    if mutate <> None || list_mutations then Sat.Card.Pairwise
    else Sat.Card.Sequential
  in
  let spec = Satmap.Encoding.spec ~n_swaps ~amo ~objective device in
  let enc = Satmap.Encoding.build spec circuit in
  if list_mutations then
    List.iter
      (fun (m : Satmap.Mutations.t) ->
        Format.printf "%-26s %s@." m.name m.description)
      (Satmap.Mutations.all enc)
  else begin
    let inst = Satmap.Encoding.instance enc in
    let ins = Satmap.Encoding.insertion_stats enc in
    Format.printf "device:          %s@." (Arch.Device.name device);
    Format.printf "instance:        %d vars, %d hard, %d soft@."
      (Maxsat.Instance.n_vars inst)
      (Maxsat.Instance.n_hard inst)
      (Maxsat.Instance.n_soft inst);
    Format.printf
      "insertion:       %d clauses seen, %d tautologies dropped, %d \
       duplicate literals dropped@."
      ins.Sat.Sink.clauses_seen ins.Sat.Sink.tautologies_dropped
      ins.Sat.Sink.duplicate_literals_dropped;
    let report =
      match mutate with
      | None -> Satmap.Encoding_lint.check_full enc
      | Some name -> (
        match
          List.find_opt
            (fun (m : Satmap.Mutations.t) -> m.name = name)
            (Satmap.Mutations.all enc)
        with
        | Some m ->
          Format.printf "mutation:        %s (%s)@." m.name m.description;
          Satmap.Mutations.lint enc m
        | None ->
          Format.eprintf
            "unknown mutation %S (use --list-mutations for the corpus)@."
            name;
          exit exit_check_failure)
    in
    Format.printf "findings:        %s@." (Lint.Report.summary report);
    Lint.Report.pp Format.std_formatter report;
    if not (Lint.Report.is_clean ~at_least:Lint.Report.Warning report) then
      exit exit_check_failure
  end

let lint_cmd =
  let mutate =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"NAME"
          ~doc:
            "Apply the named seeded mutation to the instance before \
             linting (validation mode: the linter is expected to flag \
             it and exit 3).")
  in
  let list_mutations =
    Arg.(
      value & flag
      & info [ "list-mutations" ]
          ~doc:"List the seeded mutation corpus for this encoding and exit.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse the MaxSAT encoding of a circuit: structural \
          CNF/WCNF hygiene, encoding-level promises (injectivity, slot \
          choices, swap effects, gate executability), and level-0 \
          consistency — without solving.  Exit code 3 on any \
          Warning-or-worse finding.")
    Term.(
      const lint_cmd_run $ device $ qasm_file $ n_swaps $ noise $ mutate
      $ list_mutations)

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_cmd_run qasm =
 guarded @@ fun () ->
  let c = Quantum.Qasm.of_file qasm in
  Format.printf "qubits:      %d@." (Quantum.Circuit.n_qubits c);
  Format.printf "gates:       %d@." (Quantum.Circuit.length c);
  Format.printf "two-qubit:   %d@." (Quantum.Circuit.count_two_qubit c);
  Format.printf "one-qubit:   %d@." (Quantum.Circuit.count_one_qubit c);
  Format.printf "depth:       %d@." (Quantum.Circuit.depth c);
  let dag = Quantum.Dag.build c in
  Format.printf "dag layers:  %d@." (List.length (Quantum.Dag.layers dag));
  match Quantum.Circuit.detect_repetition c with
  | Some (_, k) -> Format.printf "cyclic:      yes (%d repetitions)@." k
  | None -> Format.printf "cyclic:      no@."

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print circuit statistics.")
    Term.(const stats_cmd_run $ qasm_file)

(* ------------------------------------------------------------------ *)
(* export-wcnf *)

let export_cmd_run device qasm noise n_swaps out_path =
 guarded @@ fun () ->
  let circuit = Quantum.Qasm.of_file qasm in
  let objective =
    if noise then
      Satmap.Encoding.Fidelity (Arch.Calibration.synthetic device)
    else Satmap.Encoding.Count_swaps
  in
  let spec = Satmap.Encoding.spec ~n_swaps ~objective device in
  let enc = Satmap.Encoding.build spec circuit in
  let inst = Satmap.Encoding.instance enc in
  Maxsat.Instance.to_wcnf_file inst out_path;
  Format.printf "wrote %s: %d vars, %d hard, %d soft@." out_path
    (Maxsat.Instance.n_vars inst)
    (Maxsat.Instance.n_hard inst)
    (Maxsat.Instance.n_soft inst)

let export_cmd =
  let out =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT.wcnf" ~doc:"Output WCNF path.")
  in
  Cmd.v
    (Cmd.info "export-wcnf"
       ~doc:
         "Emit the MaxSAT encoding as DIMACS WCNF for an external solver \
          (e.g. Open-WBO-Inc, as used by the paper).")
    Term.(const export_cmd_run $ device $ qasm_file $ noise $ n_swaps $ out)

(* ------------------------------------------------------------------ *)
(* devices / suite *)

let devices_cmd =
  Cmd.v
    (Cmd.info "devices" ~doc:"List built-in device topologies.")
    Term.(
      const (fun () ->
          List.iter
            (fun name ->
              match Arch.Topologies.by_name name with
              | Some d -> Format.printf "%a@." Arch.Device.pp d
              | None -> Format.printf "%-14s (parameterised)@." name)
            Arch.Topologies.known_names)
      $ const ())

let suite_cmd =
  Cmd.v
    (Cmd.info "suite" ~doc:"List the synthetic benchmark suite.")
    Term.(
      const (fun () ->
          List.iter
            (fun (b : Workloads.Suite.benchmark) ->
              Format.printf "%-24s %2d qubits %6d two-qubit gates@." b.name
                b.n_qubits b.n_two_qubit)
            (Workloads.Suite.full ()))
      $ const ())

(* ------------------------------------------------------------------ *)
(* serve / shard-router / loadgen *)

(* "PATH" (contains '/'), "unix:PATH", "HOST:PORT", ":PORT" or
   "tcp:HOST:PORT" -> a server address. *)
let parse_address s =
  let tcp spec =
    match String.rindex_opt spec ':' with
    | None -> Error (Printf.sprintf "%S: expected HOST:PORT or a socket path" s)
    | Some i -> (
      let host = String.sub spec 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
      | Some port when port >= 0 && port < 65536 -> Ok (Serving.Server.Tcp (host, port))
      | _ -> Error (Printf.sprintf "%S: invalid port" s))
  in
  let prefixed p =
    String.length s > String.length p
    && String.sub s 0 (String.length p) = p
  in
  if prefixed "unix:" then
    Ok (Serving.Server.Unix_path (String.sub s 5 (String.length s - 5)))
  else if prefixed "tcp:" then tcp (String.sub s 4 (String.length s - 4))
  else if String.contains s '/' then Ok (Serving.Server.Unix_path s)
  else tcp s

let address_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (parse_address s) in
  Arg.conv ~docv:"ADDR" (parse, fun ppf a ->
      Format.pp_print_string ppf (Serving.Server.address_to_string a))

let shard_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Serving.Shard.parse_spec s) in
  Arg.conv ~docv:"I/N"
    (parse, fun ppf (i, n) -> Format.fprintf ppf "%d/%d" i n)

(* Block until SIGINT/SIGTERM.  Signal handlers only set a flag; the
   polling loop keeps the main thread out of any state a handler could
   corrupt. *)
let wait_for_signal () =
  let stop = Atomic.make false in
  let handle = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  let prev_int = Sys.signal Sys.sigint handle in
  let prev_term = Sys.signal Sys.sigterm handle in
  while not (Atomic.get stop) do
    Thread.delay 0.1
  done;
  Sys.set_signal Sys.sigint prev_int;
  Sys.set_signal Sys.sigterm prev_term

let print_engine_stats engine =
  let pool = Service.Engine.pool engine in
  let sc = Service.Engine.serve_cache engine in
  let bc = Service.Engine.block_cache engine in
  Format.eprintf
    "served %d requests (%d rejected); request cache: %d hits / %d misses; \
     block cache: %d hits / %d misses (%d entries)@."
    (Service.Pool.completed pool)
    (Service.Pool.rejected pool)
    (Service.Cache.hits sc) (Service.Cache.misses sc)
    (Service.Block_cache.hits bc)
    (Service.Block_cache.misses bc)
    (Service.Block_cache.length bc)

let write_observability trace metrics =
  Option.iter
    (fun path ->
      Obs.Trace.write_chrome path;
      Format.eprintf "trace:         %s (%d events, %d dropped)@." path
        (Obs.Trace.recorded ()) (Obs.Trace.dropped ()))
    trace;
  Option.iter
    (fun path ->
      Obs.Metrics.write_json path;
      Format.eprintf "metrics:       %s@." path)
    metrics

let serve_cmd_run workers solver_jobs cache_size queue_capacity cache_file
    stdio listen shard no_admission max_request_bytes trace metrics =
 guarded @@ fun () ->
  if stdio && listen <> None then
    raise
      (Invalid_argument "serve: --stdio and --socket/--tcp are exclusive");
  Obs.Metrics.reset ();
  if trace <> None then Obs.Trace.enable ();
  let engine =
    Service.Engine.create ?workers ~solver_jobs ~cache_size ~queue_capacity
      ?cache_file ()
  in
  (* stdout carries only JSON-lines responses; everything human-facing
     goes to stderr. *)
  if Service.Engine.restored_entries engine > 0 then
    Format.eprintf "cache: restored %d entries@."
      (Service.Engine.restored_entries engine);
  (match listen with
  | None ->
    (* Default transport: the stdio JSON-lines loop ([--stdio] makes
       the choice explicit).  [Engine.serve] shuts the pool down and
       persists the cache on EOF. *)
    Format.eprintf
      "serving on stdin (%d workers, %d solver jobs each, queue %d, cache \
       %d)@."
      (Service.Pool.workers (Service.Engine.pool engine))
      (Service.Engine.solver_jobs engine)
      (Service.Pool.capacity (Service.Engine.pool engine))
      cache_size;
    Service.Engine.serve ~max_request_bytes engine stdin stdout
  | Some address ->
    let server =
      Serving.Server.start ~max_request_bytes ?shard
        ~admission:(not no_admission) engine address
    in
    Format.eprintf
      "serving on %s (%d workers, %d solver jobs each, queue %d, cache %d%s)@."
      (Serving.Server.address_to_string (Serving.Server.address server))
      (Service.Pool.workers (Service.Engine.pool engine))
      (Service.Engine.solver_jobs engine)
      (Service.Pool.capacity (Service.Engine.pool engine))
      cache_size
      (match shard with
      | None -> ""
      | Some (i, n) -> Printf.sprintf ", shard %d/%d" i n);
    wait_for_signal ();
    Format.eprintf "shutting down@.";
    Serving.Server.stop server;
    Service.Engine.shutdown engine;
    Service.Engine.save_cache engine);
  print_engine_stats engine;
  write_observability trace metrics

let serve_cmd =
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains draining the request queue (default: one per \
             recommended domain, minus the reader).")
  in
  let cache_size =
    Arg.(
      value & opt int 256
      & info [ "cache-size" ] ~docv:"M"
          ~doc:"Request-level result cache capacity (LRU entries).")
  in
  let queue_capacity =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded job queue capacity; further submissions are answered \
             with an overloaded error instead of blocking the reader.")
  in
  let cache_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-file" ] ~docv:"FILE"
          ~doc:
            "Persist the request-level cache as JSON: loaded on startup \
             when present, written back on EOF.")
  in
  let serve_solver_jobs =
    Arg.(
      value & opt int 1
      & info [ "solver-jobs" ] ~docv:"N"
          ~doc:
            "Domains a portfolio request runs its slice-size members on; \
             capped so workers x jobs stays within the machine's domain \
             budget.")
  in
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve JSON-lines over stdin/stdout (the default transport; \
             this flag makes the choice explicit and rejects an \
             accidental $(b,--socket)/$(b,--tcp) combination).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:
            "Listen on TCP (port 0 picks an ephemeral port, printed to \
             stderr).")
  in
  let shard =
    Arg.(
      value
      & opt (some shard_conv) None
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "Serve as shard $(i,I) of an $(i,N)-way consistent-hash ring: \
             requests whose canonical fingerprint this shard does not own \
             are rejected with a bad-request error naming the owner.  Put \
             $(b,satmap shard-router) in front to route transparently.")
  in
  let no_admission =
    Arg.(
      value & flag
      & info [ "no-admission" ]
          ~doc:
            "Disable SLO-aware admission control (socket mode only): \
             accept every request regardless of predicted queue wait.")
  in
  let max_request_bytes =
    Arg.(
      value
      & opt int Service.Protocol.default_max_request_bytes
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:"Reject request lines larger than $(docv) bytes.")
  in
  let listen =
    let combine socket tcp =
      match (socket, tcp) with
      | Some _, Some _ ->
        raise (Invalid_argument "serve: --socket and --tcp are exclusive")
      | Some path, None -> Some (Serving.Server.Unix_path path)
      | None, Some spec -> (
        match parse_address ("tcp:" ^ spec) with
        | Ok a -> Some a
        | Error e -> raise (Invalid_argument ("serve: " ^ e)))
      | None, None -> None
    in
    Term.(const combine $ socket $ tcp)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Concurrent routing service: JSON-lines requests on stdin/stdout \
          by default, or over a Unix-domain/TCP socket with \
          $(b,--socket)/$(b,--tcp) (correlate by id — completion order is \
          not submission order).  Structurally identical requests — even \
          with renamed qubits — are answered from a canonicalization-keyed \
          result cache; in socket mode identical in-flight requests are \
          coalesced into a single solve.")
    Term.(
      const serve_cmd_run $ workers $ serve_solver_jobs $ cache_size
      $ queue_capacity $ cache_file $ stdio $ listen $ shard $ no_admission
      $ max_request_bytes $ trace_out $ metrics_out)

(* ------------------------------------------------------------------ *)
(* shard-router *)

let shard_router_cmd_run listen backends max_request_bytes =
 guarded @@ fun () ->
  if backends = [] then
    raise (Invalid_argument "shard-router: at least one --backend required");
  let router =
    Serving.Shard_router.start ~max_request_bytes ~backends listen
  in
  Format.eprintf "routing on %s across %d shard(s):@."
    (Serving.Server.address_to_string (Serving.Shard_router.address router))
    (List.length backends);
  List.iteri
    (fun i b ->
      Format.eprintf "  shard %d: %s@." i (Serving.Server.address_to_string b))
    backends;
  wait_for_signal ();
  Format.eprintf "shutting down@.";
  Serving.Shard_router.stop router

let shard_router_cmd =
  let listen =
    Arg.(
      required
      & opt (some address_conv) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Address to accept clients on: a Unix-socket path or \
             $(i,HOST:PORT).")
  in
  let backends =
    Arg.(
      value
      & opt_all address_conv []
      & info [ "backend" ] ~docv:"ADDR"
          ~doc:
            "Backend shard address (repeatable; order defines shard \
             indices, so it must match each backend's $(b,--shard) \
             $(i,I/N)).")
  in
  let max_request_bytes =
    Arg.(
      value
      & opt int Service.Protocol.default_max_request_bytes
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:"Reject request lines larger than $(docv) bytes.")
  in
  Cmd.v
    (Cmd.info "shard-router"
       ~doc:
         "Thin router in front of sharded $(b,satmap serve) instances: \
          forwards each request to the shard owning its canonical \
          fingerprint, so responses are byte-identical regardless of \
          shard count.")
    Term.(const shard_router_cmd_run $ listen $ backends $ max_request_bytes)

(* ------------------------------------------------------------------ *)
(* loadgen *)

let loadgen_cmd_run target n rate dup rename connections timeout method_name
    device slice_size n_unique n_qubits gates seed stream json_out =
 guarded @@ fun () ->
  let method_ =
    match Service.Protocol.method_of_name method_name with
    | Some m -> m
    | None ->
      raise
        (Invalid_argument
           (Printf.sprintf
              "loadgen: unknown method %S (expected sliced, monolithic, \
               cyclic or portfolio)"
              method_name))
  in
  let spec =
    {
      Loadgen.default_spec with
      Loadgen.n_requests = n;
      rate;
      duplicate_frac = dup;
      rename_frac = rename;
      connections;
      request_timeout = timeout;
      method_;
      device;
      slice_size;
      n_unique;
      n_qubits;
      gates;
      seed;
      stream;
    }
  in
  let r = Loadgen.run spec target in
  Format.printf
    "sent %d, completed %d (%d ok); wall %.2fs, %.1f req/s@." r.Loadgen.r_sent
    r.Loadgen.r_completed r.Loadgen.r_ok r.Loadgen.r_wall
    r.Loadgen.r_throughput;
  Format.printf
    "latency: mean %.3fs  p50 %.3fs  p90 %.3fs  p99 %.3fs  max %.3fs@."
    r.Loadgen.r_mean_latency r.Loadgen.r_p50 r.Loadgen.r_p90 r.Loadgen.r_p99
    r.Loadgen.r_max_latency;
  Format.printf
    "cache hits %d (%.0f%%), coalesced %d (%.0f%%), progress lines %d@."
    r.Loadgen.r_cache_hits
    (100. *. r.Loadgen.r_hit_rate)
    r.Loadgen.r_coalesced
    (100. *. r.Loadgen.r_coalesce_rate)
    r.Loadgen.r_progress_lines;
  if r.Loadgen.r_errors <> [] then
    Format.printf "errors: %s@."
      (String.concat ", "
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=%d" k v)
            r.Loadgen.r_errors));
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Obs.Json.to_string (Loadgen.result_to_json r));
      output_char oc '\n';
      close_out oc;
      Format.printf "wrote %s@." path)
    json_out;
  if r.Loadgen.r_completed < r.Loadgen.r_sent then exit 1

let loadgen_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some address_conv) None
      & info [] ~docv:"ADDR"
          ~doc:
            "Server address: a Unix-socket path or $(i,HOST:PORT) (see \
             $(b,satmap serve --socket)).")
  in
  let n =
    Arg.(
      value & opt int 40
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Requests to send.")
  in
  let rate =
    Arg.(
      value & opt float 20.0
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Offered load in requests/second (open loop: a slow server \
             shows up as latency, not reduced load).")
  in
  let dup =
    Arg.(
      value & opt float 0.5
      & info [ "dup" ] ~docv:"P"
          ~doc:
            "Fraction of requests that re-issue an earlier circuit \
             (cache and single-flight food).")
  in
  let rename =
    Arg.(
      value & opt float 0.3
      & info [ "rename" ] ~docv:"P"
          ~doc:
            "Fraction of requests sent under a random qubit relabelling \
             (canonicalization food: renamed duplicates must still hit).")
  in
  let connections =
    Arg.(
      value & opt int 4
      & info [ "connections" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let timeout =
    Arg.(
      value & opt float 10.0
      & info [ "timeout" ] ~docv:"S" ~doc:"Per-request timeout, seconds.")
  in
  let method_name =
    Arg.(
      value & opt string "sliced"
      & info [ "method" ] ~docv:"M"
          ~doc:"Routing method: sliced, monolithic, cyclic or portfolio.")
  in
  let device =
    Arg.(
      value & opt string "tokyo"
      & info [ "device" ] ~docv:"D"
          ~doc:
            "Target device name, resolved by the server (see $(b,satmap \
             devices)).")
  in
  let slice_size =
    Arg.(
      value
      & opt (some int) (Some 25)
      & info [ "slice-size" ] ~docv:"K" ~doc:"Gates per slice (sliced only).")
  in
  let n_unique =
    Arg.(
      value & opt int 8
      & info [ "unique" ] ~docv:"N" ~doc:"Distinct base circuits in the pool.")
  in
  let n_qubits =
    Arg.(
      value & opt int 6
      & info [ "qubits" ] ~docv:"N" ~doc:"Qubits per base circuit.")
  in
  let gates =
    Arg.(
      value & opt int 12
      & info [ "gates" ] ~docv:"N" ~doc:"Two-qubit gates per base circuit.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S" ~doc:"Schedule and circuit-pool seed.")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:"Request anytime progress lines and count them.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the result record as JSON.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Open-loop load generator for the socket server: Poisson \
          arrivals over a pool of base circuits with controllable \
          duplicate and qubit-rename fractions; reports latency \
          percentiles, throughput, and hit / coalesce rates.  Exits 1 if \
          any request went unanswered.")
    Term.(
      const loadgen_cmd_run $ target $ n $ rate $ dup $ rename $ connections
      $ timeout $ method_name $ device $ slice_size $ n_unique $ n_qubits
      $ gates $ seed $ stream $ json_out)

(* ------------------------------------------------------------------ *)
(* race *)

let race_cmd_run list_flag mutate corpus scenario seed n_seeds pct =
 guarded @@ fun () ->
  let policy =
    match pct with Some d -> Race.Explore.Pct d | None -> Race.Explore.Random_walk
  in
  let seeds =
    match seed with
    | Some s -> [ s ]
    | None ->
      if n_seeds = List.length Racecheck.Scenarios.default_seeds then
        Racecheck.Scenarios.default_seeds
      else List.init n_seeds (fun i -> i + 1)
  in
  let print_findings () =
    List.iter (Race.Report.pp stdout) (Race.Report.findings ())
  in
  if list_flag then begin
    Printf.printf "scenarios:\n";
    List.iter
      (fun (s : Racecheck.Scenarios.t) ->
        Printf.printf "  %s\n" s.Racecheck.Scenarios.s_name)
      Racecheck.Scenarios.all;
    Printf.printf "mutants:\n";
    List.iter
      (fun (m : Race.Mutations.info) ->
        Printf.printf "  %-26s %s (%s)\n" m.Race.Mutations.name
          m.Race.Mutations.description m.Race.Mutations.site)
      Race.Mutations.all
  end
  else if corpus then begin
    let r = Racecheck.Scenarios.run_corpus ~policy ~seeds () in
    let ok = ref (r.Racecheck.Scenarios.clean_findings = 0) in
    Printf.printf "clean corpus: %d findings\n"
      r.Racecheck.Scenarios.clean_findings;
    List.iter
      (fun (m : Racecheck.Scenarios.mutant_outcome) ->
        if not m.Racecheck.Scenarios.mo_caught then ok := false;
        Printf.printf "mutant %-26s %s\n" m.Racecheck.Scenarios.mo_name
          (if m.Racecheck.Scenarios.mo_caught then
             Printf.sprintf "caught (%d/%d seeds, kinds: %s)"
               (List.length m.Racecheck.Scenarios.mo_seeds)
               (List.length seeds)
               (String.concat "," m.Racecheck.Scenarios.mo_kinds)
           else "NOT caught"))
      r.Racecheck.Scenarios.mutants;
    if not !ok then exit exit_check_failure
  end
  else begin
    let scenarios =
      match scenario with
      | None -> Racecheck.Scenarios.all
      | Some name -> (
        match Racecheck.Scenarios.find name with
        | Some s -> [ s ]
        | None ->
          Format.eprintf "unknown scenario %S (use --list)@." name;
          exit exit_check_failure)
    in
    (match mutate with
    | None -> ()
    | Some name ->
      if not (Race.Mutations.activate name) then begin
        Format.eprintf "unknown mutant %S (use --list for the corpus)@." name;
        exit exit_check_failure
      end;
      Printf.printf "mutant: %s\n" name);
    let scenarios =
      match mutate with
      | Some name ->
        let sn = Racecheck.Scenarios.scenario_for_mutant name in
        [ Option.get (Racecheck.Scenarios.find sn) ]
      | None -> scenarios
    in
    Race.Explore.fresh ();
    List.iter
      (fun (s : Racecheck.Scenarios.t) ->
        Racecheck.Scenarios.run_scenario_sweep ~policy ~seeds s)
      scenarios;
    Race.Mutations.deactivate ();
    let n = Race.Report.count () in
    Printf.printf "scenarios: %s\nseeds: %s\nfindings: %d\n"
      (String.concat ", "
         (List.map (fun s -> s.Racecheck.Scenarios.s_name) scenarios))
      (String.concat ", " (List.map string_of_int seeds))
      n;
    print_findings ();
    Race.Explore.fresh ();
    if n > 0 then exit exit_check_failure
  end

let race_cmd =
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List the scenario corpus and the seeded race mutants, then \
                exit.")
  in
  let mutate =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"NAME"
          ~doc:
            "Activate the named seeded concurrency mutant and sweep its \
             scenario (validation mode: the detector is expected to flag \
             it and exit 3).")
  in
  let corpus =
    Arg.(
      value & flag
      & info [ "corpus" ]
          ~doc:
            "Run the full acceptance gate: every clean scenario must be \
             silent and every mutant must be caught.  Exit 3 otherwise.")
  in
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Restrict the sweep to one scenario (default: all).")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:"Run a single schedule seed (replay mode).")
  in
  let n_seeds =
    Arg.(
      value
      & opt int (List.length Racecheck.Scenarios.default_seeds)
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Number of schedule seeds to sweep per scenario.")
  in
  let pct =
    Arg.(
      value
      & opt (some int) None
      & info [ "pct" ] ~docv:"D"
          ~doc:
            "Use a PCT-style priority schedule of depth $(docv) instead \
             of the seeded random walk.")
  in
  Cmd.v
    (Cmd.info "race"
       ~doc:
         "Dynamically analyse the concurrent solver and serving tier: run \
          the scenario corpus under the controlled-schedule explorer with \
          a FastTrack-style happens-before detector and report every data \
          race with both stacks and its replay seed.  Exit code 3 on any \
          finding.")
    Term.(
      const race_cmd_run $ list_flag $ mutate $ corpus $ scenario $ seed
      $ n_seeds $ pct)

let main =
  Cmd.group
    (Cmd.info "satmap" ~version:"1.0.0"
       ~doc:"Qubit mapping and routing via MaxSAT (MICRO 2022 reproduction).")
    [
      route_cmd; lint_cmd; race_cmd; stats_cmd; export_cmd; devices_cmd;
      suite_cmd; serve_cmd; shard_router_cmd; loadgen_cmd;
    ]

let () = exit (Cmd.eval main)
