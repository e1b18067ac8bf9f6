(* Golden search trajectories of the CDCL core.

   The numbers below were recorded from the solver as it stood before its
   hot data layout (watch lists, reasons, trail, analysis scratch, VSIDS
   heap) was reworked for speed.  That rework promised to change no search
   decision, so every figure must still come back exactly: per solve the
   result, conflicts, decisions, propagations, and learnt and deleted
   clauses; per route the same counters summed over its solves, and an MD5
   of the routed circuit.  A kernel change that drifts any of them changes
   the search, not just its speed, and must say so by re-recording.  A
   second layout rework, which moved every clause into one flat integer
   arena (crefs in watchers, reasons and clause lists, with compaction),
   kept every row; the compaction row below was recorded before it.

   The [route] rows use the free placement, so the router's default
   slice-0 pin does not move them.  One route row was re-recorded for a
   router change that kept the search: the zero-swap shortcut answers two
   of adder-12q-098's blocks, each a single zero-conflict solve before, so
   that route makes 52 solves instead of 54 with fewer decisions and
   propagations; its conflicts, learnt, deleted and MD5 are unchanged.
   A second, local-5q-078, was re-recorded for the free-block lower bound:
   its free slice 0 does not embed in tokyo, so that block's descent
   stops at its first one-SWAP model without refuting zero, and the
   skipped refutation leaves the shared solver in a different state for
   block 1, which then picks another optimum among ties (11 solves and a
   new MD5, from 17 solves).

   A second group pins every configuration of the router's block walk the
   routes above do not reach: the default slice-0 placement pin, the
   cyclic relaxation sliced and unsliced (once with a tied last block that
   escalates its budget, once with seam backtracking), and the monolithic
   route.  Its rows were recorded before the four copies of the walk
   became one, a refactor that promised to keep every search.  The row
   for serve-pool circuit 1 (a monolithic route whose graph does not
   embed in tokyo) was recorded before the free-block lower bound landed,
   at 13 solves; the bound keeps its MD5 and drops exactly one solve, the
   refutation of zero SWAPs, with the conflicts that refutation cost. *)

let lit ?sign v = Sat.Lit.of_var ?sign v

(* result, conflicts, decisions, propagations, learnt, deleted *)
type solve_record = string * int * int * int * int * int

let result_name = function
  | Sat.Solver.Sat -> "sat"
  | Sat.Solver.Unsat -> "unsat"
  | Sat.Solver.Unknown -> "unknown"

let record_solve ?assumptions s : solve_record =
  let b = Sat.Solver.copy_stats (Sat.Solver.stats s) in
  let r = Sat.Solver.solve ?assumptions s in
  let a = Sat.Solver.stats s in
  ( result_name r,
    a.conflicts - b.conflicts,
    a.decisions - b.decisions,
    a.propagations - b.propagations,
    a.learnt_clauses - b.learnt_clauses,
    a.deleted_clauses - b.deleted_clauses )

let show_record ((r, c, d, p, l, x) : solve_record) =
  Printf.sprintf "(%S, %d, %d, %d, %d, %d)" r c d p l x

let of_show show =
  Alcotest.testable (fun ppf x -> Format.pp_print_string ppf (show x)) ( = )

let records = Alcotest.list (of_show show_record)

(* ------------------------------------------------------------------ *)
(* CNF corpus *)

let pigeonhole ~pigeons ~holes =
  let s = Sat.Solver.create () in
  let var p h = (holes * p) + h in
  for _ = 1 to pigeons * holes do
    ignore (Sat.Solver.new_var s)
  done;
  for p = 0 to pigeons - 1 do
    Sat.Solver.add_clause s (List.init holes (fun h -> lit (var p h)))
  done;
  for h = 0 to holes - 1 do
    for p = 0 to pigeons - 1 do
      for p' = p + 1 to pigeons - 1 do
        Sat.Solver.add_clause s
          [ lit ~sign:false (var p h); lit ~sign:false (var p' h) ]
      done
    done
  done;
  s

let test_php () =
  let s = pigeonhole ~pigeons:7 ~holes:6 in
  Alcotest.check records "php(7,6)"
    [ ("unsat", 652, 792, 7973, 651, 0) ]
    [ record_solve s ]

(* Random 3-CNF near the satisfiability threshold (4.2 clauses per
   variable), solved repeatedly in one solver under changing assumption
   sets, so learnt clauses, saved phases and reductions carry across
   solves as they do in a MaxSAT descent. *)
let random_3cnf ~seed ~vars ~clauses =
  let rng = Rng.create seed in
  let s = Sat.Solver.create () in
  for _ = 1 to vars do
    ignore (Sat.Solver.new_var s)
  done;
  for _ = 1 to clauses do
    Sat.Solver.add_clause s
      (List.init 3 (fun _ -> lit ~sign:(Rng.bool rng) (Rng.int rng vars)))
  done;
  (s, rng)

(* Six solves under 0, 2, ..., 10 random assumptions; returns their
   records and the solver.  [density] is clauses per ten variables, and
   [first]/[inc] the reduce_db schedule. *)
let random_trajectory ?(vars = 150) ?(density = 40) ?(first = 150)
    ?(inc = 50) ~seed () =
  let s, rng = random_3cnf ~seed ~vars ~clauses:(density * vars / 10) in
  Sat.Solver.set_reduce_db_params s ~first ~inc;
  let rows =
    List.init 6 (fun k ->
        let assumptions =
          List.init (2 * k) (fun _ ->
              lit ~sign:(Rng.bool rng) (Rng.int rng vars))
        in
        record_solve ~assumptions s)
  in
  (rows, s)

let test_random seed expected () =
  Alcotest.check records
    (Printf.sprintf "random 3-CNF seed %d" seed)
    expected
    (fst (random_trajectory ~seed ()))

(* A compaction-heavy search: a reduction pass every 64 conflicts evicts
   most learnt clauses as they age, so the clause store turns over many
   times and must compact while watchers and reasons point into it.  The
   row was recorded from the solver that kept one heap record per clause;
   the solver now also reports how often it compacted its clause arena,
   and the row must both compact and come back exactly. *)
let test_compaction seed expected () =
  let rows, s =
    random_trajectory ~vars:200 ~density:42 ~first:64 ~inc:0 ~seed ()
  in
  Alcotest.check records
    (Printf.sprintf "compaction-heavy 3-CNF seed %d" seed)
    expected rows;
  if (Sat.Solver.stats s).compactions < 1 then
    Alcotest.failf "seed %d: the clause arena never compacted" seed

(* ------------------------------------------------------------------ *)
(* Sliced routes on tokyo through an incremental encoding session *)

let m_solves = Obs.Metrics.counter "sat.solves"

let suite_circuit name =
  (List.find
     (fun (b : Workloads.Suite.benchmark) -> b.name = name)
     (Workloads.Suite.full ()))
    .circuit

let qaoa_body ~n ~seed =
  Qaoa.Build.body (fst (Qaoa.Build.maxcut_3_regular ~seed ~n ~cycles:1))

(* The free placement: the kernel rows guard the CDCL kernel, not the
   router's default slice-0 pin. *)
let free_config =
  {
    Satmap.Router.default_config with
    timeout = 300.0;
    placement = Satmap.Router.Free;
  }

let default_config = { Satmap.Router.default_config with timeout = 300.0 }

let route_trajectory ~config route =
  Alcotest.(check bool) "session path" true
    (Satmap.Router.session_for config <> None);
  let solves0 = Obs.Metrics.value m_solves in
  let t0 = Sat.Solver.totals () in
  let outcome = route config in
  let d = Sat.Solver.sub_totals (Sat.Solver.totals ()) t0 in
  match outcome with
  | Satmap.Router.Failed msg -> Alcotest.failf "%s" msg
  | Satmap.Router.Routed (routed, _) ->
    ( Digest.to_hex
        (Digest.string (Quantum.Qasm.to_string (Satmap.Routed.circuit routed))),
      ( Obs.Metrics.value m_solves - solves0,
        d.total_conflicts,
        d.total_decisions,
        d.total_propagations,
        d.total_learnts,
        d.total_deleted ) )

let test_route ~config route name expected () =
  let digest, counts = route_trajectory ~config route in
  let show (md5, (n, c, dd, p, l, x)) =
    Printf.sprintf "(%S, (%d, %d, %d, %d, %d, %d))" md5 n c dd p l x
  in
  Alcotest.check (of_show show)
    name expected (digest, counts)

(* Seven logical qubits on seven physical ones: sliced at one gate, the
   tied last block cannot reach block 0's initial map, and the walk
   backtracks four times. *)
let backtracking_body =
  let cx = Quantum.Gate.cx in
  Quantum.Circuit.create ~n_qubits:7
    [ cx 4 5; cx 6 3; cx 0 5; cx 6 4; cx 3 4; cx 6 1; cx 6 2 ]

let sliced_tokyo name config =
  Satmap.Router.route_sliced ~config ~slice_size:10
    (Arch.Topologies.tokyo ()) (suite_circuit name)

let () =
  Alcotest.run "trajectory"
    [
      ("cnf", [ Alcotest.test_case "php(7,6)" `Quick test_php ]);
      ( "random",
        List.map
          (fun (seed, expected) ->
            Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick
              (test_random seed expected))
          [
            ( 1,
              [
                ("sat", 334, 448, 10899, 334, 74);
                ("unsat", 544, 661, 17580, 544, 328);
                ("sat", 233, 301, 7902, 233, 247);
                ("unsat", 85, 99, 2602, 85, 0);
                ("unsat", 117, 148, 3423, 117, 296);
                ("unsat", 81, 96, 2360, 81, 0);
              ] );
            ( 2,
              [
                ("sat", 64, 98, 1976, 64, 0);
                ("sat", 60, 107, 1891, 60, 0);
                ("sat", 132, 194, 4146, 132, 73);
                ("sat", 208, 272, 7337, 208, 136);
                ("unsat", 75, 103, 2253, 75, 0);
                ("unsat", 0, 0, 7, 0, 0);
              ] );
            ( 3,
              [
                ("sat", 312, 407, 10396, 312, 72);
                ("sat", 0, 18, 150, 0, 0);
                ("unsat", 287, 332, 9510, 287, 137);
                ("unsat", 430, 509, 14784, 430, 438);
                ("unsat", 31, 32, 1040, 31, 0);
                ("unsat", 0, 0, 5, 0, 0);
              ] );
          ] );
      ( "compaction",
        [
          Alcotest.test_case "seed 6" `Quick
            (test_compaction 6
               [
                 ("sat", 2571, 3319, 100683, 2571, 2364);
                 ("sat", 9326, 11617, 367688, 9326, 8963);
                 ("sat", 0, 34, 200, 0, 0);
                 ("unsat", 1008, 1240, 39121, 1008, 998);
                 ("unsat", 227, 282, 8426, 227, 255);
                 ("unsat", 478, 575, 18320, 478, 439);
               ]);
        ] );
      ( "route",
        List.map
          (fun (name, expected) ->
            Alcotest.test_case name `Quick
              (test_route ~config:free_config (sliced_tokyo name) name
                 expected))
          [
            ( "local-5q-078",
              ( "c16dbb3233f6951db13bbbed0f59f2ff",
                (11, 260, 5529, 175416, 260, 0) ) );
            ( "toffoli-9q-116",
              ( "73e1126cfa718d5f835cf7fc40bcbe9f",
                (45, 1702, 18749, 1213513, 1702, 0) ) );
            ( "adder-12q-098",
              ( "725ebb83a33efc5a393ec5f89df2b2ac",
                (52, 2554, 22777, 2436760, 2554, 998) ) );
          ] );
      ( "walk",
        List.map
          (fun (name, route, expected) ->
            Alcotest.test_case name `Quick
              (test_route ~config:default_config route name expected))
          [
            ( "qap toffoli-9q-116",
              sliced_tokyo "toffoli-9q-116",
              ( "e93437f5c78409785056358bffb2b688",
                (35, 1336, 13504, 856661, 1336, 0) ) );
            ( "cyclic sliced qaoa-10q-g5",
              (fun config ->
                Satmap.Router.route_cyclic_body ~config ~slice_size:10
                  ~repetitions:2 (Arch.Topologies.tokyo ())
                  (qaoa_body ~n:10 ~seed:5)),
              ( "884cdeb5ac620572817040cee4ea2ab7",
                (13, 520, 7190, 348143, 520, 0) ) );
            (* The last, tied block escalates its budget, and its post
               slots with it. *)
            ( "cyclic sliced qaoa-8q-g3",
              (fun config ->
                Satmap.Router.route_cyclic_body ~config ~slice_size:10
                  ~repetitions:2 (Arch.Topologies.tokyo ())
                  (qaoa_body ~n:8 ~seed:3)),
              ( "e25b053ca4afe0cbb5f231e5f24d6066",
                (14, 583, 7563, 280416, 583, 0) ) );
            ( "cyclic qaoa-6q-g2 ring-6",
              (fun config ->
                Satmap.Router.route_cyclic_body ~config ~repetitions:2
                  (Arch.Topologies.ring 6) (qaoa_body ~n:6 ~seed:2)),
              ( "12587041d43993251b68507870febf40",
                (5, 3682, 5177, 740769, 3682, 996) ) );
            ( "cyclic backtracking ring-7",
              (fun config ->
                Satmap.Router.route_cyclic_body ~config ~slice_size:1
                  ~repetitions:2 (Arch.Topologies.ring 7) backtracking_body),
              ( "ceb0c8583c052aac3921765744133be9",
                (36, 459, 648, 48777, 459, 0) ) );
            ( "monolithic serve-pool-1 tokyo",
              (fun config ->
                Satmap.Router.route_monolithic ~config
                  (Arch.Topologies.tokyo ())
                  (Workloads.Generators.local_random
                     (Rng.create ((42 * 7919) + 1))
                     ~n:6 ~gates:12 ~locality:0.8)),
              ( "1433036be7fc5ae8a550eb8ef6bc7246",
                (12, 691, 10171, 545708, 691, 0) ) );
            ( "monolithic bv-5q-123 ring-6",
              (fun config ->
                Satmap.Router.route_monolithic ~config (Arch.Topologies.ring 6)
                  (suite_circuit "bv-5q-123")),
              ( "a9f0babd5f893be0dff836839aeb9f89",
                (5, 3205, 4164, 491903, 3205, 996) ) );
          ] );
    ]
