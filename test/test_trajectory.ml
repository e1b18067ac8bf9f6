(* Golden search trajectories of the CDCL core.

   The numbers below were recorded from the solver as it stood before its
   hot data layout (watch lists, reasons, trail, analysis scratch, VSIDS
   heap) was reworked for speed.  That rework promised to change no search
   decision, so every figure must still come back exactly: per solve the
   result, conflicts, decisions, propagations, and learnt and deleted
   clauses; per route the same counters summed over its solves, and an MD5
   of the routed circuit.  A kernel change that drifts any of them changes
   the search, not just its speed, and must say so by re-recording.

   The routes use the free placement, so the router's default slice-0 pin
   does not move them.  One route row was re-recorded for a router change
   that kept the search: the zero-swap shortcut answers two of
   adder-12q-098's blocks, each a single zero-conflict solve before, so
   that route makes 52 solves instead of 54 with fewer decisions and
   propagations; its conflicts, learnt, deleted and MD5 are unchanged. *)

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

let random_trajectory ~seed =
  let vars = 150 in
  let s, rng = random_3cnf ~seed ~vars ~clauses:(40 * vars / 10) in
  Sat.Solver.set_reduce_db_params s ~first:150 ~inc:50;
  List.init 6 (fun k ->
      let assumptions =
        List.init (2 * k) (fun _ -> lit ~sign:(Rng.bool rng) (Rng.int rng vars))
      in
      record_solve ~assumptions s)

let test_random seed expected () =
  Alcotest.check records
    (Printf.sprintf "random 3-CNF seed %d" seed)
    expected (random_trajectory ~seed)

(* ------------------------------------------------------------------ *)
(* Sliced routes on tokyo through an incremental encoding session *)

let m_solves = Obs.Metrics.counter "sat.solves"

let route_trajectory name =
  let b =
    List.find
      (fun (b : Workloads.Suite.benchmark) -> b.name = name)
      (Workloads.Suite.full ())
  in
  let device = Arch.Topologies.tokyo () in
  (* The free placement: the test guards the CDCL kernel, not the
     router's default slice-0 pin. *)
  let config =
    {
      Satmap.Router.default_config with
      timeout = 300.0;
      placement = Satmap.Router.Free;
    }
  in
  Alcotest.(check bool) "session path" true
    (Satmap.Router.session_for config <> None);
  let solves0 = Obs.Metrics.value m_solves in
  let t0 = Sat.Solver.totals () in
  let outcome =
    Satmap.Router.route_sliced ~config ~slice_size:10 device b.circuit
  in
  let d = Sat.Solver.sub_totals (Sat.Solver.totals ()) t0 in
  match outcome with
  | Satmap.Router.Failed msg -> Alcotest.failf "%s: %s" name msg
  | Satmap.Router.Routed (routed, _) ->
    ( Digest.to_hex
        (Digest.string (Quantum.Qasm.to_string (Satmap.Routed.circuit routed))),
      ( Obs.Metrics.value m_solves - solves0,
        d.total_conflicts,
        d.total_decisions,
        d.total_propagations,
        d.total_learnts,
        d.total_deleted ) )

let test_route name expected () =
  let digest, counts = route_trajectory name in
  let show (md5, (n, c, dd, p, l, x)) =
    Printf.sprintf "(%S, (%d, %d, %d, %d, %d, %d))" md5 n c dd p l x
  in
  Alcotest.check (of_show show)
    name expected (digest, counts)

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
      ( "route",
        List.map
          (fun (name, expected) ->
            Alcotest.test_case name `Quick (test_route name expected))
          [
            ( "local-5q-078",
              ( "398ff3873b97c4ec82fdfc5d83f0607b",
                (17, 945, 9430, 538786, 945, 0) ) );
            ( "toffoli-9q-116",
              ( "73e1126cfa718d5f835cf7fc40bcbe9f",
                (45, 1702, 18749, 1213513, 1702, 0) ) );
            ( "adder-12q-098",
              ( "725ebb83a33efc5a393ec5f89df2b2ac",
                (52, 2554, 22777, 2436760, 2554, 998) ) );
          ] );
    ]
