(* Tests for the dynamic race-analysis layer (lib/race): vector clocks,
   the FastTrack-style detector driven by hand, the controlled-schedule
   explorer's determinism, and the scenario corpus from lib/racecheck.

   The detector keeps global clock state keyed by tid, so every
   hand-driven test allocates fresh tids via [Race.Runtime.fresh_tid]
   instead of reusing small constants — tids are never recycled, which
   is exactly what makes this safe. *)

(* ------------------------------------------------------------------ *)
(* Vector clocks *)

let test_vc_basics () =
  let v = Race.Vc.create () in
  Alcotest.(check int) "fresh component is 0" 0 (Race.Vc.get v 3);
  Race.Vc.set v 3 7;
  Alcotest.(check int) "set/get" 7 (Race.Vc.get v 3);
  Race.Vc.tick v 3;
  Alcotest.(check int) "tick increments" 8 (Race.Vc.get v 3);
  Race.Vc.tick v 40;
  Alcotest.(check int) "tick grows the clock" 1 (Race.Vc.get v 40);
  Alcotest.(check (list (pair int int)))
    "to_list lists non-zero components ascending" [ (3, 8); (40, 1) ]
    (Race.Vc.to_list v)

let test_vc_join_covers () =
  let a = Race.Vc.create () and b = Race.Vc.create () in
  Race.Vc.set a 0 5;
  Race.Vc.set b 0 3;
  Race.Vc.set b 9 2;
  Race.Vc.join a b;
  Alcotest.(check int) "join keeps own max" 5 (Race.Vc.get a 0);
  Alcotest.(check int) "join imports other's components" 2 (Race.Vc.get a 9);
  Alcotest.(check bool) "covers within" true (Race.Vc.covers a ~tid:9 ~clk:2);
  Alcotest.(check bool) "covers below" true (Race.Vc.covers a ~tid:0 ~clk:4);
  Alcotest.(check bool)
    "does not cover beyond" false
    (Race.Vc.covers a ~tid:9 ~clk:3);
  Alcotest.(check bool)
    "does not cover unknown tid" false
    (Race.Vc.covers a ~tid:77 ~clk:1);
  let c = Race.Vc.copy a in
  Race.Vc.tick a 0;
  Alcotest.(check int) "copy is independent" 5 (Race.Vc.get c 0)

(* ------------------------------------------------------------------ *)
(* Hand-driven detector *)

(* Each case runs with instrumentation on, fresh findings store, and
   fresh tids. *)
let detector_case f =
  let was_on = Race.Runtime.on () in
  Race.Runtime.enable ();
  Race.Report.reset ();
  let t1 = Race.Runtime.fresh_tid () and t2 = Race.Runtime.fresh_tid () in
  Fun.protect
    ~finally:(fun () ->
      Race.Report.reset ();
      if not was_on then Race.Runtime.disable ())
    (fun () -> f t1 t2)

let kinds () =
  List.sort_uniq String.compare
    (List.map
       (fun f -> Race.Report.kind_name f.Race.Report.f_kind)
       (Race.Report.findings ()))

let test_detect_unordered_writes () =
  detector_case (fun t1 t2 ->
      let c = Race.Detect.make_cell "test.ww" in
      Race.Detect.on_access c ~tid:t1 Race.Detect.Write;
      Race.Detect.on_access c ~tid:t2 Race.Detect.Write;
      Alcotest.(check int) "one finding" 1 (Race.Report.count ());
      Alcotest.(check (list string)) "write-write" [ "write-write" ] (kinds ()))

let test_detect_lock_orders () =
  detector_case (fun t1 t2 ->
      let m = Race.Detect.fresh_sync () in
      let c = Race.Detect.make_cell "test.locked" in
      Race.Detect.acquire ~tid:t1 ~sync:m;
      Race.Detect.on_access c ~tid:t1 Race.Detect.Write;
      Race.Detect.release ~tid:t1 ~sync:m;
      Race.Detect.acquire ~tid:t2 ~sync:m;
      Race.Detect.on_access c ~tid:t2 Race.Detect.Write;
      Race.Detect.release ~tid:t2 ~sync:m;
      Alcotest.(check int) "no findings under a common lock" 0
        (Race.Report.count ()))

let test_detect_distinct_locks_race () =
  detector_case (fun t1 t2 ->
      let m1 = Race.Detect.fresh_sync ()
      and m2 = Race.Detect.fresh_sync () in
      let c = Race.Detect.make_cell "test.two_locks" in
      Race.Detect.acquire ~tid:t1 ~sync:m1;
      Race.Detect.on_access c ~tid:t1 Race.Detect.Write;
      Race.Detect.release ~tid:t1 ~sync:m1;
      Race.Detect.acquire ~tid:t2 ~sync:m2;
      Race.Detect.on_access c ~tid:t2 Race.Detect.Read;
      Race.Detect.release ~tid:t2 ~sync:m2;
      Alcotest.(check (list string))
        "different locks do not order" [ "write-read" ] (kinds ()))

let test_detect_fork_join_edges () =
  detector_case (fun parent child ->
      let c = Race.Detect.make_cell "test.forkjoin" in
      Race.Detect.on_access c ~tid:parent Race.Detect.Write;
      Race.Detect.fork ~parent ~child;
      Race.Detect.on_access c ~tid:child Race.Detect.Write;
      Race.Detect.join_edge ~tid:parent ~other:child;
      Race.Detect.on_access c ~tid:parent Race.Detect.Read;
      Alcotest.(check int) "fork and join order everything" 0
        (Race.Report.count ()))

let test_detect_read_before_join_races () =
  detector_case (fun parent child ->
      let c = Race.Detect.make_cell "test.nojoin" in
      Race.Detect.fork ~parent ~child;
      Race.Detect.on_access c ~tid:child Race.Detect.Write;
      Race.Detect.on_access c ~tid:parent Race.Detect.Read;
      Alcotest.(check (list string))
        "parent read races child write" [ "write-read" ] (kinds ()))

let test_detect_release_acquire_chain () =
  detector_case (fun t1 t2 ->
      let a = Race.Detect.fresh_sync () in
      let c = Race.Detect.make_cell "test.relacq" in
      Race.Detect.on_access c ~tid:t1 Race.Detect.Write;
      Race.Detect.release ~tid:t1 ~sync:a;
      (* atomic store *)
      Race.Detect.acquire ~tid:t2 ~sync:a;
      (* atomic load *)
      Race.Detect.on_access c ~tid:t2 Race.Detect.Read;
      Alcotest.(check int) "release/acquire publishes" 0 (Race.Report.count ()))

let test_detect_dedup_repeats () =
  detector_case (fun t1 t2 ->
      let c = Race.Detect.make_cell "test.dedup" in
      Race.Detect.on_access c ~tid:t1 Race.Detect.Write;
      Race.Detect.on_access c ~tid:t2 Race.Detect.Write;
      Race.Detect.on_access c ~tid:t1 Race.Detect.Write;
      Race.Detect.on_access c ~tid:t2 Race.Detect.Write;
      Alcotest.(check int) "same (kind, object) dedups" 1
        (Race.Report.count ());
      match Race.Report.findings () with
      | [ f ] ->
        Alcotest.(check bool) "repeats counted" true (f.Race.Report.f_repeats >= 1)
      | fs ->
        Alcotest.fail (Printf.sprintf "expected 1 finding, got %d"
             (List.length fs)))

let test_passthrough_off () =
  (* With the runtime off, shims and cells must not feed the detector. *)
  let was_on = Race.Runtime.on () in
  Race.Runtime.disable ();
  Race.Report.reset ();
  let before = Race.Detect.events () in
  let cell = Race.Cell.make ~name:"test.passthrough" 0 in
  Race.Cell.set cell 1;
  ignore (Race.Cell.get cell);
  let m = Race.Sync.Mutex.create ~name:"test.passthrough.m" () in
  Race.Sync.Mutex.protect m (fun () -> ());
  Alcotest.(check int) "no detector events while off" before
    (Race.Detect.events ());
  Alcotest.(check int) "no findings while off" 0 (Race.Report.count ());
  if was_on then Race.Runtime.enable ()

(* ------------------------------------------------------------------ *)
(* Explorer determinism and policies *)

let scenario name =
  match Racecheck.Scenarios.find name with
  | Some s -> s.Racecheck.Scenarios.s_run
  | None -> Alcotest.fail ("missing scenario " ^ name)

let test_explore_replay_deterministic () =
  Race.Explore.fresh ();
  let run seed = Race.Explore.run ~seed (scenario "cache") in
  let a = run 5 and b = run 5 in
  Alcotest.(check int) "same steps" a.Race.Explore.o_steps
    b.Race.Explore.o_steps;
  Alcotest.(check int) "same schedule fingerprint"
    a.Race.Explore.o_fingerprint b.Race.Explore.o_fingerprint;
  Alcotest.(check int) "clean scenario, no findings" 0
    (Race.Report.count ());
  Race.Explore.fresh ()

let test_explore_seeds_diverge () =
  Race.Explore.fresh ();
  let fp seed =
    (Race.Explore.run ~seed (scenario "pool")).Race.Explore.o_fingerprint
  in
  let distinct =
    List.sort_uniq compare (List.map fp [ 1; 2; 3; 4; 5; 6 ])
  in
  Alcotest.(check bool) "seeds explore distinct schedules" true
    (List.length distinct > 1);
  Race.Explore.fresh ()

let test_explore_pct_clean () =
  Race.Explore.fresh ();
  let o =
    Race.Explore.run ~policy:(Race.Explore.Pct 3) ~seed:11
      (scenario "single-flight")
  in
  Alcotest.(check int) "PCT run is clean" 0 o.Race.Explore.o_findings;
  Alcotest.(check bool) "PCT run took steps" true (o.Race.Explore.o_steps > 0);
  Race.Explore.fresh ()

(* ------------------------------------------------------------------ *)
(* Mutants: one spot check per subsystem (the full eight-mutant corpus is
   the bench/race_smoke gate; tests keep to a fast subset). *)

let mutant_caught name =
  let sname = Racecheck.Scenarios.scenario_for_mutant name in
  Alcotest.(check bool) ("mutant exists: " ^ name) true
    (Race.Mutations.activate name);
  Race.Explore.fresh ();
  let caught =
    List.exists
      (fun seed ->
        ignore (Race.Explore.run ~seed (scenario sname));
        Race.Report.count () > 0)
      [ 1; 2; 3 ]
  in
  Race.Mutations.deactivate ();
  Race.Explore.fresh ();
  caught

let test_mutant_cache () =
  Alcotest.(check bool) "cache-unlocked-hit flagged" true
    (mutant_caught "cache-unlocked-hit")

let test_mutant_single_flight () =
  Alcotest.(check bool) "flight-publish-unlocked flagged" true
    (mutant_caught "flight-publish-unlocked")

let test_mutant_admission () =
  Alcotest.(check bool) "admission-unlocked-ewma flagged" true
    (mutant_caught "admission-unlocked-ewma")

(* Regression for the progress/publish wire-ordering fix: the clean
   single-flight scenario runs a streamer and a publisher concurrently;
   the old code read the progress-sink list under the wrong lock, and
   the detector flagged it.  The fixed code must stay silent on every
   seed. *)
let test_single_flight_progress_publish_clean () =
  Race.Explore.fresh ();
  List.iter
    (fun seed -> ignore (Race.Explore.run ~seed (scenario "single-flight")))
    [ 1; 2; 3; 5; 8 ];
  Alcotest.(check int) "progress vs publish is ordered" 0
    (Race.Report.count ());
  Race.Explore.fresh ()

(* ------------------------------------------------------------------ *)
(* Composition with the invariant sanitizer (SATMAP_SANITIZE) *)

let test_race_and_sanitize_compose () =
  let was_on = Race.Runtime.on () in
  Race.Runtime.enable ();
  Race.Report.reset ();
  Fun.protect
    ~finally:(fun () ->
      Race.Report.reset ();
      if not was_on then Race.Runtime.disable ())
    (fun () ->
      (* A sanitized solve with the race instrumentation on: both
         layers live at once, neither trips. *)
      let s = Sat.Solver.create ~sanitize:true () in
      Alcotest.(check bool) "sanitizer armed" true
        (Sat.Solver.sanitize_enabled s);
      let v = Array.init 4 (fun _ -> Sat.Solver.new_var s) in
      for i = 0 to 2 do
        Sat.Solver.add_clause s
          [ Sat.Lit.of_var ~sign:false v.(i); Sat.Lit.of_var v.(i + 1) ]
      done;
      Sat.Solver.add_clause s [ Sat.Lit.of_var v.(0) ];
      (match Sat.Solver.solve s with
      | Sat.Solver.Sat -> ()
      | Sat.Solver.Unsat | Sat.Solver.Unknown ->
        Alcotest.fail "chain should be SAT");
      Sat.Solver.sanitize_check s;
      Alcotest.(check int) "no race findings from a sanitized solve" 0
        (Race.Report.count ()))

let () =
  Alcotest.run "race"
    [
      ( "vc",
        [
          Alcotest.test_case "basics" `Quick test_vc_basics;
          Alcotest.test_case "join and covers" `Quick test_vc_join_covers;
        ] );
      ( "detector",
        [
          Alcotest.test_case "unordered writes race" `Quick
            test_detect_unordered_writes;
          Alcotest.test_case "common lock orders" `Quick
            test_detect_lock_orders;
          Alcotest.test_case "distinct locks race" `Quick
            test_detect_distinct_locks_race;
          Alcotest.test_case "fork/join edges" `Quick
            test_detect_fork_join_edges;
          Alcotest.test_case "read before join races" `Quick
            test_detect_read_before_join_races;
          Alcotest.test_case "release/acquire chain" `Quick
            test_detect_release_acquire_chain;
          Alcotest.test_case "findings dedup" `Quick test_detect_dedup_repeats;
          Alcotest.test_case "passthrough when off" `Quick
            test_passthrough_off;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "seed replay deterministic" `Quick
            test_explore_replay_deterministic;
          Alcotest.test_case "seeds diverge" `Quick test_explore_seeds_diverge;
          Alcotest.test_case "PCT policy clean" `Quick test_explore_pct_clean;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "cache mutant flagged" `Quick test_mutant_cache;
          Alcotest.test_case "single-flight mutant flagged" `Quick
            test_mutant_single_flight;
          Alcotest.test_case "admission mutant flagged" `Quick
            test_mutant_admission;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "progress/publish ordering" `Quick
            test_single_flight_progress_publish_clean;
          Alcotest.test_case "race + sanitize compose" `Quick
            test_race_and_sanitize_compose;
        ] );
    ]
