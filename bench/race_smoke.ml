(* Race-layer smoke: the acceptance gate for the dynamic analysis.

   1. The clean scenario corpus must report zero findings on every seed
      (random walk and PCT).
   2. Every seeded race mutant must be flagged by the detector under
      the explorer, with at least one replayable seed.
   3. Same seed, same scenario => same schedule: the explorer must be
      deterministic.

   Exit status 0 iff all three hold. *)

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if ok then Printf.printf "ok   %s\n%!" msg
      else begin
        incr failures;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

let () =
  (* 1 + 2: full corpus under the default random-walk policy. *)
  let r = Racecheck.Scenarios.run_corpus () in
  check (r.Racecheck.Scenarios.clean_findings = 0)
    "clean corpus: %d findings (want 0)" r.Racecheck.Scenarios.clean_findings;
  List.iter
    (fun (m : Racecheck.Scenarios.mutant_outcome) ->
      check m.Racecheck.Scenarios.mo_caught "mutant %-28s via %-18s %s"
        m.Racecheck.Scenarios.mo_name m.Racecheck.Scenarios.mo_scenario
        (if m.Racecheck.Scenarios.mo_caught then
           Printf.sprintf "caught on %d/%d seeds [%s] (replay seed %d)"
             (List.length m.Racecheck.Scenarios.mo_seeds)
             (List.length Racecheck.Scenarios.default_seeds)
             (String.concat "," m.Racecheck.Scenarios.mo_kinds)
             (List.hd m.Racecheck.Scenarios.mo_seeds)
         else "NOT caught on any seed"))
    r.Racecheck.Scenarios.mutants;
  (* Clean corpus under PCT as well. *)
  Race.Explore.fresh ();
  List.iter
    (fun s ->
      Racecheck.Scenarios.run_scenario_sweep ~policy:(Race.Explore.Pct 3)
        ~seeds:[ 7; 11; 19 ] s)
    Racecheck.Scenarios.all;
  check (Race.Report.count () = 0) "clean corpus under PCT: %d findings (want 0)"
    (Race.Report.count ());
  (* 3: schedule determinism — an identical seed must replay the exact
     same schedule (fingerprint hashes every scheduling decision), and a
     spread of seeds must reach more than one schedule. *)
  Race.Explore.fresh ();
  let scenario = Option.get (Racecheck.Scenarios.find "single-flight") in
  let fingerprint seed =
    let o = Race.Explore.run ~seed scenario.Racecheck.Scenarios.s_run in
    (o.Race.Explore.o_steps, o.Race.Explore.o_fingerprint)
  in
  let a1 = fingerprint 42 and a2 = fingerprint 42 in
  check (a1 = a2) "deterministic replay: seed 42 -> schedule %08x twice"
    (snd a1);
  let distinct =
    List.sort_uniq compare
      (List.map (fun s -> snd (fingerprint s)) [ 40; 41; 42; 43; 44; 45 ])
  in
  check
    (List.length distinct > 1)
    "seed sweep explores %d distinct schedules over 6 seeds"
    (List.length distinct);
  Race.Explore.fresh ();
  if !failures > 0 then begin
    Printf.printf "race-smoke: %d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "race-smoke: all checks passed"
