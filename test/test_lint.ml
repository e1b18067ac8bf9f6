(* Tests for the static-analysis stack: the lint report plumbing, the
   standalone unit-propagation engine, the generic CNF/WCNF rules, the
   insertion-sanitizing sink, cardinality-encoding hygiene, the
   SATMAP-aware encoding pass with its seeded mutation corpus, and the
   CDCL invariant sanitizer. *)

module R = Lint.Report
module Up = Lint.Unit_prop
module CL = Lint.Cnf_lint

let lit ?(sign = true) v = Sat.Lit.of_var ~sign v
let nlit v = lit ~sign:false v

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report_basics () =
  let r = R.empty in
  Alcotest.(check bool) "empty is clean" true (R.is_clean r);
  let r = R.add r R.Info ~rule:"a" "note" in
  let r = R.addf r R.Warning ~rule:"b" "warn %d" 1 in
  let r = R.add r R.Error ~rule:"b" "boom" in
  Alcotest.(check int) "count" 3 (R.count r);
  Alcotest.(check int) "warning+" 2 (R.count_at_least R.Warning r);
  Alcotest.(check int) "error+" 1 (R.count_at_least R.Error r);
  Alcotest.(check bool) "has b" true (R.has_rule r "b");
  Alcotest.(check int) "by_rule b" 2 (List.length (R.by_rule r "b"));
  Alcotest.(check bool) "not clean" false (R.is_clean r);
  Alcotest.(check bool) "clean above errors?" false
    (R.is_clean ~at_least:R.Error r);
  Alcotest.(check string) "summary" "1 errors, 1 warnings, 1 notes"
    (R.summary r);
  let order = List.map (fun f -> f.R.rule) (R.findings r) in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "b" ] order;
  let merged = R.concat [ r; R.add R.empty R.Info ~rule:"c" "x" ] in
  Alcotest.(check (list string)) "concat order" [ "a"; "b"; "b"; "c" ]
    (List.map (fun f -> f.R.rule) (R.findings merged))

(* ------------------------------------------------------------------ *)
(* Unit propagation *)

let check_outcome = Alcotest.testable
    (fun fmt o ->
      Format.pp_print_string fmt
        (match o with Up.Conflict -> "conflict" | Up.Consistent -> "consistent"))
    ( = )

let test_up_propagation () =
  (* a -> b -> c chain. *)
  let up = Up.create ~n_vars:3 [ [ nlit 0; lit 1 ]; [ nlit 1; lit 2 ] ] in
  Alcotest.check check_outcome "consistent" Up.Consistent (Up.probe up [ lit 0 ]);
  Alcotest.(check int) "c derived" 1 (Up.value up (lit 2));
  Alcotest.(check int) "b derived" 1 (Up.value up (lit 1));
  Alcotest.check check_outcome "reset leaves no residue" Up.Consistent
    (Up.probe up []);
  Alcotest.(check int) "c undefined again" (-1) (Up.value up (lit 2));
  Alcotest.(check bool) "implies" true (Up.implies up [ lit 0 ] (lit 2));
  Alcotest.(check bool) "no reverse implication" false
    (Up.implies up [ lit 2 ] (lit 0))

let test_up_conflict () =
  let up =
    Up.create ~n_vars:3 [ [ nlit 0; lit 1 ]; [ nlit 1; lit 2 ]; [ nlit 2 ] ]
  in
  Alcotest.check check_outcome "refuted" Up.Conflict (Up.probe up [ lit 0 ]);
  Alcotest.(check bool) "refutes" true (Up.refutes up [ lit 0 ]);
  Alcotest.(check bool) "vacuous implication" true
    (Up.implies up [ lit 0 ] (lit 1));
  (* Contradictory assumptions conflict without any clauses. *)
  let up2 = Up.create ~n_vars:1 [] in
  Alcotest.check check_outcome "contradictory assumptions" Up.Conflict
    (Up.probe up2 [ lit 0; nlit 0 ])

(* Regression: a probe that ends in a conflict mid-assignment must not
   skew the clause counters for later probes (the counter updates have to
   complete before the conflict propagates). *)
let test_up_reset_after_conflict () =
  let clauses =
    [ [ nlit 0; lit 1 ]; [ nlit 1; lit 2 ]; [ nlit 2; nlit 0 ]; [ lit 3; lit 4 ] ]
  in
  let up = Up.create ~n_vars:5 clauses in
  for _ = 1 to 100 do
    Alcotest.check check_outcome "conflicting probe" Up.Conflict
      (Up.probe up [ lit 0 ]);
    Alcotest.check check_outcome "clean probe" Up.Consistent
      (Up.probe up [ nlit 0; nlit 3 ]);
    Alcotest.(check int) "derivation intact" 1 (Up.value up (lit 4))
  done

let test_up_edge_cases () =
  (* Tautologies constrain nothing. *)
  let up = Up.create ~n_vars:2 [ [ lit 0; nlit 0 ] ] in
  Alcotest.check check_outcome "tautology ignored" Up.Consistent
    (Up.probe up [ nlit 0 ]);
  (* Unit clauses are asserted on every probe. *)
  let up = Up.create ~n_vars:2 [ [ lit 0 ]; [ nlit 0; lit 1 ] ] in
  Alcotest.check check_outcome "units propagate" Up.Consistent (Up.probe up []);
  Alcotest.(check int) "unit consequence" 1 (Up.value up (lit 1));
  (* The empty clause refutes everything. *)
  let up = Up.create ~n_vars:1 [ [] ] in
  Alcotest.check check_outcome "empty clause" Up.Conflict (Up.probe up []);
  (* Out-of-range literals extend the range instead of raising. *)
  let up = Up.create ~n_vars:1 [ [ nlit 7; lit 0 ] ] in
  Alcotest.(check int) "range extended" 8 (Up.n_vars up);
  Alcotest.check check_outcome "extended probe" Up.Consistent
    (Up.probe up [ lit 7 ]);
  Alcotest.(check int) "propagates into extension" 1 (Up.value up (lit 0))

(* ------------------------------------------------------------------ *)
(* Generic CNF/WCNF rules *)

let check_cnf ?expect_sat ~n_vars hard = CL.check_cnf ?expect_sat ~n_vars hard

let test_rule_out_of_range () =
  let r = check_cnf ~n_vars:1 [ [ lit 5 ] ] in
  Alcotest.(check bool) "flagged" true (R.has_rule r CL.rule_out_of_range);
  Alcotest.(check bool) "is error" true (R.count_at_least R.Error r >= 1)

let test_rule_empty_hard () =
  let r = check_cnf ~n_vars:1 [ []; [ lit 0 ] ] in
  Alcotest.(check bool) "flagged" true (R.has_rule r CL.rule_empty_hard)

let test_rule_level0 () =
  let hard = [ [ lit 0 ]; [ nlit 0 ] ] in
  let r = check_cnf ~n_vars:1 hard in
  let errors =
    List.filter (fun f -> f.R.severity = R.Error) (R.by_rule r CL.rule_level0_conflict)
  in
  Alcotest.(check int) "error when expected sat" 1 (List.length errors);
  let r = check_cnf ~expect_sat:false ~n_vars:1 hard in
  let findings = R.by_rule r CL.rule_level0_conflict in
  Alcotest.(check bool) "info when expected" true
    (List.for_all (fun f -> f.R.severity = R.Info) findings)

let test_rule_soft_hygiene () =
  let r =
    CL.check ~n_vars:2
      ~hard:[ [ lit 0; nlit 1 ]; [ nlit 0; lit 1 ] ]
      ~soft:[ (0, [ lit 0 ]); (-2, [ lit 1 ]); (1, []); (3, [ nlit 0 ]); (2, [ nlit 0 ]) ]
      ()
  in
  Alcotest.(check int) "two bad weights" 2
    (List.length (R.by_rule r CL.rule_soft_weight));
  Alcotest.(check bool) "empty soft" true (R.has_rule r CL.rule_empty_soft);
  Alcotest.(check bool) "duplicate soft" true
    (R.has_rule r CL.rule_duplicate_soft)

let test_rule_tautology_and_dups () =
  let r =
    check_cnf ~n_vars:2
      [ [ lit 0; nlit 0 ]; [ lit 0; lit 0; lit 1 ]; [ lit 1; lit 0 ]; [ lit 0; lit 1 ] ]
  in
  Alcotest.(check bool) "tautology" true (R.has_rule r CL.rule_tautology);
  Alcotest.(check bool) "duplicate literal" true
    (R.has_rule r CL.rule_duplicate_literal);
  (* clauses 1, 2, 3 all normalize to {0, 1}: two duplicates. *)
  Alcotest.(check int) "duplicate clauses" 2
    (List.length (R.by_rule r CL.rule_duplicate_hard))

let test_rule_dead_soft_and_subsumption () =
  let r =
    CL.check ~n_vars:3
      ~hard:[ [ lit 0 ]; [ lit 0; lit 1 ]; [ nlit 0; nlit 1; lit 2 ]; [ nlit 2 ] ]
      ~soft:[ (5, [ lit 0; lit 2 ]) ]
      ~expect_sat:true ()
  in
  Alcotest.(check bool) "dead soft" true (R.has_rule r CL.rule_dead_soft);
  let subs = R.by_rule r CL.rule_hard_subsumes_hard in
  Alcotest.(check bool) "hard subsumption noted" true (subs <> []);
  Alcotest.(check bool) "subsumption is info" true
    (List.for_all (fun f -> f.R.severity = R.Info) subs)

let test_rule_pure_and_unconstrained () =
  (* var 1 only ever positive in hard; var 2 absent everywhere. *)
  let r =
    CL.check ~n_vars:3
      ~hard:[ [ lit 0; lit 1 ]; [ nlit 0; lit 1 ] ]
      ~soft:[] ()
  in
  Alcotest.(check bool) "pure" true (R.has_rule r CL.rule_pure_literal);
  Alcotest.(check bool) "unconstrained" true (R.has_rule r CL.rule_unconstrained);
  (* A soft occurrence of the opposite polarity un-pures the variable
     (the fidelity objective's gate indicators rely on this). *)
  let r =
    CL.check ~n_vars:2
      ~hard:[ [ lit 0; lit 1 ]; [ nlit 0; lit 1 ] ]
      ~soft:[ (1, [ nlit 1 ]) ]
      ()
  in
  Alcotest.(check bool) "soft polarity counts" false
    (R.has_rule r CL.rule_pure_literal)

let test_clean_instance () =
  let r =
    CL.check ~n_vars:2
      ~hard:[ [ lit 0; lit 1 ]; [ nlit 0; nlit 1 ] ]
      ~soft:[ (1, [ lit 0; nlit 1 ]) ]
      ()
  in
  Alcotest.(check bool) "no findings at all" true (R.is_clean r)

let test_finding_cap () =
  (* 60 out-of-range clauses: the per-rule cap keeps the report readable
     and notes the suppressed remainder. *)
  let hard = List.init 60 (fun i -> [ lit (10 + i) ]) in
  let r = check_cnf ~expect_sat:false ~n_vars:1 hard in
  Alcotest.(check int) "capped at 25" 25
    (List.length (R.by_rule r CL.rule_out_of_range));
  Alcotest.(check bool) "suppression noted" true
    (R.has_rule r CL.rule_findings_suppressed)

(* ------------------------------------------------------------------ *)
(* Sanitizing sink and Formula.add_clause *)

let test_sink_normalize () =
  Alcotest.(check (option (list int)))
    "sorted + deduped"
    (Some [ Sat.Lit.to_int (lit 0); Sat.Lit.to_int (lit 1) ])
    (Option.map (List.map Sat.Lit.to_int)
       (Sat.Sink.normalize [ lit 1; lit 0; lit 1 ]));
  Alcotest.(check bool) "tautology is None" true
    (Sat.Sink.normalize [ lit 0; nlit 0; lit 1 ] = None);
  Alcotest.(check bool) "empty stays" true (Sat.Sink.normalize [] = Some [])

let test_sanitizing_sink () =
  let b = Sat.Sink.builder () in
  let stats = Sat.Sink.sanitize_stats () in
  let sink = Sat.Sink.sanitizing ~stats (Sat.Sink.of_builder b) in
  let v0 = sink.Sat.Sink.fresh_var () in
  let v1 = sink.Sat.Sink.fresh_var () in
  sink.Sat.Sink.add_clause [ lit v0; lit v0; lit v1 ];
  sink.Sat.Sink.add_clause [ lit v0; nlit v0 ];
  sink.Sat.Sink.add_clause [ nlit v1 ];
  Alcotest.(check int) "seen" 3 stats.Sat.Sink.clauses_seen;
  Alcotest.(check int) "tautologies" 1 stats.Sat.Sink.tautologies_dropped;
  Alcotest.(check int) "dup literals" 1 stats.Sat.Sink.duplicate_literals_dropped;
  Alcotest.(check int) "only clean clauses stored" 2
    (Sat.Sink.builder_n_clauses b);
  Alcotest.(check bool) "dedup applied" true
    (List.for_all
       (fun c -> List.length c = List.length (List.sort_uniq Sat.Lit.compare c))
       (Sat.Sink.builder_clauses b))

let test_formula_add_clause () =
  let b = Sat.Sink.builder () in
  let sink = Sat.Sink.of_builder b in
  Sat.Formula.add_clause sink [ lit 0; lit 1; lit 0 ];
  Sat.Formula.add_clause sink [ lit 0; nlit 0 ];
  Alcotest.(check int) "tautology dropped at insertion" 1
    (Sat.Sink.builder_n_clauses b);
  Alcotest.(check int) "literals deduped" 2
    (List.length (List.hd (Sat.Sink.builder_clauses b)))

(* ------------------------------------------------------------------ *)
(* Cardinality encodings lint clean (satellite: Sat.Card coverage) *)

let card_hygiene_rules =
  [
    CL.rule_unconstrained;
    CL.rule_tautology;
    CL.rule_duplicate_literal;
    CL.rule_duplicate_hard;
    CL.rule_out_of_range;
    CL.rule_empty_hard;
    CL.rule_level0_conflict;
  ]

let build_card ~encoding ~exactly n =
  let b = Sat.Sink.builder () in
  let sink = Sat.Sink.of_builder b in
  let inputs = List.init n (fun _ -> lit (sink.Sat.Sink.fresh_var ())) in
  if exactly then Sat.Card.exactly_one ~encoding sink inputs
  else Sat.Card.at_most_one ~encoding sink inputs;
  (inputs, Sat.Sink.builder_n_vars b, Sat.Sink.builder_clauses b)

let check_card_encoding encoding () =
  List.iter
    (fun exactly ->
      for n = 2 to 12 do
        let inputs, n_vars, clauses = build_card ~encoding ~exactly n in
        let label rule =
          Printf.sprintf "%s n=%d exactly=%b" rule n exactly
        in
        let r = CL.check_cnf ~n_vars clauses in
        List.iter
          (fun rule ->
            Alcotest.(check (list string)) (label rule) []
              (List.map (fun f -> f.R.message) (R.by_rule r rule)))
          card_hygiene_rules;
        (* Semantics under the independent propagator: any two inputs
           clash; all-false is allowed iff the constraint is AMO. *)
        let up = Up.create ~n_vars clauses in
        let arr = Array.of_list inputs in
        for i = 0 to n - 1 do
          Alcotest.check check_outcome (label "single input sat") Up.Consistent
            (Up.probe up [ arr.(i) ]);
          for j = i + 1 to n - 1 do
            Alcotest.(check bool) (label "pair refuted") true
              (Up.refutes up [ arr.(i); arr.(j) ])
          done
        done;
        Alcotest.check check_outcome (label "all false")
          (if exactly then Up.Conflict else Up.Consistent)
          (Up.probe up (List.map Sat.Lit.neg inputs))
      done)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Encoding lint: clean instances and the mutation corpus *)

let cx = Quantum.Gate.cx

let star_circuit =
  Quantum.Circuit.create ~n_qubits:4 [ cx 0 1; cx 0 2; cx 0 1; cx 0 3 ]

let tri_circuit = Quantum.Circuit.create ~n_qubits:3 [ cx 0 1; cx 1 2; cx 0 2 ]

let assert_clean name report =
  if not (R.is_clean ~at_least:R.Warning report) then
    Alcotest.failf "%s not clean: %s\n%s" name (R.summary report)
      (String.concat "\n"
         (List.filter_map
            (fun f ->
              if f.R.severity = R.Info then None
              else Some (Printf.sprintf "  %s: %s" f.R.rule f.R.message))
            (R.findings report)))

let test_encoding_lint_clean () =
  List.iter
    (fun (name, device, circuit) ->
      let spec = Satmap.Encoding.spec device in
      let enc = Satmap.Encoding.build spec circuit in
      assert_clean name (Satmap.Encoding_lint.check_full enc))
    [
      ("ring-6", Arch.Topologies.ring 6, star_circuit);
      ("grid-2x3", Arch.Topologies.grid ~rows:2 ~cols:3, star_circuit);
      ("heavy-hex-15", Arch.Topologies.heavy_hex_15 (), star_circuit);
      ("tokyo", Arch.Topologies.tokyo (), tri_circuit);
    ]

let test_encoding_lint_modes () =
  let device = Arch.Topologies.ring 5 in
  let spec amo = Satmap.Encoding.spec ~amo device in
  List.iter
    (fun amo ->
      let enc = Satmap.Encoding.build (spec amo) tri_circuit in
      assert_clean "amo variant" (Satmap.Encoding_lint.check_full enc))
    [ Sat.Card.Pairwise; Sat.Card.Sequential; Sat.Card.Commander ];
  (* Pinned, cyclic, and blocked slices are deliberately over-constrained:
     clean at Warning level with expect_sat:false. *)
  let enc =
    Satmap.Encoding.build ~fixed_initial:[| 0; 1; 2 |]
      ~fixed_final:[| 0; 1; 2 |]
      (Satmap.Encoding.spec device)
      tri_circuit
  in
  assert_clean "pinned"
    (Satmap.Encoding_lint.check_full ~expect_sat:false enc);
  let enc =
    Satmap.Encoding.build ~cyclic:true
      (Satmap.Encoding.spec ~post_slots:2 device)
      tri_circuit
  in
  assert_clean "cyclic" (Satmap.Encoding_lint.check_full ~expect_sat:false enc)

let test_insertion_stats () =
  let enc =
    Satmap.Encoding.build
      (Satmap.Encoding.spec (Arch.Topologies.linear 4))
      star_circuit
  in
  let ins = Satmap.Encoding.insertion_stats enc in
  let inst = Satmap.Encoding.instance enc in
  Alcotest.(check int) "all inserted clauses stored"
    (Maxsat.Instance.n_hard inst)
    ins.Sat.Sink.clauses_seen;
  Alcotest.(check int) "no tautologies in the builder" 0
    ins.Sat.Sink.tautologies_dropped

let test_mutation_corpus () =
  let spec =
    Satmap.Encoding.spec ~amo:Sat.Card.Pairwise (Arch.Topologies.linear 4)
  in
  let enc = Satmap.Encoding.build spec star_circuit in
  assert_clean "unmutated baseline" (Satmap.Encoding_lint.check_full enc);
  let muts = Satmap.Mutations.all enc in
  Alcotest.(check bool) "corpus is substantial" true (List.length muts >= 20);
  let missed =
    List.filter_map
      (fun (m : Satmap.Mutations.t) ->
        if Satmap.Mutations.caught (Satmap.Mutations.lint enc m) then None
        else Some m.name)
      muts
  in
  let caught = List.length muts - List.length missed in
  let ratio = float_of_int caught /. float_of_int (List.length muts) in
  if ratio < 0.9 then
    Alcotest.failf "only %d/%d mutants caught (missed: %s)" caught
      (List.length muts)
      (String.concat ", " missed)

let test_router_lints_blocks () =
  let config =
    {
      Satmap.Router.default_config with
      timeout = 20.0;
      lint_blocks = true;
      amo = Sat.Card.Pairwise;
    }
  in
  let device = Arch.Topologies.linear 4 in
  (match Satmap.Router.route_sliced ~config ~slice_size:2 device star_circuit with
  | Satmap.Router.Routed _ -> ()
  | Satmap.Router.Failed msg -> Alcotest.failf "sliced route failed: %s" msg);
  match Satmap.Router.route_monolithic ~config device star_circuit with
  | Satmap.Router.Routed _ -> ()
  | Satmap.Router.Failed msg -> Alcotest.failf "monolithic route failed: %s" msg

(* ------------------------------------------------------------------ *)
(* CDCL sanitizer *)

let gen_random_cnf rng =
  let n_vars = 1 + Random.State.int rng 12 in
  let n_clauses = 1 + Random.State.int rng 50 in
  let clauses =
    List.init n_clauses (fun _ ->
        let len = 1 + Random.State.int rng 4 in
        List.init len (fun _ ->
            lit ~sign:(Random.State.bool rng) (Random.State.int rng n_vars)))
  in
  (n_vars, clauses)

let test_sanitizer_random_cnfs () =
  let rng = Random.State.make [| 0x5a71 |] in
  for i = 1 to 200 do
    let n_vars, clauses = gen_random_cnf rng in
    let s = Sat.Solver.create ~sanitize:true () in
    Alcotest.(check bool)
      (Printf.sprintf "sanitize enabled (cnf %d)" i)
      true
      (Sat.Solver.sanitize_enabled s);
    for _ = 1 to n_vars do
      ignore (Sat.Solver.new_var s)
    done;
    List.iter (Sat.Solver.add_clause s) clauses;
    (* Invariants must hold before, during (every N conflicts, exercised
       by solve), and after the search. *)
    Sat.Solver.sanitize_check s;
    let result = Sat.Solver.solve s in
    Sat.Solver.sanitize_check s;
    let expected = Sat.Brute.is_satisfiable ~n_vars clauses in
    (match result with
    | Sat.Solver.Sat ->
      Alcotest.(check bool) (Printf.sprintf "cnf %d sat" i) true expected
    | Sat.Solver.Unsat ->
      Alcotest.(check bool) (Printf.sprintf "cnf %d unsat" i) false expected
    | Sat.Solver.Unknown -> Alcotest.failf "cnf %d returned unknown" i);
    (* Incremental reuse with the sanitizer still on. *)
    if result = Sat.Solver.Sat && n_vars >= 2 then begin
      Sat.Solver.add_clause s [ lit 0; nlit 1 ];
      ignore (Sat.Solver.solve s);
      Sat.Solver.sanitize_check s
    end
  done

let test_sanitizer_toggle () =
  let s = Sat.Solver.create () in
  Alcotest.(check bool) "off by default" false (Sat.Solver.sanitize_enabled s);
  Sat.Solver.set_sanitize s true;
  Alcotest.(check bool) "toggled on" true (Sat.Solver.sanitize_enabled s);
  ignore (Sat.Solver.new_var s);
  Sat.Solver.add_clause s [ lit 0 ];
  Alcotest.check
    (Alcotest.testable
       (fun fmt r ->
         Format.pp_print_string fmt
           (match r with
           | Sat.Solver.Sat -> "sat"
           | Sat.Solver.Unsat -> "unsat"
           | Sat.Solver.Unknown -> "unknown"))
       ( = ))
    "solves with sanitizer" Sat.Solver.Sat (Sat.Solver.solve s);
  Sat.Solver.sanitize_check s

(* The sanitizer over the incremental session path, driven as a sliced
   route on tokyo drives it: one persistent solver and one reused
   skeleton serve every slice, each slice behind a fresh activation guard
   while the earlier slices' guards stay retired in the clause database,
   and each seam pinned to the previous slice's final map. *)
let test_sanitizer_session_route () =
  let device = Arch.Topologies.tokyo () in
  let spec = Satmap.Encoding.spec device in
  let n = 8 in
  let gates =
    List.init 40 (fun i ->
        let a = (i * 5) mod n in
        cx a ((a + 1 + (i * 3 mod (n - 1))) mod n))
  in
  let slices =
    Quantum.Circuit.slice_by_two_qubit
      (Quantum.Circuit.create ~n_qubits:n gates)
      ~slice_size:10
  in
  Alcotest.(check bool) "several slices" true (List.length slices >= 3);
  let session = Satmap.Encoding.Session.create () in
  let seam = ref None and prepared = ref 0 in
  (* A seam the slice cannot continue from is unsatisfiable; the router
     would backtrack, here the slice is prepared again without the pin,
     which retires one more guard. *)
  let rec solve_slice i pin =
    let act =
      Satmap.Encoding.Session.prepare ?fixed_initial:pin session spec
        (List.nth slices i)
    in
    Alcotest.(check bool)
      (Printf.sprintf "slice %d reuses the skeleton" i)
      (!prepared > 0) act.a_reused;
    incr prepared;
    let solver = act.a_solver in
    Sat.Solver.set_sanitize solver true;
    Sat.Solver.sanitize_check solver;
    let descent =
      Maxsat.Optimizer.attach ~assumptions:act.a_assumptions
        ~bounds:act.a_bounds ~solver ~relax:act.a_relax ()
    in
    let result = Maxsat.Optimizer.resume descent in
    Sat.Solver.sanitize_check solver;
    match result with
    | Maxsat.Optimizer.Optimal o ->
      seam := Some (Satmap.Encoding.decode act.a_enc o.model).final
    | Maxsat.Optimizer.Unsatisfiable _ when pin <> None -> solve_slice i None
    | _ -> Alcotest.failf "slice %d: no optimum" i
  in
  List.iteri (fun i _ -> solve_slice i !seam) slices

let test_heap_check () =
  let priorities = [| 5.0; 1.0; 3.0; 9.0; 2.0 |] in
  let h = Sat.Heap.create priorities in
  for i = 0 to 4 do
    Sat.Heap.insert h i;
    Sat.Heap.check_exn h
  done;
  priorities.(1) <- 20.0;
  Sat.Heap.update h 1;
  Sat.Heap.check_exn h;
  while not (Sat.Heap.is_empty h) do
    ignore (Sat.Heap.remove_min h);
    Sat.Heap.check_exn h
  done

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lint"
    [
      ("report", [ Alcotest.test_case "basics" `Quick test_report_basics ]);
      ( "unit-prop",
        [
          Alcotest.test_case "propagation" `Quick test_up_propagation;
          Alcotest.test_case "conflict" `Quick test_up_conflict;
          Alcotest.test_case "reset after conflict" `Quick
            test_up_reset_after_conflict;
          Alcotest.test_case "edge cases" `Quick test_up_edge_cases;
        ] );
      ( "cnf-rules",
        [
          Alcotest.test_case "out of range" `Quick test_rule_out_of_range;
          Alcotest.test_case "empty hard" `Quick test_rule_empty_hard;
          Alcotest.test_case "level-0 conflict" `Quick test_rule_level0;
          Alcotest.test_case "soft hygiene" `Quick test_rule_soft_hygiene;
          Alcotest.test_case "tautology and duplicates" `Quick
            test_rule_tautology_and_dups;
          Alcotest.test_case "dead soft and subsumption" `Quick
            test_rule_dead_soft_and_subsumption;
          Alcotest.test_case "pure and unconstrained" `Quick
            test_rule_pure_and_unconstrained;
          Alcotest.test_case "clean instance" `Quick test_clean_instance;
          Alcotest.test_case "finding cap" `Quick test_finding_cap;
        ] );
      ( "sink",
        [
          Alcotest.test_case "normalize" `Quick test_sink_normalize;
          Alcotest.test_case "sanitizing sink" `Quick test_sanitizing_sink;
          Alcotest.test_case "formula add_clause" `Quick test_formula_add_clause;
        ] );
      ( "card-lint",
        [
          Alcotest.test_case "pairwise" `Quick
            (check_card_encoding Sat.Card.Pairwise);
          Alcotest.test_case "sequential" `Quick
            (check_card_encoding Sat.Card.Sequential);
          Alcotest.test_case "commander" `Quick
            (check_card_encoding Sat.Card.Commander);
        ] );
      ( "encoding-lint",
        [
          Alcotest.test_case "clean devices" `Quick test_encoding_lint_clean;
          Alcotest.test_case "build modes" `Quick test_encoding_lint_modes;
          Alcotest.test_case "insertion stats" `Quick test_insertion_stats;
          Alcotest.test_case "mutation corpus" `Quick test_mutation_corpus;
          Alcotest.test_case "router lints blocks" `Quick
            test_router_lints_blocks;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "200 random CNFs" `Quick test_sanitizer_random_cnfs;
          Alcotest.test_case "toggle" `Quick test_sanitizer_toggle;
          Alcotest.test_case "session route on tokyo" `Quick
            test_sanitizer_session_route;
          Alcotest.test_case "heap check" `Quick test_heap_check;
        ] );
    ]
