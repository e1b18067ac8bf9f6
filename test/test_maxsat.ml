(* Tests for the MaxSAT layer: the adder network, the comparator, and the
   optimizer (differentially against brute-force optimal costs). *)

let lit ?sign v = Sat.Lit.of_var ?sign v

(* ------------------------------------------------------------------ *)
(* Adder network *)

let test_adder_sum_value () =
  (* Force a concrete subset of weighted inputs and check that the adder
     bits evaluate to the arithmetic sum. *)
  let cases =
    [
      ([ (1, true); (1, false); (1, true) ], 2);
      ([ (3, true); (5, false); (2, true) ], 5);
      ([ (7, true); (7, true) ], 14);
      ([ (1, false); (2, false) ], 0);
      ([ (13, true) ], 13);
    ]
  in
  List.iter
    (fun (inputs, expected) ->
      let s = Sat.Solver.create () in
      let sink = Sat.Sink.of_solver s in
      let weighted =
        List.map
          (fun (w, forced) ->
            let l = Sat.Lit.of_var (Sat.Solver.new_var s) in
            Sat.Solver.add_clause s [ (if forced then l else Sat.Lit.neg l) ];
            (w, l))
          inputs
      in
      let bits = Maxsat.Adder.sum sink weighted in
      (match Sat.Solver.solve s with
      | Sat.Solver.Sat -> ()
      | Sat.Solver.Unsat | Sat.Solver.Unknown ->
        Alcotest.fail "adder circuit unsat");
      let v = Maxsat.Adder.number_value (Sat.Solver.model_value s) bits in
      Alcotest.(check int) "sum value" expected v)
    cases

let prop_adder_matches_arithmetic =
  QCheck2.Test.make ~count:200 ~name:"adder bits equal arithmetic sum"
    QCheck2.Gen.(
      list_size (int_range 1 6) (pair (int_range 1 15) bool))
    (fun inputs ->
      let s = Sat.Solver.create () in
      let sink = Sat.Sink.of_solver s in
      let weighted =
        List.map
          (fun (w, forced) ->
            let l = Sat.Lit.of_var (Sat.Solver.new_var s) in
            Sat.Solver.add_clause s [ (if forced then l else Sat.Lit.neg l) ];
            (w, l))
          inputs
      in
      let bits = Maxsat.Adder.sum sink weighted in
      match Sat.Solver.solve s with
      | Sat.Solver.Sat ->
        let expected =
          List.fold_left
            (fun acc (w, forced) -> if forced then acc + w else acc)
            0 inputs
        in
        Maxsat.Adder.number_value (Sat.Solver.model_value s) bits = expected
      | Sat.Solver.Unsat | Sat.Solver.Unknown -> false)

let prop_comparator_bounds =
  QCheck2.Test.make ~count:200 ~name:"assert_le enforces sum <= k"
    QCheck2.Gen.(
      let* inputs = list_size (int_range 1 5) (pair (int_range 1 7) bool) in
      let* k = int_range 0 40 in
      return (inputs, k))
    (fun (inputs, k) ->
      let s = Sat.Solver.create () in
      let sink = Sat.Sink.of_solver s in
      let weighted =
        List.map
          (fun (w, forced) ->
            let l = Sat.Lit.of_var (Sat.Solver.new_var s) in
            Sat.Solver.add_clause s [ (if forced then l else Sat.Lit.neg l) ];
            (w, l))
          inputs
      in
      let bits = Maxsat.Adder.sum sink weighted in
      Maxsat.Adder.assert_le sink bits k;
      let total =
        List.fold_left
          (fun acc (w, forced) -> if forced then acc + w else acc)
          0 inputs
      in
      match Sat.Solver.solve s with
      | Sat.Solver.Sat -> total <= k
      | Sat.Solver.Unsat -> total > k
      | Sat.Solver.Unknown -> false)

(* ------------------------------------------------------------------ *)
(* Instance *)

let test_instance_cost_of_model () =
  let inst =
    Maxsat.Instance.create ~n_vars:2
      ~hard:[ [ lit 0; lit 1 ] ]
      ~soft:[ (2, [ lit ~sign:false 0 ]); (3, [ lit ~sign:false 1 ]) ]
  in
  let cost m = Maxsat.Instance.cost_of_model inst m in
  Alcotest.(check (option int)) "both true" (Some 5) (cost (fun _ -> true));
  Alcotest.(check (option int))
    "only x0" (Some 2)
    (cost (fun v -> v = 0));
  Alcotest.(check (option int)) "hard violated" None (cost (fun _ -> false))

let test_instance_validation () =
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Instance.create: non-positive soft weight") (fun () ->
      ignore (Maxsat.Instance.create ~n_vars:1 ~hard:[] ~soft:[ (0, [ lit 0 ]) ]));
  Alcotest.check_raises "var range"
    (Invalid_argument "Instance.create: literal out of range") (fun () ->
      ignore (Maxsat.Instance.create ~n_vars:1 ~hard:[ [ lit 3 ] ] ~soft:[]))

(* ------------------------------------------------------------------ *)
(* Optimizer: hand-written cases *)

let test_optimizer_paper_example () =
  (* Example 4 from the paper: Hard = {~a \/ b}, Soft = {b, a & ~b}.
     The conjunctive soft becomes two clauses via an auxiliary encoding; we
     express it as CNF softs directly: soft (a) and soft (~b) each weight 1
     would differ, so encode the conjunction with a relaxable pair. *)
  let a = 0 and b = 1 in
  let inst =
    Maxsat.Instance.create ~n_vars:2
      ~hard:[ [ lit ~sign:false a; lit b ] ]
      ~soft:[ (1, [ lit b ]); (1, [ lit a ]); (1, [ lit ~sign:false b ]) ]
  in
  (* Hard forces ~a \/ b. Optimum: a=false, b=true violates soft a and ~b?
     cost 2; a=true,b=true violates ~b only: cost 1. *)
  match Maxsat.Optimizer.solve inst with
  | Maxsat.Optimizer.Optimal o ->
    Alcotest.(check int) "cost" 1 o.cost;
    Alcotest.(check bool) "a" true o.model.(a);
    Alcotest.(check bool) "b" true o.model.(b)
  | _ -> Alcotest.fail "expected Optimal"

let test_optimizer_lower_bound () =
  (* Told that no model of Example 4 costs less than its optimum 1, the
     descent ends at its first cost-1 model without the refutation of
     cost 0.  Every model costs at most 2, so a "bound" of 3 is not one,
     and the descent says so instead of calling a model optimal. *)
  let a = 0 and b = 1 in
  let inst =
    Maxsat.Instance.create ~n_vars:2
      ~hard:[ [ lit ~sign:false a; lit b ] ]
      ~soft:[ (1, [ lit b ]); (1, [ lit a ]); (1, [ lit ~sign:false b ]) ]
  in
  let counter = Obs.Metrics.counter in
  let calls = counter "maxsat.iterations"
  and stops = counter "maxsat.lower_bound_stops" in
  let calls0 = Obs.Metrics.value calls and stops0 = Obs.Metrics.value stops in
  (match Maxsat.Optimizer.solve ~lower_bound:1 inst with
  | Maxsat.Optimizer.Optimal o ->
    Alcotest.(check int) "cost" 1 o.cost;
    Alcotest.(check int) "no refutation call" o.iterations
      (Obs.Metrics.value calls - calls0);
    Alcotest.(check int) "one lower-bound stop" 1
      (Obs.Metrics.value stops - stops0)
  | _ -> Alcotest.fail "expected Optimal");
  Alcotest.check_raises "bound above the optimum"
    (Failure "Optimizer: a model costs less than the proved lower bound")
    (fun () -> ignore (Maxsat.Optimizer.solve ~lower_bound:3 inst))

let test_optimizer_unsat_hard () =
  let inst =
    Maxsat.Instance.create ~n_vars:1
      ~hard:[ [ lit 0 ]; [ lit ~sign:false 0 ] ]
      ~soft:[ (1, [ lit 0 ]) ]
  in
  match Maxsat.Optimizer.solve inst with
  | Maxsat.Optimizer.Unsatisfiable _ -> ()
  | _ -> Alcotest.fail "expected Unsatisfiable"

let test_optimizer_unsat_hard_certified () =
  (* Regression: the initial refutation (hard clauses alone are unsat)
     used to bypass certification entirely — [~certify:true] returned a
     bare [Unsatisfiable].  The refutation must be re-checked like every
     other UNSAT answer and the verdict carried in the payload. *)
  let inst =
    Maxsat.Instance.create ~n_vars:1
      ~hard:[ [ lit 0 ]; [ lit ~sign:false 0 ] ]
      ~soft:[ (1, [ lit 0 ]) ]
  in
  match Maxsat.Optimizer.solve ~certify:true inst with
  | Maxsat.Optimizer.Unsatisfiable (Some r) ->
    Alcotest.(check bool) "refutation certified" true (Maxsat.Certify.ok r);
    Alcotest.(check bool) "checker actually ran" true
      (r.Maxsat.Certify.proofs_checked >= 1)
  | Maxsat.Optimizer.Unsatisfiable None ->
    Alcotest.fail "hard-UNSAT answer carried no certificate under ~certify"
  | _ -> Alcotest.fail "expected Unsatisfiable"

let test_optimizer_no_soft () =
  let inst = Maxsat.Instance.create ~n_vars:1 ~hard:[ [ lit 0 ] ] ~soft:[] in
  match Maxsat.Optimizer.solve inst with
  | Maxsat.Optimizer.Optimal o -> Alcotest.(check int) "cost" 0 o.cost
  | _ -> Alcotest.fail "expected Optimal"

let test_optimizer_all_soft_satisfiable () =
  let inst =
    Maxsat.Instance.create ~n_vars:3 ~hard:[]
      ~soft:[ (5, [ lit 0 ]); (5, [ lit 1 ]); (5, [ lit 2 ]) ]
  in
  match Maxsat.Optimizer.solve inst with
  | Maxsat.Optimizer.Optimal o ->
    Alcotest.(check int) "cost" 0 o.cost;
    Alcotest.(check bool) "model satisfies softs" true
      (o.model.(0) && o.model.(1) && o.model.(2))
  | _ -> Alcotest.fail "expected Optimal"

let test_optimizer_weighted_tradeoff () =
  (* Must falsify exactly one of two conflicting softs; the cheaper one. *)
  let inst =
    Maxsat.Instance.create ~n_vars:1 ~hard:[]
      ~soft:[ (5, [ lit 0 ]); (2, [ lit ~sign:false 0 ]) ]
  in
  match Maxsat.Optimizer.solve inst with
  | Maxsat.Optimizer.Optimal o ->
    Alcotest.(check int) "cost" 2 o.cost;
    Alcotest.(check bool) "keeps the heavy soft" true o.model.(0)
  | _ -> Alcotest.fail "expected Optimal"

(* ------------------------------------------------------------------ *)
(* Optimizer: differential against brute force *)

let gen_wcnf ~max_weight =
  QCheck2.Gen.(
    let* n_vars = int_range 1 8 in
    let gen_lit =
      let* v = int_range 0 (n_vars - 1) in
      let* sign = bool in
      return (lit ~sign v)
    in
    let gen_clause =
      let* len = int_range 1 3 in
      list_size (return len) gen_lit
    in
    let* n_hard = int_range 0 10 in
    let* hard = list_size (return n_hard) gen_clause in
    let* n_soft = int_range 1 8 in
    let* soft =
      list_size (return n_soft) (pair (int_range 1 max_weight) gen_clause)
    in
    return (n_vars, hard, soft))

let check_against_brute (n_vars, hard, soft) =
  let expected = Sat.Brute.maxsat_opt ~n_vars ~hard ~soft in
  let inst = Maxsat.Instance.create ~n_vars ~hard ~soft in
  match (Maxsat.Optimizer.solve inst, expected) with
  | Maxsat.Optimizer.Unsatisfiable _, None -> true
  | Maxsat.Optimizer.Optimal o, Some c ->
    o.cost = c
    && Maxsat.Instance.cost_of_model inst (fun v -> o.model.(v)) = Some c
  | _ -> false

let prop_optimizer_unweighted =
  QCheck2.Test.make ~count:200 ~name:"unweighted optimum matches brute force"
    (gen_wcnf ~max_weight:1) check_against_brute

let prop_optimizer_weighted =
  QCheck2.Test.make ~count:200 ~name:"weighted optimum matches brute force"
    (gen_wcnf ~max_weight:9) check_against_brute

let test_optimizer_deadline_anytime () =
  (* With an already-expired deadline and an instance needing search, the
     optimizer must report Timeout (no model) rather than looping. *)
  let inst =
    Maxsat.Instance.create ~n_vars:2
      ~hard:[ [ lit 0; lit 1 ] ]
      ~soft:[ (1, [ lit ~sign:false 0 ]) ]
  in
  match Maxsat.Optimizer.solve ~deadline:(Unix.gettimeofday () -. 1.0) inst with
  | Maxsat.Optimizer.Timeout -> ()
  | Maxsat.Optimizer.Optimal _ ->
    (* Tiny instances may be solved before the first deadline check; this
       is acceptable anytime behaviour. *)
    ()
  | _ -> Alcotest.fail "expected Timeout or fast Optimal"

(* ------------------------------------------------------------------ *)
(* Incremental descent: selector-activated bounds vs permanent units *)

let check_incremental_matches_scratch (n_vars, hard, soft) =
  let inst = Maxsat.Instance.create ~n_vars ~hard ~soft in
  let cost incremental =
    match Maxsat.Optimizer.solve ~incremental inst with
    | Maxsat.Optimizer.Unsatisfiable _ -> None
    | Maxsat.Optimizer.Optimal o ->
      (* The incremental model must be a real model, not just a cost. *)
      if Maxsat.Instance.cost_of_model inst (fun v -> o.model.(v))
         <> Some o.cost
      then Some (-1)
      else Some o.cost
    | Maxsat.Optimizer.Feasible _ | Maxsat.Optimizer.Timeout -> Some (-2)
  in
  let incr = cost true and scratch = cost false in
  incr = scratch && scratch = Sat.Brute.maxsat_opt ~n_vars ~hard ~soft

let prop_incremental_matches_scratch =
  QCheck2.Test.make ~count:500
    ~name:"incremental descent matches from-scratch descent and brute force"
    (gen_wcnf ~max_weight:9) check_incremental_matches_scratch

let test_session_resume_after_deadline () =
  (* An expired deadline leaves the session suspended, not poisoned: the
     next [resume] continues the same descent to the true optimum. *)
  let n_vars = 6 in
  let hard = [ [ lit 0; lit 1 ]; [ lit 2; lit 3 ]; [ lit 4; lit 5 ] ] in
  let soft = List.init n_vars (fun v -> (1, [ lit ~sign:false v ])) in
  let inst = Maxsat.Instance.create ~n_vars ~hard ~soft in
  let session = Maxsat.Optimizer.start inst in
  (match
     Maxsat.Optimizer.resume ~deadline:(Unix.gettimeofday () -. 1.0) session
   with
  | Maxsat.Optimizer.Timeout | Maxsat.Optimizer.Feasible _ -> ()
  | Maxsat.Optimizer.Optimal _ ->
    (* Solved before the first deadline check: acceptable on a fast
       machine, the resume below then just replays the memoized verdict. *)
    ()
  | Maxsat.Optimizer.Unsatisfiable _ -> Alcotest.fail "instance is sat");
  (match Maxsat.Optimizer.resume session with
  | Maxsat.Optimizer.Optimal o ->
    Alcotest.(check int) "resumed optimum" 3 o.Maxsat.Optimizer.cost
  | _ -> Alcotest.fail "expected Optimal after resume");
  (* Terminal verdicts are memoized across further resumes. *)
  match Maxsat.Optimizer.resume session with
  | Maxsat.Optimizer.Optimal o ->
    Alcotest.(check int) "memoized optimum" 3 o.Maxsat.Optimizer.cost
  | _ -> Alcotest.fail "expected memoized Optimal"

let test_attach_bound_activation () =
  (* Two descents over one solver, sharing a bounds table.  Phase 1 (guard
     g) proves optimum 1, which refutes the "cost <= 0" selector under
     [g].  Phase 2 retires g, activates a strictly tighter formula under a
     fresh guard h, and must still reach ITS optimum (2) — phase 1's bound
     selectors must neither leak in as permanent constraints nor block the
     reused "cost <= k" selectors from being assumed again. *)
  let s = Sat.Solver.create () in
  let x0 = Sat.Lit.of_var (Sat.Solver.new_var s) in
  let x1 = Sat.Lit.of_var (Sat.Solver.new_var s) in
  let g = Sat.Lit.of_var (Sat.Solver.new_var s) in
  let h = Sat.Lit.of_var (Sat.Solver.new_var s) in
  let relax = [ (1, x0); (1, x1) ] in
  let bounds = Maxsat.Optimizer.shared_bounds () in
  Sat.Solver.add_clause s [ Sat.Lit.neg g; x0; x1 ];
  let s1 =
    Maxsat.Optimizer.attach ~assumptions:[ g ] ~bounds ~solver:s ~relax ()
  in
  (match Maxsat.Optimizer.resume s1 with
  | Maxsat.Optimizer.Optimal o ->
    Alcotest.(check int) "phase-1 optimum" 1 o.Maxsat.Optimizer.cost
  | _ -> Alcotest.fail "phase 1: expected Optimal");
  Sat.Solver.add_clause s [ Sat.Lit.neg g ];
  Sat.Solver.add_clause s [ Sat.Lit.neg h; x0 ];
  Sat.Solver.add_clause s [ Sat.Lit.neg h; x1 ];
  let s2 =
    Maxsat.Optimizer.attach ~assumptions:[ h ] ~bounds ~solver:s ~relax ()
  in
  match Maxsat.Optimizer.resume s2 with
  | Maxsat.Optimizer.Optimal o ->
    Alcotest.(check int) "phase-2 optimum" 2 o.Maxsat.Optimizer.cost
  | _ -> Alcotest.fail "phase 2: expected Optimal"

let test_optimal_cost_options () =
  (* optimal_cost forwards certify / incremental to solve. *)
  let inst =
    Maxsat.Instance.create ~n_vars:3
      ~hard:[ [ lit 0; lit 1; lit 2 ] ]
      ~soft:
        [
          (2, [ lit ~sign:false 0 ]);
          (3, [ lit ~sign:false 1 ]);
          (4, [ lit ~sign:false 2 ]);
        ]
  in
  let expect = Some 2 in
  Alcotest.(check (option int))
    "default" expect
    (Maxsat.Optimizer.optimal_cost inst);
  Alcotest.(check (option int))
    "from-scratch" expect
    (Maxsat.Optimizer.optimal_cost ~incremental:false inst);
  Alcotest.(check (option int))
    "certified" expect
    (Maxsat.Optimizer.optimal_cost ~certify:true inst)

(* ------------------------------------------------------------------ *)
(* Core-guided engine (Fu-Malik / WPM1) *)

let check_core_guided_against_brute (n_vars, hard, soft) =
  let expected = Sat.Brute.maxsat_opt ~n_vars ~hard ~soft in
  let inst = Maxsat.Instance.create ~n_vars ~hard ~soft in
  match (Maxsat.Core_guided.solve inst, expected) with
  | Maxsat.Core_guided.Unsatisfiable _, None -> true
  | Maxsat.Core_guided.Optimal { cost; model; _ }, Some c ->
    cost = c
    && Maxsat.Instance.cost_of_model inst (fun v -> model.(v)) = Some c
  | _ -> false

let prop_core_guided_unweighted =
  QCheck2.Test.make ~count:200
    ~name:"core-guided unweighted optimum matches brute force"
    (gen_wcnf ~max_weight:1) check_core_guided_against_brute

let prop_core_guided_weighted =
  QCheck2.Test.make ~count:200
    ~name:"core-guided weighted optimum matches brute force"
    (gen_wcnf ~max_weight:9) check_core_guided_against_brute

let prop_engines_agree =
  QCheck2.Test.make ~count:100 ~name:"linear and core-guided engines agree"
    (gen_wcnf ~max_weight:5) (fun (n_vars, hard, soft) ->
      let inst = Maxsat.Instance.create ~n_vars ~hard ~soft in
      match (Maxsat.Optimizer.solve inst, Maxsat.Core_guided.solve inst) with
      | Maxsat.Optimizer.Unsatisfiable _, Maxsat.Core_guided.Unsatisfiable _ ->
        true
      | Maxsat.Optimizer.Optimal o, Maxsat.Core_guided.Optimal { cost; _ } ->
        o.cost = cost
      | _ -> false)

let prop_engines_agree_certified =
  QCheck2.Test.make ~count:100
    ~name:"engines agree under certification and all proofs check"
    (gen_wcnf ~max_weight:5) (fun (n_vars, hard, soft) ->
      let inst = Maxsat.Instance.create ~n_vars ~hard ~soft in
      let cert_ok = function
        | Some r -> Maxsat.Certify.ok r
        | None -> false
      in
      match
        ( Maxsat.Optimizer.solve ~certify:true inst,
          Maxsat.Core_guided.solve ~certify:true inst )
      with
      | Maxsat.Optimizer.Unsatisfiable _, Maxsat.Core_guided.Unsatisfiable _ ->
        true
      | ( Maxsat.Optimizer.Optimal o,
          Maxsat.Core_guided.Optimal { cost; certificate; _ } ) ->
        o.cost = cost && cert_ok o.certificate && cert_ok certificate
      | _ -> false)

let test_core_guided_hard_unsat () =
  let inst =
    Maxsat.Instance.create ~n_vars:1
      ~hard:[ [ lit 0 ]; [ lit ~sign:false 0 ] ]
      ~soft:[ (1, [ lit 0 ]) ]
  in
  match Maxsat.Core_guided.solve inst with
  | Maxsat.Core_guided.Unsatisfiable _ -> ()
  | _ -> Alcotest.fail "expected Unsatisfiable"

let test_core_guided_hard_unsat_certified () =
  (* Same regression as the descent engine: a refutation found before any
     core is extracted must still be certified under [~certify:true]. *)
  let inst =
    Maxsat.Instance.create ~n_vars:1
      ~hard:[ [ lit 0 ]; [ lit ~sign:false 0 ] ]
      ~soft:[ (1, [ lit 0 ]) ]
  in
  match Maxsat.Core_guided.solve ~certify:true inst with
  | Maxsat.Core_guided.Unsatisfiable (Some r) ->
    Alcotest.(check bool) "refutation certified" true (Maxsat.Certify.ok r);
    Alcotest.(check bool) "checker actually ran" true
      (r.Maxsat.Certify.proofs_checked >= 1)
  | Maxsat.Core_guided.Unsatisfiable None ->
    Alcotest.fail "hard-UNSAT answer carried no certificate under ~certify"
  | _ -> Alcotest.fail "expected Unsatisfiable"

let test_solver_core_extraction () =
  (* x0 -> x1, x1 -> x2; assumptions x0, ~x2, x3: the core must contain
     x0 and ~x2 but need not contain the irrelevant x3. *)
  let s = Sat.Solver.create () in
  let v = Array.init 4 (fun _ -> Sat.Solver.new_var s) in
  Sat.Solver.add_clause s [ lit ~sign:false v.(0); lit v.(1) ];
  Sat.Solver.add_clause s [ lit ~sign:false v.(1); lit v.(2) ];
  let assumptions = [ lit v.(0); lit ~sign:false v.(2); lit v.(3) ] in
  match Sat.Solver.solve_with_core ~assumptions s with
  | Sat.Solver.Unsat, core ->
    let mem l = List.exists (Sat.Lit.equal l) core in
    Alcotest.(check bool) "contains x0" true (mem (lit v.(0)));
    Alcotest.(check bool) "contains ~x2" true (mem (lit ~sign:false v.(2)));
    Alcotest.(check bool) "omits x3" false (mem (lit v.(3)))
  | _ -> Alcotest.fail "expected Unsat with core"

let prop_cores_are_unsat =
  QCheck2.Test.make ~count:150 ~name:"extracted cores are themselves unsat"
    (gen_wcnf ~max_weight:1) (fun (n_vars, hard, soft) ->
      (* Use the soft clauses' units as assumptions when they are units. *)
      let s = Sat.Solver.create () in
      for _ = 1 to n_vars do
        ignore (Sat.Solver.new_var s)
      done;
      List.iter (Sat.Solver.add_clause s) hard;
      let assumptions =
        List.filter_map
          (fun (_, c) -> match c with [ l ] -> Some l | _ -> None)
          soft
      in
      match Sat.Solver.solve_with_core ~assumptions s with
      | Sat.Solver.Sat, _ | Sat.Solver.Unknown, _ -> true
      | Sat.Solver.Unsat, core ->
        (* hard + core units must be unsat per brute force *)
        Sat.Brute.maxsat_opt ~n_vars
          ~hard:(hard @ List.map (fun l -> [ l ]) core)
          ~soft:[]
        = None)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "adder",
      [
        Alcotest.test_case "sum values" `Quick test_adder_sum_value;
        qtest prop_adder_matches_arithmetic;
        qtest prop_comparator_bounds;
      ] );
    ( "instance",
      [
        Alcotest.test_case "cost of model" `Quick test_instance_cost_of_model;
        Alcotest.test_case "validation" `Quick test_instance_validation;
      ] );
    ( "optimizer",
      [
        Alcotest.test_case "paper example 4" `Quick
          test_optimizer_paper_example;
        Alcotest.test_case "proved lower bound" `Quick
          test_optimizer_lower_bound;
        Alcotest.test_case "unsat hard" `Quick test_optimizer_unsat_hard;
        Alcotest.test_case "unsat hard is certified" `Quick
          test_optimizer_unsat_hard_certified;
        Alcotest.test_case "no softs" `Quick test_optimizer_no_soft;
        Alcotest.test_case "all softs satisfiable" `Quick
          test_optimizer_all_soft_satisfiable;
        Alcotest.test_case "weighted tradeoff" `Quick
          test_optimizer_weighted_tradeoff;
        Alcotest.test_case "expired deadline" `Quick
          test_optimizer_deadline_anytime;
        qtest prop_optimizer_unweighted;
        qtest prop_optimizer_weighted;
      ] );
    ( "incremental",
      [
        qtest prop_incremental_matches_scratch;
        Alcotest.test_case "resume after deadline" `Quick
          test_session_resume_after_deadline;
        Alcotest.test_case "attach: bound activation across guards" `Quick
          test_attach_bound_activation;
        Alcotest.test_case "optimal_cost option plumbing" `Quick
          test_optimal_cost_options;
      ] );
    ( "core-guided",
      [
        Alcotest.test_case "hard unsat" `Quick test_core_guided_hard_unsat;
        Alcotest.test_case "hard unsat is certified" `Quick
          test_core_guided_hard_unsat_certified;
        Alcotest.test_case "solver core extraction" `Quick
          test_solver_core_extraction;
        qtest prop_core_guided_unweighted;
        qtest prop_core_guided_weighted;
        qtest prop_engines_agree;
        qtest prop_engines_agree_certified;
        qtest prop_cores_are_unsat;
      ] );
  ]

let () = Alcotest.run "maxsat" suite
