(* Tests for the SAT substrate: Vec/Heap data structures, the CDCL solver
   (differentially against brute force), cardinality encodings, Tseitin,
   and DIMACS round-trips. *)

let lit ?sign v = Sat.Lit.of_var ?sign v

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_push_pop () =
  let v = Sat.Vec.create ~dummy:0 in
  for i = 0 to 99 do
    Sat.Vec.push v i
  done;
  Alcotest.(check int) "size" 100 (Sat.Vec.size v);
  Alcotest.(check int) "last" 99 (Sat.Vec.last v);
  Alcotest.(check int) "pop" 99 (Sat.Vec.pop v);
  Alcotest.(check int) "size after pop" 99 (Sat.Vec.size v);
  Sat.Vec.shrink v 10;
  Alcotest.(check int) "size after shrink" 10 (Sat.Vec.size v);
  Alcotest.(check (list int)) "contents" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (Sat.Vec.to_list v)

let test_vec_filter () =
  let v = Sat.Vec.of_list [ 1; 2; 3; 4; 5; 6 ] ~dummy:0 in
  Sat.Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check (list int)) "evens" [ 2; 4; 6 ] (Sat.Vec.to_list v)

let test_vec_sort () =
  let v = Sat.Vec.of_list [ 3; 1; 2 ] ~dummy:0 in
  Sat.Vec.sort Int.compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Sat.Vec.to_list v)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_order () =
  let priorities = [| 5.0; 1.0; 3.0; 9.0; 2.0 |] in
  let h = Sat.Heap.create priorities in
  for i = 0 to 4 do
    Sat.Heap.insert h i
  done;
  let order = List.init 5 (fun _ -> Sat.Heap.remove_min h) in
  Alcotest.(check (list int)) "by priority" [ 3; 0; 2; 4; 1 ] order

let test_heap_update () =
  let priorities = [| 1.0; 2.0; 3.0 |] in
  let h = Sat.Heap.create priorities in
  List.iter (Sat.Heap.insert h) [ 0; 1; 2 ];
  priorities.(0) <- 10.0;
  Sat.Heap.update h 0;
  Alcotest.(check int) "updated top" 0 (Sat.Heap.remove_min h);
  Alcotest.(check bool) "membership" false (Sat.Heap.mem h 0);
  Alcotest.(check bool) "others remain" true (Sat.Heap.mem h 1)

(* ------------------------------------------------------------------ *)
(* Lit *)

let test_lit_roundtrip () =
  for v = 0 to 10 do
    let p = lit v and n = lit ~sign:false v in
    Alcotest.(check int) "var pos" v (Sat.Lit.var p);
    Alcotest.(check int) "var neg" v (Sat.Lit.var n);
    Alcotest.(check bool) "sign pos" true (Sat.Lit.sign p);
    Alcotest.(check bool) "sign neg" false (Sat.Lit.sign n);
    Alcotest.(check bool) "neg involutive" true
      (Sat.Lit.equal p (Sat.Lit.neg (Sat.Lit.neg p)));
    Alcotest.(check bool) "dimacs roundtrip" true
      (Sat.Lit.equal n (Sat.Lit.of_dimacs (Sat.Lit.to_dimacs n)))
  done

(* ------------------------------------------------------------------ *)
(* Solver: hand-written cases *)

let solve_clauses n_vars clauses =
  let s = Sat.Solver.create () in
  let vars = Array.init n_vars (fun _ -> Sat.Solver.new_var s) in
  ignore vars;
  List.iter (Sat.Solver.add_clause s) clauses;
  (s, Sat.Solver.solve s)

let check_result = Alcotest.testable (fun fmt r ->
    Format.pp_print_string fmt
      (match r with
      | Sat.Solver.Sat -> "Sat"
      | Sat.Solver.Unsat -> "Unsat"
      | Sat.Solver.Unknown -> "Unknown"))
    ( = )

let test_solver_trivial_sat () =
  let _, r = solve_clauses 2 [ [ lit 0 ]; [ lit ~sign:false 1 ] ] in
  Alcotest.check check_result "sat" Sat.Solver.Sat r

let test_solver_trivial_unsat () =
  let _, r = solve_clauses 1 [ [ lit 0 ]; [ lit ~sign:false 0 ] ] in
  Alcotest.check check_result "unsat" Sat.Solver.Unsat r

let test_solver_empty_clause () =
  let _, r = solve_clauses 1 [ [] ] in
  Alcotest.check check_result "unsat" Sat.Solver.Unsat r

let test_solver_no_clauses () =
  let _, r = solve_clauses 3 [] in
  Alcotest.check check_result "sat" Sat.Solver.Sat r

let test_solver_model () =
  (* (x0 | x1) & (~x0 | x1) & (~x1 | x2)  forces x1, x2. *)
  let s, r =
    solve_clauses 3
      [
        [ lit 0; lit 1 ];
        [ lit ~sign:false 0; lit 1 ];
        [ lit ~sign:false 1; lit 2 ];
      ]
  in
  Alcotest.check check_result "sat" Sat.Solver.Sat r;
  Alcotest.(check bool) "x1" true (Sat.Solver.model_value s 1);
  Alcotest.(check bool) "x2" true (Sat.Solver.model_value s 2)

let test_solver_pigeonhole () =
  (* PHP(4,3): 4 pigeons in 3 holes — classically unsat and exercises
     clause learning. Var (p,h) = 3p + h. *)
  let s = Sat.Solver.create () in
  let var p h = 3 * p + h in
  for _ = 0 to 11 do
    ignore (Sat.Solver.new_var s)
  done;
  for p = 0 to 3 do
    Sat.Solver.add_clause s (List.init 3 (fun h -> lit (var p h)))
  done;
  for h = 0 to 2 do
    for p = 0 to 3 do
      for p' = p + 1 to 3 do
        Sat.Solver.add_clause s
          [ lit ~sign:false (var p h); lit ~sign:false (var p' h) ]
      done
    done
  done;
  Alcotest.check check_result "php unsat" Sat.Solver.Unsat (Sat.Solver.solve s)

let test_solver_assumptions () =
  let s = Sat.Solver.create () in
  let x = Sat.Solver.new_var s and y = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ lit ~sign:false x; lit y ];
  (* Assume x: y must hold. *)
  Alcotest.check check_result "sat under x" Sat.Solver.Sat
    (Sat.Solver.solve ~assumptions:[ lit x ] s);
  Alcotest.(check bool) "y true" true (Sat.Solver.model_value s y);
  (* Assume x and ~y: unsat, but the solver must stay usable. *)
  Alcotest.check check_result "unsat under x,~y" Sat.Solver.Unsat
    (Sat.Solver.solve ~assumptions:[ lit x; lit ~sign:false y ] s);
  Alcotest.check check_result "sat again" Sat.Solver.Sat (Sat.Solver.solve s);
  Alcotest.(check bool) "still ok" true (Sat.Solver.ok s)

let test_solver_incremental () =
  let s = Sat.Solver.create () in
  let vars = Array.init 4 (fun _ -> Sat.Solver.new_var s) in
  Sat.Solver.add_clause s [ lit vars.(0); lit vars.(1) ];
  Alcotest.check check_result "first" Sat.Solver.Sat (Sat.Solver.solve s);
  Sat.Solver.add_clause s [ lit ~sign:false vars.(0) ];
  Sat.Solver.add_clause s [ lit ~sign:false vars.(1) ];
  Alcotest.check check_result "now unsat" Sat.Solver.Unsat
    (Sat.Solver.solve s);
  Alcotest.(check bool) "poisoned" false (Sat.Solver.ok s)

(* ------------------------------------------------------------------ *)
(* Solver: differential random testing against brute force *)

let gen_cnf =
  QCheck2.Gen.(
    let* n_vars = int_range 1 10 in
    let* n_clauses = int_range 1 40 in
    let gen_lit =
      let* v = int_range 0 (n_vars - 1) in
      let* sign = bool in
      return (lit ~sign v)
    in
    let gen_clause =
      let* len = int_range 1 4 in
      list_size (return len) gen_lit
    in
    let* clauses = list_size (return n_clauses) gen_clause in
    return (n_vars, clauses))

let prop_solver_agrees_with_brute =
  QCheck2.Test.make ~count:300 ~name:"CDCL agrees with brute force" gen_cnf
    (fun (n_vars, clauses) ->
      let expected = Sat.Brute.is_satisfiable ~n_vars clauses in
      let s, r = solve_clauses n_vars clauses in
      match r with
      | Sat.Solver.Sat ->
        (* The produced model must actually satisfy the clauses. *)
        expected
        && List.for_all
             (List.exists (fun l ->
                  let b = Sat.Solver.model_value s (Sat.Lit.var l) in
                  if Sat.Lit.sign l then b else not b))
             clauses
      | Sat.Solver.Unsat -> not expected
      | Sat.Solver.Unknown -> false)

let prop_solver_assumptions_sound =
  QCheck2.Test.make ~count:150 ~name:"assumptions = extra units" gen_cnf
    (fun (n_vars, clauses) ->
      let assumption = lit 0 in
      let expected =
        Sat.Brute.is_satisfiable ~n_vars ([ assumption ] :: clauses)
      in
      let s = Sat.Solver.create () in
      for _ = 1 to n_vars do
        ignore (Sat.Solver.new_var s)
      done;
      List.iter (Sat.Solver.add_clause s) clauses;
      match Sat.Solver.solve ~assumptions:[ assumption ] s with
      | Sat.Solver.Sat -> expected
      | Sat.Solver.Unsat -> not expected
      | Sat.Solver.Unknown -> false)

(* Random assumptions: up to 3 literals over the CNF's variables, signs
   free, duplicates and contradictory pairs allowed (both are legal inputs
   to [solve] and must be handled). *)
let gen_cnf_with_assumptions =
  QCheck2.Gen.(
    let* n_vars, clauses = gen_cnf in
    let gen_lit =
      let* v = int_range 0 (n_vars - 1) in
      let* sign = bool in
      return (lit ~sign v)
    in
    let* n_assumps = int_range 0 3 in
    let* assumptions = list_size (return n_assumps) gen_lit in
    return (n_vars, clauses, assumptions))

let holds_in_model s l =
  let b = Sat.Solver.model_value s (Sat.Lit.var l) in
  if Sat.Lit.sign l then b else not b

let prop_solver_differential_core =
  QCheck2.Test.make ~count:500
    ~name:"CDCL under assumptions agrees with brute force; cores are unsat"
    gen_cnf_with_assumptions (fun (n_vars, clauses, assumptions) ->
      let expected =
        Sat.Brute.is_satisfiable ~n_vars
          (List.map (fun l -> [ l ]) assumptions @ clauses)
      in
      let s = Sat.Solver.create () in
      for _ = 1 to n_vars do
        ignore (Sat.Solver.new_var s)
      done;
      List.iter (Sat.Solver.add_clause s) clauses;
      match Sat.Solver.solve_with_core ~assumptions s with
      | Sat.Solver.Sat, _ ->
        expected
        && List.for_all (List.exists (holds_in_model s)) clauses
        && List.for_all (holds_in_model s) assumptions
      | Sat.Solver.Unsat, core ->
        (not expected)
        (* The core must be a subset of the assumptions... *)
        && List.for_all
             (fun c -> List.exists (Sat.Lit.equal c) assumptions)
             core
        (* ... that genuinely conflicts with the clause set. *)
        && not
             (Sat.Brute.is_satisfiable ~n_vars
                (List.map (fun l -> [ l ]) core @ clauses))
      | Sat.Solver.Unknown, _ -> false)

(* ------------------------------------------------------------------ *)
(* Solver: binary implication lists *)

(* A pure implication chain x0 -> x1 -> ... -> x9 routed entirely through
   the dedicated binary watch lists. *)
let binary_chain s n =
  let vars = Array.init n (fun _ -> Sat.Solver.new_var s) in
  for i = 0 to n - 2 do
    Sat.Solver.add_clause s [ lit ~sign:false vars.(i); lit vars.(i + 1) ]
  done;
  vars

let test_binary_chain_propagation () =
  let s = Sat.Solver.create () in
  let vars = binary_chain s 10 in
  Sat.Solver.add_clause s [ lit vars.(0) ];
  Alcotest.check check_result "sat" Sat.Solver.Sat (Sat.Solver.solve s);
  (* The whole chain is forced at level 0; value_lit exposes the roots
     even after the post-solve backtrack. *)
  Array.iter
    (fun v ->
      Alcotest.(check int) "root implied" 1 (Sat.Solver.value_lit s (lit v)))
    vars

let test_binary_chain_unsat () =
  let s = Sat.Solver.create () in
  let vars = binary_chain s 10 in
  Sat.Solver.add_clause s [ lit vars.(0) ];
  Sat.Solver.add_clause s [ lit ~sign:false vars.(9) ];
  Alcotest.check check_result "unsat through binaries" Sat.Solver.Unsat
    (Sat.Solver.solve s)

let test_binary_conflict_under_assumptions () =
  (* a -> b and a -> ~b: assuming a conflicts purely inside the binary
     lists; the core must report a and the solver must stay usable. *)
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s and b = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ lit ~sign:false a; lit b ];
  Sat.Solver.add_clause s [ lit ~sign:false a; lit ~sign:false b ];
  let r, core = Sat.Solver.solve_with_core ~assumptions:[ lit a ] s in
  Alcotest.check check_result "unsat under a" Sat.Solver.Unsat r;
  Alcotest.(check bool) "core = {a}" true
    (List.exists (Sat.Lit.equal (lit a)) core);
  Alcotest.check check_result "sat without assumptions" Sat.Solver.Sat
    (Sat.Solver.solve s);
  Alcotest.(check int) "a forced false" 0 (Sat.Solver.value_lit s (lit a))

(* ------------------------------------------------------------------ *)
(* Solver: LBD bookkeeping and learnt-database reduction *)

let pigeonhole_solver ~pigeons ~holes =
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

let test_lbd_invariants () =
  let s = pigeonhole_solver ~pigeons:5 ~holes:4 in
  Alcotest.check check_result "php(5,4) unsat" Sat.Solver.Unsat
    (Sat.Solver.solve s);
  let st = Sat.Solver.stats s in
  Alcotest.(check bool) "learnt something" true (st.learnt_clauses > 0);
  Alcotest.(check bool) "every learnt has LBD >= 1" true
    (st.learnt_lbd_sum >= st.learnt_clauses);
  Alcotest.(check bool) "glue subset of learnts" true
    (st.glue_clauses <= st.learnt_clauses);
  Alcotest.(check bool) "avg LBD >= 1" true
    (Sat.Solver.avg_learnt_lbd st >= 1.0);
  Alcotest.(check bool) "solve time recorded" true (st.solve_time > 0.0);
  Alcotest.(check bool) "props/s computable" true
    (Sat.Solver.props_per_second st > 0.0)

let test_reduce_db () =
  let s = pigeonhole_solver ~pigeons:5 ~holes:4 in
  Alcotest.check check_result "unsat" Sat.Solver.Unsat (Sat.Solver.solve s);
  let before = Sat.Solver.n_learnts s in
  let st = Sat.Solver.copy_stats (Sat.Solver.stats s) in
  Sat.Solver.reduce_db s;
  let after = Sat.Solver.n_learnts s in
  let st' = Sat.Solver.stats s in
  Alcotest.(check bool) "learnt count did not grow" true (after <= before);
  Alcotest.(check int) "one more reduction pass" (st.db_reductions + 1)
    st'.db_reductions;
  Alcotest.(check int) "deleted counter matches eviction"
    (st.deleted_clauses + (before - after))
    st'.deleted_clauses

(* Regression: the old size-based trigger never fired at mapping scale,
   leaving reduce_db/deletions at 0 in every bench row; the conflict-count
   schedule must fire. *)
let test_reduce_db_fires () =
  let s = pigeonhole_solver ~pigeons:6 ~holes:5 in
  Sat.Solver.set_reduce_db_params s ~first:60 ~inc:30;
  Alcotest.check check_result "php(6,5) unsat" Sat.Solver.Unsat
    (Sat.Solver.solve s);
  let st = Sat.Solver.stats s in
  Alcotest.(check bool) "at least one reduction pass" true
    (st.Sat.Solver.db_reductions >= 1);
  Alcotest.(check bool) "clauses were deleted" true
    (st.Sat.Solver.deleted_clauses > 0)

let test_reduce_db_params_validated () =
  let s = Sat.Solver.create () in
  Alcotest.check_raises "first must be >= 1"
    (Invalid_argument "Solver.set_reduce_db_params") (fun () ->
      Sat.Solver.set_reduce_db_params s ~first:0 ~inc:10);
  Alcotest.check_raises "inc must be >= 0"
    (Invalid_argument "Solver.set_reduce_db_params") (fun () ->
      Sat.Solver.set_reduce_db_params s ~first:10 ~inc:(-1))

let test_deadline_returns_unknown () =
  (* An already-expired deadline must stop the search almost immediately,
     even though php(7,6) takes thousands of conflicts to refute. *)
  let s = pigeonhole_solver ~pigeons:7 ~holes:6 in
  let r = Sat.Solver.solve ~deadline:(Unix.gettimeofday () -. 1.0) s in
  Alcotest.check check_result "unknown" Sat.Solver.Unknown r;
  (* Without a deadline the same solver finishes the refutation. *)
  Alcotest.check check_result "still refutable" Sat.Solver.Unsat
    (Sat.Solver.solve s)

(* ------------------------------------------------------------------ *)
(* Cardinality encodings *)

let popcount_true model lits =
  List.length (List.filter (fun l -> model (Sat.Lit.var l)) lits)

let check_amo_encoding encoding () =
  (* For each k, force k specific inputs true and check satisfiability of
     the at-most-one constraint is exactly (k <= 1). *)
  for n = 1 to 6 do
    for k = 0 to n do
      let s = Sat.Solver.create () in
      let sink = Sat.Sink.of_solver s in
      let inputs = List.init n (fun _ -> Sat.Lit.of_var (sink.fresh_var ())) in
      Sat.Card.at_most_one ~encoding sink inputs;
      List.iteri
        (fun i l ->
          Sat.Solver.add_clause s [ (if i < k then l else Sat.Lit.neg l) ])
        inputs;
      let expected = if k <= 1 then Sat.Solver.Sat else Sat.Solver.Unsat in
      Alcotest.check check_result
        (Printf.sprintf "amo n=%d k=%d" n k)
        expected (Sat.Solver.solve s)
    done
  done

let test_exactly_one () =
  for n = 1 to 6 do
    let s = Sat.Solver.create () in
    let sink = Sat.Sink.of_solver s in
    let inputs = List.init n (fun _ -> Sat.Lit.of_var (sink.fresh_var ())) in
    Sat.Card.exactly_one sink inputs;
    Alcotest.check check_result "eo sat" Sat.Solver.Sat (Sat.Solver.solve s);
    let count =
      popcount_true (Sat.Solver.model_value s) inputs
    in
    Alcotest.(check int) (Printf.sprintf "eo count n=%d" n) 1 count
  done

let prop_totalizer_counts =
  QCheck2.Test.make ~count:100 ~name:"totalizer outputs form a unary counter"
    QCheck2.Gen.(
      let* n = int_range 1 8 in
      let* forced = list_size (return n) bool in
      return (n, forced))
    (fun (n, forced) ->
      let s = Sat.Solver.create () in
      let sink = Sat.Sink.of_solver s in
      let inputs = List.init n (fun _ -> Sat.Lit.of_var (sink.fresh_var ())) in
      let out = Sat.Card.totalizer sink inputs in
      List.iteri
        (fun i l ->
          Sat.Solver.add_clause s
            [ (if List.nth forced i then l else Sat.Lit.neg l) ])
        inputs;
      match Sat.Solver.solve s with
      | Sat.Solver.Sat ->
        let k = List.length (List.filter Fun.id forced) in
        Array.for_all Fun.id
          (Array.mapi
             (fun i o -> Sat.Solver.model_value s (Sat.Lit.var o) = (i < k))
             out)
      | Sat.Solver.Unsat | Sat.Solver.Unknown -> false)

let test_at_most_k () =
  for n = 2 to 6 do
    for k = 0 to n do
      let s = Sat.Solver.create () in
      let sink = Sat.Sink.of_solver s in
      let inputs = List.init n (fun _ -> Sat.Lit.of_var (sink.fresh_var ())) in
      ignore (Sat.Card.at_most_k_totalizer sink inputs k);
      (* Force all n true: satisfiable iff n <= k. *)
      List.iter (fun l -> Sat.Solver.add_clause s [ l ]) inputs;
      let expected = if n <= k then Sat.Solver.Sat else Sat.Solver.Unsat in
      Alcotest.check check_result
        (Printf.sprintf "amk n=%d k=%d" n k)
        expected (Sat.Solver.solve s)
    done
  done

(* ------------------------------------------------------------------ *)
(* Formula / Tseitin *)

let gen_formula =
  let open QCheck2.Gen in
  let n_vars = 5 in
  sized_size (int_range 1 20) @@ fix (fun self size ->
      if size <= 1 then
        oneof
          [
            (let* v = int_range 0 (n_vars - 1) in
             let* sign = bool in
             return (Sat.Formula.atom ~sign v));
            return Sat.Formula.True;
            return Sat.Formula.False;
          ]
      else
        let sub = self (size / 2) in
        oneof
          [
            (let* a = sub in
             return (Sat.Formula.Not a));
            (let* a = sub and* b = sub in
             return (Sat.Formula.And [ a; b ]));
            (let* a = sub and* b = sub in
             return (Sat.Formula.Or [ a; b ]));
            (let* a = sub and* b = sub in
             return (Sat.Formula.Imp (a, b)));
            (let* a = sub and* b = sub in
             return (Sat.Formula.Iff (a, b)));
          ])

let prop_tseitin_equisat =
  QCheck2.Test.make ~count:200 ~name:"Tseitin preserves satisfiability"
    gen_formula (fun f ->
      let n_vars = 5 in
      (* Semantic satisfiability by enumeration. *)
      let rec exists_model a =
        a < 32
        && (Sat.Formula.eval (fun v -> (a lsr v) land 1 = 1) f
           || exists_model (a + 1))
      in
      let expected = exists_model 0 in
      let s = Sat.Solver.create () in
      for _ = 1 to n_vars do
        ignore (Sat.Solver.new_var s)
      done;
      let sink = Sat.Sink.of_solver s in
      Sat.Formula.assert_in sink f;
      match Sat.Solver.solve s with
      | Sat.Solver.Sat ->
        expected
        && Sat.Formula.eval (fun v -> Sat.Solver.model_value s v) f
      | Sat.Solver.Unsat -> not expected
      | Sat.Solver.Unknown -> false)

let prop_nnf_preserves_semantics =
  QCheck2.Test.make ~count:200 ~name:"NNF preserves semantics" gen_formula
    (fun f ->
      let g = Sat.Formula.nnf true f in
      let ok = ref true in
      for a = 0 to 31 do
        let assignment v = (a lsr v) land 1 = 1 in
        if Sat.Formula.eval assignment f <> Sat.Formula.eval assignment g then
          ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* DIMACS *)

let test_dimacs_roundtrip () =
  let clauses =
    [ [ lit 0; lit ~sign:false 1 ]; [ lit 2 ]; [ lit ~sign:false 0; lit 1 ] ]
  in
  let path = Filename.temp_file "test" ".cnf" in
  Sat.Dimacs.cnf_to_file path ~n_vars:3 clauses;
  let n_vars, parsed = Sat.Dimacs.parse_cnf_file path in
  Sys.remove path;
  Alcotest.(check int) "vars" 3 n_vars;
  Alcotest.(check int) "clauses" 3 (List.length parsed);
  List.iter2
    (fun c c' ->
      Alcotest.(check (list int))
        "clause"
        (List.map Sat.Lit.to_dimacs c)
        (List.map Sat.Lit.to_dimacs c'))
    clauses parsed

let test_dimacs_model_parse () =
  let model =
    Sat.Dimacs.parse_model_lines ~n_vars:4
      [ "c comment"; "s SATISFIABLE"; "v 1 -2 3"; "v 4 0" ]
  in
  Alcotest.(check (array bool)) "model" [| true; false; true; true |] model

let test_wcnf_emission () =
  let path = Filename.temp_file "test" ".wcnf" in
  Sat.Dimacs.wcnf_to_file path ~n_vars:2
    ~hard:[ [ lit 0; lit 1 ] ]
    ~soft:[ (3, [ lit ~sign:false 0 ]); (2, [ lit ~sign:false 1 ]) ];
  let contents =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  Alcotest.(check bool) "header" true
    (String.length contents > 0
    && String.sub contents 0 12 = "p wcnf 2 3 6")

let prop_dimacs_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"write_cnf/parse_cnf round-trip" gen_cnf
    (fun (n_vars, clauses) ->
      let path = Filename.temp_file "roundtrip" ".cnf" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Sat.Dimacs.cnf_to_file path ~n_vars clauses;
          let n_vars', parsed = Sat.Dimacs.parse_cnf_file path in
          let dimacs c = List.map Sat.Lit.to_dimacs c in
          n_vars' = n_vars
          && List.length parsed = List.length clauses
          && List.for_all2 (fun c c' -> dimacs c = dimacs c') clauses parsed))

let expect_parse_error name contents =
  let path = Filename.temp_file "malformed" ".cnf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      match Sat.Dimacs.parse_cnf_file path with
      | exception Sat.Dimacs.Parse_error _ -> ()
      | _ -> Alcotest.failf "%s: expected Parse_error" name)

let test_dimacs_malformed () =
  (* Malformed headers and literals must raise Parse_error rather than
     silently truncating the formula. *)
  expect_parse_error "non-numeric var count" "p cnf x 2\n1 0\n-1 0\n";
  expect_parse_error "non-numeric clause count" "p cnf 2 y\n1 0\n";
  expect_parse_error "negative var count" "p cnf -3 1\n1 0\n";
  expect_parse_error "negative clause count" "p cnf 3 -1\n1 0\n";
  expect_parse_error "literal out of range" "p cnf 3 1\n99 0\n";
  expect_parse_error "negative literal out of range" "p cnf 3 1\n-99 0\n";
  expect_parse_error "bad literal token" "p cnf 3 1\n1 two 0\n";
  expect_parse_error "unterminated trailing clause" "p cnf 3 1\n1 2\n";
  expect_parse_error "clause count mismatch" "p cnf 3 2\n1 -2 0\n"

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "vec",
      [
        Alcotest.test_case "push/pop/shrink" `Quick test_vec_push_pop;
        Alcotest.test_case "filter_in_place" `Quick test_vec_filter;
        Alcotest.test_case "sort" `Quick test_vec_sort;
      ] );
    ( "heap",
      [
        Alcotest.test_case "priority order" `Quick test_heap_order;
        Alcotest.test_case "update" `Quick test_heap_update;
      ] );
    ("lit", [ Alcotest.test_case "roundtrips" `Quick test_lit_roundtrip ]);
    ( "solver",
      [
        Alcotest.test_case "trivial sat" `Quick test_solver_trivial_sat;
        Alcotest.test_case "trivial unsat" `Quick test_solver_trivial_unsat;
        Alcotest.test_case "empty clause" `Quick test_solver_empty_clause;
        Alcotest.test_case "no clauses" `Quick test_solver_no_clauses;
        Alcotest.test_case "forced model" `Quick test_solver_model;
        Alcotest.test_case "pigeonhole unsat" `Quick test_solver_pigeonhole;
        Alcotest.test_case "assumptions" `Quick test_solver_assumptions;
        Alcotest.test_case "incremental" `Quick test_solver_incremental;
        qtest prop_solver_agrees_with_brute;
        qtest prop_solver_assumptions_sound;
        qtest prop_solver_differential_core;
      ] );
    ( "solver-binary",
      [
        Alcotest.test_case "chain propagation" `Quick
          test_binary_chain_propagation;
        Alcotest.test_case "chain unsat" `Quick test_binary_chain_unsat;
        Alcotest.test_case "conflict under assumptions" `Quick
          test_binary_conflict_under_assumptions;
      ] );
    ( "solver-learnts",
      [
        Alcotest.test_case "LBD invariants" `Quick test_lbd_invariants;
        Alcotest.test_case "reduce_db" `Quick test_reduce_db;
        Alcotest.test_case "expired deadline" `Quick
          test_deadline_returns_unknown;
      ] );
    ( "reduce-db",
      [
        Alcotest.test_case "forced reduction" `Quick test_reduce_db_fires;
        Alcotest.test_case "param validation" `Quick
          test_reduce_db_params_validated;
      ] );
    ( "card",
      [
        Alcotest.test_case "amo pairwise" `Quick
          (check_amo_encoding Sat.Card.Pairwise);
        Alcotest.test_case "amo sequential" `Quick
          (check_amo_encoding Sat.Card.Sequential);
        Alcotest.test_case "amo commander" `Quick
          (check_amo_encoding Sat.Card.Commander);
        Alcotest.test_case "exactly one" `Quick test_exactly_one;
        Alcotest.test_case "at most k" `Quick test_at_most_k;
        qtest prop_totalizer_counts;
      ] );
    ( "formula",
      [ qtest prop_tseitin_equisat; qtest prop_nnf_preserves_semantics ] );
    ( "dimacs",
      [
        Alcotest.test_case "cnf roundtrip" `Quick test_dimacs_roundtrip;
        Alcotest.test_case "model parsing" `Quick test_dimacs_model_parse;
        Alcotest.test_case "wcnf emission" `Quick test_wcnf_emission;
        Alcotest.test_case "malformed input" `Quick test_dimacs_malformed;
        qtest prop_dimacs_roundtrip;
      ] );
  ]

let () = Alcotest.run "sat" suite
