(* Anytime MaxSAT by linear SAT-to-UNSAT descent, the same overall loop as
   the solver the paper uses (Open-WBO-Inc-MCS): find a model, bound the
   objective strictly below its cost, and repeat until UNSAT or a proved
   lower bound (optimal) or until the deadline expires (best-so-far is
   returned).  The lower bound is the caller's: a model whose cost reaches
   it is optimal without the refutation below it (the routing layer
   passes 1 for a free block whose interaction graph does not embed in
   the device).

   Unit-weight objectives use an incremental totalizer; weighted
   objectives use a binary adder network with a lexicographic comparator.

   The descent is *incremental* by default: one solver lives across the
   whole SAT->UNSAT sequence, and each bound "objective <= k" is a
   selector literal a_k activated by assumption (every bound clause is
   emitted as a_k => C).  Two things fall out of that:

   - the descent is resumable: a deadline-expired [resume] leaves the
     solver exactly where it stopped, and a later [resume] picks the
     descent up at the current best bound instead of restarting;
   - the bound table is shareable: the selector for bound k, once built,
     works for any later descent over the same objective literals (the
     routing layer exploits this across slices sharing a skeleton).

   Certification opts out ([certify] forces [incremental] off): a DRUP
   trace replays permanent clause additions, and an UNSAT reached only
   under assumptions is not derivable from the recorded CNF alone — so
   certified descents keep the historical permanent-bound, from-scratch
   path bit for bit. *)

type outcome = {
  cost : int;
  model : bool array;
  iterations : int;
  solve_time : float;
  solver_stats : Sat.Solver.stats;
  certificate : Certify.report option;
}

type result =
  | Optimal of outcome
  | Feasible of outcome  (** deadline hit after at least one model *)
  | Unsatisfiable of Certify.report option
      (** the hard clauses alone are infeasible; the payload carries the
          certified refutation when [certify] was requested *)
  | Timeout  (** deadline hit before any model was found *)

let best_outcome = function
  | Optimal o | Feasible o -> Some o
  | Unsatisfiable _ | Timeout -> None

let m_iterations = Obs.Metrics.counter "maxsat.iterations"
let m_optima = Obs.Metrics.counter "maxsat.optima_proved"

(* Entries into the optimizer ([solve]/[start]/[attach]) — the
   denominator the serving layer's result cache drives down: a
   block-cache hit skips the engagement entirely. *)
let m_solves = Obs.Metrics.counter "maxsat.solves"

(* Descents that ended at their caller's lower bound: each one is a
   refutation the descent did not run. *)
let m_lower_bound_stops = Obs.Metrics.counter "maxsat.lower_bound_stops"

(* Descents continued across an expired deadline: a [resume] on a
   session that already ran at least once. *)
let m_resumed = Obs.Metrics.counter "descent.resumed"

(* Relaxation literals: for a soft clause C, a literal r such that r true
   "pays" the clause's weight.  Unit softs [l] reuse ~l directly — the
   common case in the QMR encoding (soft swap no-ops) adds no variables.
   All clauses go through the sink so that, under --certify, the
   certificate recorder sees the full CNF. *)
let relaxation_lits (sink : Sat.Sink.t) soft =
  List.map
    (fun (w, clause) ->
      match clause with
      | [ l ] -> (w, Sat.Lit.neg l)
      | _ ->
        let r = Sat.Lit.of_var (sink.fresh_var ()) in
        sink.add_clause (r :: clause);
        (w, r))
    soft

let model_array solver =
  Array.init (Sat.Solver.n_vars solver) (Sat.Solver.model_value solver)

let cost_of_relax solver relax =
  List.fold_left
    (fun acc (w, r) ->
      let b = Sat.Solver.model_value solver (Sat.Lit.var r) in
      let active = if Sat.Lit.sign r then b else not b in
      if active then acc + w else acc)
    0 relax

type bound_machinery =
  | Totalizer of Sat.Lit.t array
  | Adder of Adder.number

let build_machinery sink relax unweighted =
  if unweighted then Totalizer (Sat.Card.totalizer sink (List.map snd relax))
  else Adder (Adder.sum sink relax)

(* Add clauses forcing objective <= k.  Sound to add permanently: the
   sequence of bounds is strictly decreasing.  This is the certify-mode
   (from-scratch) path. *)
let assert_bound (sink : Sat.Sink.t) machinery k =
  match machinery with
  | Totalizer out ->
    if k < Array.length out then sink.add_clause [ Sat.Lit.neg out.(k) ]
    else ()
  | Adder bits -> Adder.assert_le sink bits k

(* The memoized selector table: assuming [selector k] forces
   objective <= k.  Shared across every descent over the same objective
   (same machinery, same solver) — the routing layer hands one [bounds]
   value to consecutive slices on a shared skeleton. *)
type bounds = {
  mutable b_machinery : bound_machinery option;
  mutable b_selectors : (int * Sat.Lit.t) list;
}

let shared_bounds () = { b_machinery = None; b_selectors = [] }

(* Every clause of the bound goes out guarded by ~a_k, so an inactive
   selector leaves the formula untouched (a later, looser descent on the
   same solver is not constrained by an earlier, tighter bound). *)
let guard_sink g (sink : Sat.Sink.t) =
  {
    sink with
    Sat.Sink.add_clause = (fun c -> sink.Sat.Sink.add_clause (Sat.Lit.neg g :: c));
  }

type session = {
  s_solver : Sat.Solver.t;
  s_sink : Sat.Sink.t;
  s_relax : (int * Sat.Lit.t) list;
  s_unweighted : bool;
  s_assumptions : Sat.Lit.t list;
      (** caller context (e.g. the routing layer's activation guard)
          passed to every solver call of the descent *)
  s_bounds : bounds;
  s_lower_bound : int;
      (** proved by the caller: no model costs less, so a model that
          costs this much is optimal *)
  s_incremental : bool;
  s_recorder : Proof.Certificate.recorder option;
  mutable s_cert : Certify.report option;
  mutable s_best : (int * bool array) option;
  mutable s_iterations : int;
  mutable s_attempts : int;  (** completed [resume] entries *)
  mutable s_solve_time : float;  (** accumulated across resumes *)
  mutable s_result : result option;  (** memoized terminal verdict *)
}

let selector_for s machinery k =
  match List.assoc_opt k s.s_bounds.b_selectors with
  | Some a -> a
  | None ->
    let a = Sat.Lit.of_var (Sat.Solver.new_var s.s_solver) in
    (* Default the selector off so unrelated solver calls on the same
       solver are not accidentally biased into the bound. *)
    Sat.Solver.set_polarity s.s_solver (Sat.Lit.var a) false;
    let gsink = guard_sink a s.s_sink in
    (match machinery with
    | Totalizer out ->
      if k < Array.length out then gsink.Sat.Sink.add_clause [ Sat.Lit.neg out.(k) ]
    | Adder bits -> Adder.assert_le gsink bits k);
    s.s_bounds.b_selectors <- (k, a) :: s.s_bounds.b_selectors;
    a

let resumed s = max 0 (s.s_attempts - 1)

let resume ?deadline ?report (s : session) =
  match s.s_result with
  | Some r -> r
  | None ->
    let t0 = Unix.gettimeofday () in
    if s.s_attempts > 0 then Obs.Metrics.incr m_resumed;
    s.s_attempts <- s.s_attempts + 1;
    let certify_unsat () =
      match s.s_recorder with
      | None -> ()
      | Some r ->
        let report = Certify.certify_refutation r in
        s.s_cert <-
          Some
            (Certify.merge (Option.value ~default:Certify.empty s.s_cert) report)
    in
    let report_iteration iteration cost =
      match report with
      | None -> ()
      | Some f -> f ~iteration ~cost ~stats:(Sat.Solver.stats s.s_solver)
    in
    (* One span per descent iteration: the bound being attempted going in,
       the solver's verdict (and model cost, when SAT) coming out. *)
    let iteration_span iteration bound =
      if Obs.Trace.enabled () then
        Obs.Trace.start "maxsat.iteration"
          ~args:
            [
              ("iteration", Obs.Trace.Int iteration);
              ("bound", Obs.Trace.Int bound);
            ]
      else Obs.Trace.null_span
    in
    let stop_iteration span ?cost outcome =
      Obs.Metrics.incr m_iterations;
      if span != Obs.Trace.null_span then
        Obs.Trace.stop span
          ~args:
            (("outcome", Obs.Trace.Str outcome)
            ::
            (match cost with
            | None -> []
            | Some c -> [ ("cost", Obs.Trace.Int c) ]))
    in
    let elapse () = s.s_solve_time <- s.s_solve_time +. (Unix.gettimeofday () -. t0) in
    let finish kind =
      let cost, model =
        match s.s_best with Some cm -> cm | None -> assert false
      in
      elapse ();
      let o =
        {
          cost;
          model;
          iterations = s.s_iterations;
          solve_time = s.s_solve_time;
          solver_stats = Sat.Solver.copy_stats (Sat.Solver.stats s.s_solver);
          certificate = s.s_cert;
        }
      in
      match kind with
      | `Optimal ->
        Obs.Metrics.incr m_optima;
        let r = Optimal o in
        s.s_result <- Some r;
        r
      | `Feasible -> Feasible o
    in
    let rec descend () =
      let best_cost = match s.s_best with Some (c, _) -> c | None -> 0 in
      if best_cost < s.s_lower_bound then
        failwith "Optimizer: a model costs less than the proved lower bound";
      if best_cost = s.s_lower_bound || s.s_relax = [] then begin
        if s.s_lower_bound > 0 then Obs.Metrics.incr m_lower_bound_stops;
        finish `Optimal
      end
      else begin
        let machinery =
          match s.s_bounds.b_machinery with
          | Some m -> m
          | None ->
            let m = build_machinery s.s_sink s.s_relax s.s_unweighted in
            s.s_bounds.b_machinery <- Some m;
            m
        in
        let bound = best_cost - 1 in
        let extra =
          if s.s_incremental then [ selector_for s machinery bound ]
          else begin
            assert_bound s.s_sink machinery bound;
            []
          end
        in
        let span = iteration_span (s.s_iterations + 1) bound in
        match
          Sat.Solver.solve ~assumptions:(s.s_assumptions @ extra) ?deadline
            s.s_solver
        with
        | Sat.Solver.Sat ->
          s.s_iterations <- s.s_iterations + 1;
          let cost = cost_of_relax s.s_solver s.s_relax in
          stop_iteration span ~cost "sat";
          (* The bound guarantees progress; guard against a stuck loop in
             case of an encoding bug. *)
          if cost >= best_cost then
            failwith "Optimizer: objective did not decrease";
          s.s_best <- Some (cost, model_array s.s_solver);
          report_iteration s.s_iterations cost;
          descend ()
        | Sat.Solver.Unsat ->
          stop_iteration span "unsat";
          (* The descent's one infeasibility claim: cost < best_cost has
             no model.  Certify it before reporting optimality. *)
          certify_unsat ();
          finish `Optimal
        | Sat.Solver.Unknown ->
          stop_iteration span "unknown";
          finish `Feasible
      end
    in
    (match s.s_best with
    | Some _ -> descend ()
    | None -> (
      let span0 = iteration_span (s.s_iterations + 1) (-1) in
      match
        Sat.Solver.solve ~assumptions:s.s_assumptions ?deadline s.s_solver
      with
      | Sat.Solver.Unsat ->
        stop_iteration span0 "unsat";
        (* The initial refutation is the optimizer's strongest claim —
           the hard clauses alone are infeasible — so under --certify it
           must be re-checked like every descent bound. *)
        certify_unsat ();
        elapse ();
        let r = Unsatisfiable s.s_cert in
        s.s_result <- Some r;
        r
      | Sat.Solver.Unknown ->
        stop_iteration span0 "unknown";
        elapse ();
        (* Not memoized: a later [resume] retries the initial solve. *)
        Timeout
      | Sat.Solver.Sat ->
        s.s_iterations <- s.s_iterations + 1;
        let cost = cost_of_relax s.s_solver s.s_relax in
        stop_iteration span0 ~cost "sat";
        s.s_best <- Some (cost, model_array s.s_solver);
        report_iteration s.s_iterations cost;
        descend ()))

let start ?(certify = false) ?incremental ?(lower_bound = 0) instance =
  Obs.Metrics.incr m_solves;
  let t0 = Unix.gettimeofday () in
  (* Certification forces permanent bounds: an UNSAT reached only under
     a selector assumption is not derivable from the recorded CNF
     alone. *)
  let incremental =
    (match incremental with Some b -> b | None -> true) && not certify
  in
  let solver = Sat.Solver.create () in
  (* With certification on, every clause is recorded alongside the
     solver's proof trace so each UNSAT bound can be re-checked by the
     independent checker. *)
  let recorder =
    if certify then Some (Proof.Certificate.create solver) else None
  in
  let sink =
    match recorder with
    | Some r -> Proof.Certificate.sink r
    | None -> Sat.Sink.of_solver solver
  in
  for _ = 1 to Instance.n_vars instance do
    ignore (Sat.Solver.new_var solver)
  done;
  List.iter sink.Sat.Sink.add_clause (Instance.hard instance);
  let relax = relaxation_lits sink (Instance.soft instance) in
  (* Bias the search towards satisfying the soft clauses so that the first
     model is already cheap and the descent starts near the optimum. *)
  List.iter
    (fun (_, r) ->
      Sat.Solver.set_polarity solver (Sat.Lit.var r) (not (Sat.Lit.sign r)))
    relax;
  {
    s_solver = solver;
    s_sink = sink;
    s_relax = relax;
    s_unweighted = Instance.is_unweighted instance;
    s_assumptions = [];
    s_bounds = shared_bounds ();
    s_lower_bound = lower_bound;
    s_incremental = incremental;
    s_recorder = recorder;
    s_cert = (if certify then Some Certify.empty else None);
    s_best = None;
    s_iterations = 0;
    s_attempts = 0;
    s_solve_time = Unix.gettimeofday () -. t0;
    s_result = None;
  }

(* Descend over an already-loaded solver (the routing layer's shared
   skeleton): the objective is [relax], solver calls carry [assumptions]
   (the caller's activation guard), and bounds — always
   assumption-activated here — memoize into [bounds] so consecutive
   sessions over the same solver reuse each other's selector clauses. *)
let attach ?(assumptions = []) ?bounds ?(lower_bound = 0) ~solver ~relax () =
  Obs.Metrics.incr m_solves;
  List.iter
    (fun (_, r) ->
      Sat.Solver.set_polarity solver (Sat.Lit.var r) (not (Sat.Lit.sign r)))
    relax;
  {
    s_solver = solver;
    s_sink = Sat.Sink.of_solver solver;
    s_relax = relax;
    s_unweighted = List.for_all (fun (w, _) -> w = 1) relax;
    s_assumptions = assumptions;
    s_bounds = (match bounds with Some b -> b | None -> shared_bounds ());
    s_lower_bound = lower_bound;
    s_incremental = true;
    s_recorder = None;
    s_cert = None;
    s_best = None;
    s_iterations = 0;
    s_attempts = 0;
    s_solve_time = 0.;
    s_result = None;
  }

let solve ?deadline ?certify ?report ?incremental ?lower_bound instance =
  resume ?deadline ?report (start ?certify ?incremental ?lower_bound instance)

(* Convenience used by tests and the CLI. *)
let optimal_cost ?deadline ?certify ?incremental instance =
  match solve ?deadline ?certify ?incremental instance with
  | Optimal o -> Some o.cost
  | Feasible _ | Unsatisfiable _ | Timeout -> None
