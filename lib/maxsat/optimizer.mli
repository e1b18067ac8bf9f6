(** Anytime MaxSAT optimizer (linear SAT-to-UNSAT descent).

    Mirrors the role Open-WBO-Inc-MCS plays in the paper: a loop around a
    SAT solver that can be interrupted at any point after the first model
    and still yields the best solution found so far.  The descent runs
    until UNSAT or a proved lower bound: a caller that knows no model
    costs less than [lower_bound] skips the refutation below it.

    The descent is incremental by default: one persistent solver lives
    across the whole SAT-to-UNSAT sequence and each bound
    "objective <= k" is a selector literal activated by assumption, so a
    deadline-expired descent can {!resume} exactly where it stopped and
    bound clauses never poison later solver calls.  [certify] opts out
    (see {!solve}): assumption-activated bounds are not DRUP-replayable
    as permanent units, so certified runs keep the historical
    permanent-bound from-scratch path. *)

type outcome = {
  cost : int;  (** total weight of falsified soft clauses *)
  model : bool array;  (** indexed by variable *)
  iterations : int;  (** number of satisfiable solver calls *)
  solve_time : float;
      (** wall-clock seconds, accumulated across {!resume} calls *)
  solver_stats : Sat.Solver.stats;
      (** snapshot of the underlying CDCL solver's counters at the end of
          the descent (conflicts, propagations, learnt-LBD totals, ...) *)
  certificate : Certify.report option;
      (** [Some r] iff [solve ~certify:true]: the aggregate result of
          re-checking every UNSAT bound with the independent proof
          checker ([Certify.ok r] = all claims verified; an optimum
          reached without any UNSAT, e.g. cost 0, checks zero proofs —
          [Certify.vacuous r] — and supports no certified claim). *)
}

type result =
  | Optimal of outcome
  | Feasible of outcome  (** deadline hit after at least one model *)
  | Unsatisfiable of Certify.report option
      (** the hard clauses alone are infeasible.  Under
          [solve ~certify:true] the payload is [Some r] where [r] is the
          independent checker's verdict on the initial refutation — a
          hard-UNSAT answer is certified exactly like a descent bound. *)
  | Timeout  (** deadline hit before any model was found *)

val best_outcome : result -> outcome option

val solve :
  ?deadline:float ->
  ?certify:bool ->
  ?report:(iteration:int -> cost:int -> stats:Sat.Solver.stats -> unit) ->
  ?incremental:bool ->
  ?lower_bound:int ->
  Instance.t ->
  result
(** [deadline] is an absolute [Unix.gettimeofday] instant.  [certify]
    (default [false]) enables DRUP proof logging and re-checks the final
    infeasible bound with the independent checker; the verdict lands in
    [outcome.certificate].  [report] is invoked after every satisfiable
    iteration of the descent with the iteration number, the model's
    cost, and the {e live} solver stats (snapshot with
    {!Sat.Solver.copy_stats} if retained).

    [incremental] (default [true]) activates each descent bound by a
    selector-literal assumption instead of a permanent unit clause; with
    [false] (and always under [certify], which forces it off) every
    bound is asserted permanently — the historical from-scratch
    behaviour, preserved bit for bit.

    [lower_bound] (default 0) is a proved lower bound on the optimum:
    the descent finishes [Optimal] at the first model whose cost reaches
    it, without the refutation of the bound below, and counts that stop
    in [maxsat.lower_bound_stops] when the bound is positive.  A model
    that costs less raises [Failure]: the bound was not a bound. *)

val optimal_cost :
  ?deadline:float ->
  ?certify:bool ->
  ?incremental:bool ->
  Instance.t ->
  int option
(** The optimal cost, or [None] if optimality was not proved in time.
    Forwards every option to {!solve}. *)

(** {2 Resumable descents}

    [solve] is [start] followed by one [resume].  Callers that want
    anytime behaviour {e across} deadlines keep the session: a [resume]
    whose deadline expires returns [Feasible]/[Timeout] but leaves the
    loaded solver, the bound selectors and the best model in place, and
    the next [resume] continues the descent from there (counted by the
    [descent.resumed] metric). *)

type session

val start :
  ?certify:bool ->
  ?incremental:bool ->
  ?lower_bound:int ->
  Instance.t ->
  session
(** Create the solver, load the instance, and return the (not yet run)
    descent.  Options as in {!solve}. *)

val resume :
  ?deadline:float ->
  ?report:(iteration:int -> cost:int -> stats:Sat.Solver.stats -> unit) ->
  session ->
  result
(** Run (or continue) the descent until optimal, unsatisfiable, or the
    deadline.  Terminal verdicts ([Optimal]/[Unsatisfiable]) are
    memoized: a later [resume] returns them without touching the
    solver. *)

val resumed : session -> int
(** How many times this session continued a previously-started descent
    (0 for a session resumed at most once). *)

(** {2 Shared-skeleton descents}

    The routing layer keeps one solver loaded with the slice-independent
    part of the QMR encoding and runs one descent per slice over it.
    {!attach} builds a session over such an externally-owned solver:
    [relax] is the objective (weight, relaxation literal) list,
    [assumptions] the caller's activation context (passed to every
    solver call), and [bounds] the selector table shared by every
    session on the same solver.  Bounds are always assumption-activated
    here, and no certification is available (use the from-scratch path
    for that).  [lower_bound] is as in {!solve}. *)

type bounds

val shared_bounds : unit -> bounds

val attach :
  ?assumptions:Sat.Lit.t list ->
  ?bounds:bounds ->
  ?lower_bound:int ->
  solver:Sat.Solver.t ->
  relax:(int * Sat.Lit.t) list ->
  unit ->
  session
