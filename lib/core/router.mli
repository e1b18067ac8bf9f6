(** The SATMAP routers (the paper's tool, Section VII).

    - {!route_monolithic}: NL-SATMAP, one MaxSAT instance for the whole
      circuit.
    - {!route_sliced}: SATMAP, the locally-optimal relaxation with
      backtracking at slice seams.
    - {!route_cyclic} / {!route_cyclic_body}: CYC-SATMAP, solve the
      repeated body once with the final-map = initial-map tie and stitch.
    - {!route_portfolio}: try several slice sizes, report the cheapest
      (how the paper runs SATMAP).

    The first three share one block-sequence driver: monolithic routing
    is one block, sliced routing is the slices, and the cyclic
    relaxation ties the last block back to block 0's initial map.  A
    route is [proved_optimal] when it is a single block solved to
    optimality.

    All routers are anytime: a deadline mid-descent yields the best
    solution found so far, flagged as not proved optimal.

    Sliced routing places before it slices: by default slice 0 is pinned
    to {!Placement.place} of the whole circuit, and a pinned block whose
    two-qubit gates all sit on device edges skips the solver — its
    optimum is 0 swaps and its solution is forced (the zero-swap
    shortcut, counted by the [router.zero_swap_blocks] metric).  A block
    whose initial map is free and whose interaction graph does not embed
    in the device needs at least one SWAP, so its descent stops at its
    first one-SWAP model without a refutation (counted by
    [maxsat.lower_bound_stops]). *)

(** Where a route's initial map comes from. *)
type placement =
  | Free  (** the solver chooses it: the paper's SATMAP *)
  | Qap
      (** default: a sliced route that spans more than one slice pins
          slice 0 to {!Placement.place} of the whole circuit; a
          single-slice route, {!route_monolithic} and the cyclic
          relaxation stay free (one block's free optimum is already the
          global optimum, and the cyclic tie needs a free initial map) *)
  | Fixed of int array
      (** an external placement (log -> phys), e.g. a seeder's: pins the
          whole-circuit initial map under {!route_monolithic} and slice 0
          under {!route_sliced} exactly like a seam pin, so the block
          cache stays sound (the pin is part of the {!block_query}) *)

type config = {
  n_swaps : int;  (** the paper's n; default 1 *)
  amo : Sat.Card.encoding;
  coalesce : bool;
  inject_all_gate_layers : bool;
  mobility : bool;  (** redundant one-hop-per-slot clauses; ablation knob *)
  objective : Encoding.objective;
  timeout : float;  (** seconds for the whole call *)
  solver_parallelism : int;
      (** domains {!route_portfolio} runs its slice-size members on
          (default 1: one after another on the caller's domain).  Every
          other route is sequential and ignores it. *)
  backtrack_limit : int;
  max_vars : int;  (** encoding-size guard (the paper's memory cap) *)
  max_clauses : int;  (** clause-count guard (the paper's memory cap) *)
  accept_feasible : bool;
      (** accept anytime (best-so-far) solutions at the deadline; the
          SMT-style baselines disable this *)
  verify : bool;  (** run the independent verifier on every solution *)
  certify : bool;
      (** log DRUP proofs in the MaxSAT engine and re-check every
          infeasible bound with the independent proof checker; the
          verdict is reported in [stats.certified] *)
  lint_blocks : bool;
      (** debug mode: run {!Encoding_lint.check_full} on every block's
          instance before solving it; findings at [Warning] severity or
          above fail the route (a [Failed] outcome) *)
  fault_injection : (Encoding.solution -> Encoding.solution) option;
      (** test seam: corrupt every decoded block solution before replay
          and emission so the internal invariant checks can be exercised
          deterministically.  [None] (always, outside tests). *)
  block_cache : block_cache option;
      (** serving-layer hook ([Service.Block_cache]): consulted once per
          block before {!Maxsat.Optimizer.solve}, so repeated block
          structure stops paying the solver.  Ignored under [certify],
          [lint_blocks] or [fault_injection] — cached solutions carry no
          proofs and must not mask the debug/test paths.  The same
          predicate gates the zero-swap shortcut. *)
  on_improvement : (block:int -> iteration:int -> cost:int -> unit) option;
      (** anytime-progress hook: called from inside the MaxSAT descent
          after every satisfiable iteration with the index of the block
          (slice) being solved, the descent iteration, and the model's
          cost.  Costs are per-block; backtracking may re-solve a block
          and report a higher cost than an earlier call.  The callback
          runs on the solving domain — under {!route_portfolio} on
          several domains, on several at once — so it must be fast,
          domain-safe and must not raise.  [None] by default. *)
  incremental : bool;
      (** share one persistent solver across a route's slices, seam
          retries and descent bounds (default true): the slice-independent
          encoding skeleton is emitted once and per-slice constraints are
          activated by assumption ({!Encoding.Session}).  Automatically
          off under [certify] (assumption-activated bounds are not
          DRUP-replayable), [lint_blocks] and the [Fidelity] objective —
          those paths solve from scratch exactly as before. *)
  reuse_window : int;
      (** activations per shared solver before it is rebuilt (default
          16); a sliced route with B blocks creates about
          [ceil(B / reuse_window)] solvers plus one per budget
          escalation *)
  warm_session : Encoding.Session.t option;
      (** serving-layer hook: a pre-warmed incremental session, so the
          first block of a request can reuse a skeleton built by an
          earlier request on the same device and shape.  [None] (default)
          gives each route a private session.  Not domain-safe: never
          share one session across concurrently running routes. *)
  placement : placement;
      (** default [Qap].  A pinned optimum is optimal {e given} the
          placement, not globally.  Ignored by the cyclic relaxation,
          whose initial map must stay free to close the loop. *)
}

(** Everything a block's solution depends on — the contract a cache key
    must cover.  Keying on any strict subset (e.g. just the gate stream)
    is unsound: solutions found under different pinned seams, blocked
    final maps, the cyclic tie, post slots or swap budgets are not
    interchangeable (DESIGN.md §12). *)
and block_query = {
  bq_device : Arch.Device.t;
  bq_slice : Quantum.Circuit.t;
  bq_n_swaps : int;  (** the budget actually used (after escalation) *)
  bq_post_slots : int;
  bq_cyclic : bool;
  bq_fixed_initial : int array option;
  bq_fixed_final : int array option;
  bq_blocked_finals : int array list;
}

and block_cache = {
  bc_find : config -> block_query -> Encoding.solution option;
      (** a returned solution is used verbatim (marked optimal, zero
          iterations); it must be exactly a solution the optimizer could
          have produced for this query *)
  bc_store : config -> block_query -> Encoding.solution -> unit;
      (** called only with (locally) optimal solutions *)
}

val default_config : config

type stats = {
  time : float;  (** seconds for the whole route, verification included *)
  n_backtracks : int;
  n_blocks : int;
  proved_optimal : bool;
      (** a single block solved to optimality; the blocks of a
          multi-block route are only locally optimal *)
  escalations : int;
  maxsat_iterations : int;
  certified : bool;
      (** certification was on, every block reached its (locally)
          optimal cost, the independent proof checker accepted every
          infeasibility proof, {e and at least one proof was checked}
          ([proofs_checked > 0]); [false] whenever [config.certify] is
          off, and [false] for routes that never produced an UNSAT bound
          (trivial or cost-0 routes) — they verified nothing *)
  proofs_checked : int;
      (** infeasibility proofs independently re-checked across all
          blocks; 0 means [certified] is vacuous and reported [false] *)
  proof_events : int;
      (** learnt/delete proof-trace events across all blocks *)
  certify_time : float;  (** seconds spent inside the proof checker *)
  solver_calls : int;
      (** [Maxsat.Optimizer.solve] invocations this route actually paid
          for.  Without a [block_cache] this counts every block attempt
          (escalations included); with a warm cache it drops below
          [n_blocks], to zero when every block hits. *)
}

type outcome =
  | Routed of Routed.t * stats
  | Failed of string
      (** All [route_*] entry points return [Failed] (never raise) for
          routing failures, including internal invariant violations such
          as a replay/decode mismatch or a block lint finding.
          [Invalid_argument] still escapes for API misuse. *)

(** {2 Block-level API}

    Exposed so tests can pin the per-block contracts without having to
    engineer wall-clock races or corrupted solver models end-to-end. *)

type block_solution = {
  enc : Encoding.t;
  sol : Encoding.solution;
  optimal : bool;
  iterations : int;
  cert : Maxsat.Certify.report option;
}

type block_result =
  | Block_solved of block_solution
  | Block_unsat
  | Block_timeout
  | Block_encode_timeout
      (** the deadline expired during clause emission ({!Encoding.build}
          raised {!Encoding.Encode_timeout}) — the instance was too big
          to even build in budget, reported distinctly from an ordinary
          solver timeout so the failure is visible downstream *)
  | Block_too_large

val slice_budget : deadline:float -> now:float -> blocks_remaining:int -> float
(** The per-block deadline the block walk gives the next block:
    [min deadline (now + max 0.1 ((deadline - now) / blocks_remaining))] —
    the remaining budget split evenly over the remaining blocks, floored
    at 0.1 s so a knife-edge remainder cannot starve a block
    mid-backtrack, and capped at the route deadline so the floor never
    extends the overall budget.  Raises [Invalid_argument] when
    [blocks_remaining < 1]. *)

val session_for : config -> Encoding.Session.t option
(** The incremental session a route with this config would use: the
    [warm_session] if given, a fresh one if [incremental] applies, [None]
    when the config forces the from-scratch path (certify or lint). *)

val classify_block_result :
  config:config -> Encoding.t -> Maxsat.Optimizer.result -> block_result
(** Map the optimizer's verdict on one block to a {!block_result}.
    Invariants pinned by tests: [Timeout] (deadline before any model)
    always classifies as [Block_timeout] — never [Block_unsat], whatever
    the wall clock says now — and [Feasible] is only accepted under
    [config.accept_feasible].  Applies [config.fault_injection] to the
    decoded solution. *)

val solve_block :
  config:config ->
  deadline:float ->
  ?session:Encoding.Session.t ->
  ?block_ix:int ->
  block_query ->
  block_result * int * bool * int
(** Solve one block as the block-sequence driver does: the zero-swap
    shortcut, else the block cache, else the incremental session or a
    from-scratch build.  The query is the whole description — the block
    cache is keyed on the same value the solve reads.  [block_ix]
    (default 0) is what [config.on_improvement] reports.  Returns the
    result, the {!Maxsat.Optimizer} calls paid (0 for a shortcut or a
    cache hit), whether the zero-swap shortcut answered, and the lower
    bound the descent was given (0 when no descent ran).  The
    shortcut answers exactly when [bq_fixed_initial] is [Some m]; there
    is no [bq_fixed_final], no [bq_cyclic] tie and no [bq_post_slots];
    [m] is not among [bq_blocked_finals]; the objective is
    [Count_swaps]; the config may skip the solver (no [certify],
    [lint_blocks] or [fault_injection], as for the block cache); and
    every two-qubit gate sits on a device edge under [m].  It returns
    the forced optimum: no SWAP, final map [m].

    The lower bound is 1 for a block with no [bq_fixed_initial] whose
    interaction graph does not embed in the device
    ({!Placement.embed}), under [Count_swaps] and a config that may skip
    the solver; the descent then ends at its first one-SWAP model
    without refuting zero swaps.  It is 0 otherwise, so under [certify]
    every optimum keeps its checked refutation. *)

val emit :
  device:Arch.Device.t ->
  circuit:Quantum.Circuit.t ->
  Encoding.t ->
  Encoding.solution ->
  Routed.t
(** Replay [circuit] under the solution's maps, inserting the solved
    SWAPs.  Raises [Failure] if the replayed final map disagrees with the
    decoded one (caught at the [route_*] boundary in normal use). *)

val route_monolithic :
  ?config:config -> Arch.Device.t -> Quantum.Circuit.t -> outcome

val route_sliced :
  ?config:config ->
  slice_size:int ->
  Arch.Device.t ->
  Quantum.Circuit.t ->
  outcome

val route_cyclic_body :
  ?config:config ->
  ?slice_size:int ->
  repetitions:int ->
  Arch.Device.t ->
  Quantum.Circuit.t ->
  outcome
(** Route [body] once under the cyclic constraint, then repeat the
    solution [repetitions] times. *)

val route_cyclic :
  ?config:config -> ?slice_size:int -> Arch.Device.t -> Quantum.Circuit.t -> outcome
(** Auto-detect the repeated body; falls back to sliced routing when the
    circuit is not cyclic. *)

val route_portfolio :
  ?config:config ->
  ?sizes:int list ->
  Arch.Device.t ->
  Quantum.Circuit.t ->
  outcome * (int * outcome) list
(** Routes the circuit once per slice size (default 10, 25, 50, 100) and
    returns the best outcome (fewest added CNOTs, the first of equals in
    [sizes] order) and the per-size outcomes in [sizes] order.  The
    members run on k = min [config.solver_parallelism] (number of sizes)
    domains, the caller's among them: member i runs on domain i mod k.
    [config.timeout] bounds the whole call: each member, as it starts,
    gets the time left before that deadline divided by the members still
    to run on its domain.
    Above one domain the [warm_session] is dropped (it is not
    domain-safe), so each member builds its own.  There is no core-count
    cap: a caller that runs portfolios side by side divides the machine
    itself, as [Service.Engine.create] does. *)
