(* The SATMAP routers.

   - [route_monolithic]   : NL-SATMAP — one MaxSAT instance for the whole
                            circuit (Section IV).
   - [route_sliced]       : SATMAP — the locally optimal relaxation with
                            backtracking at the seams (Section V).
   - [route_cyclic]       : CYC-SATMAP — solve one body with the
                            final-map = initial-map constraint and stitch
                            repetitions (Section VI); composes with
                            slicing.
   - [route_portfolio]    : run several slice sizes, keep the cheapest
                            solution (how the paper reports SATMAP).

   The first three describe their blocks — the whole circuit, the
   slices, the body or its slices with the cyclic tie — and hand them to
   one block-sequence driver, [drive], behind one entry guard, [route].

   All solvers are anytime: when the deadline interrupts the MaxSAT
   descent after a model was found, the best-so-far solution is used and
   the result is flagged as not proved optimal.  A block unsatisfiable
   under its seam first escalates its swap budget n (doubling, capped at
   the device diameter), which restores completeness for a pinned initial
   map; only a block still unsatisfiable at the diameter makes the walk
   backtrack into the previous block.

   Sliced routing places before it slices: by default slice 0 is pinned
   to the quadratic-assignment placement of the whole circuit
   ([Placement.place]), and a pinned block whose gates all sit on device
   edges skips the solver (its optimum is 0 and its solution forced).  A
   free block whose interaction graph does not embed in the device gives
   its descent a lower bound of one SWAP, which ends the descent at its
   first one-SWAP model without refuting zero. *)

type placement = Free | Qap | Fixed of int array

type config = {
  n_swaps : int;
  amo : Sat.Card.encoding;
  coalesce : bool;
  inject_all_gate_layers : bool;
  mobility : bool;
  objective : Encoding.objective;
  timeout : float;  (** seconds for the whole call *)
  solver_parallelism : int;
      (** domains [route_portfolio] runs its slice-size members on *)
  backtrack_limit : int;
  max_vars : int;  (** memory guard on encoding size *)
  max_clauses : int;  (** memory guard on clause count (the 5 GB cap) *)
  accept_feasible : bool;
      (** accept best-so-far (non-optimal) models at the deadline — the
          anytime behaviour SATMAP gets from its MaxSAT solver.  The
          SMT-style baselines set this to false: optimal or nothing. *)
  verify : bool;
  certify : bool;
      (** log DRUP proofs in the MaxSAT engine and re-check every
          infeasible bound with the independent proof checker *)
  lint_blocks : bool;
      (** debug mode: statically analyse every block's instance before
          solving it and fail loudly on any Warning-or-worse finding *)
  fault_injection : (Encoding.solution -> Encoding.solution) option;
      (** test seam: corrupt every decoded block solution before it is
          replayed/emitted, so the downstream invariant checks
          ([emit]'s replay comparison, the verifier) can be exercised
          deterministically.  Never set outside tests. *)
  block_cache : block_cache option;
      (** serving-layer hook: consulted per block before the MaxSAT
          optimizer is invoked, so repeated block structure (QAOA bodies,
          identical slices across requests) stops paying the solver.  The
          router stays cache-agnostic — key construction (and its
          soundness: the key must cover every seam constraint in the
          {!block_query}, not just the gate stream) lives behind these two
          functions, implemented by [Service.Block_cache].  Disabled
          automatically under [certify], [lint_blocks] and
          [fault_injection]: cached solutions carry no proofs and must not
          mask the debug/test paths. *)
  on_improvement : (block:int -> iteration:int -> cost:int -> unit) option;
      (** anytime-progress hook: invoked from inside the MaxSAT descent
          after every satisfiable iteration, with the block index the
          router is currently solving and the model's cost.  The serving
          layer uses this to stream intermediate responses; costs are
          per-block (not whole-circuit) and may restart from a higher
          value when backtracking re-solves a seam. *)
  incremental : bool;
      (** share one solver across slices, retries and descent bounds (the
          encoding skeleton persists; per-slice clauses are activated by
          assumption).  Forced off under [certify]: assumption-activated
          bounds are not DRUP-replayable. *)
  reuse_window : int;
      (** activations per shared solver before it is rebuilt *)
  warm_session : Encoding.Session.t option;
      (** serving-layer hook: a pre-warmed session whose skeleton may
          already match this route's blocks, so even the first block
          skips skeleton emission.  [None] gives each route a private
          session. *)
  placement : placement;
      (** where the initial map comes from.  [Free]: the solver picks it
          (the paper's SATMAP).  [Qap] (default): [route_sliced] pins
          slice 0 to [Placement.place] of the whole circuit when the
          circuit spans more than one slice, and is free otherwise.
          [Fixed a]: an external placement (log -> phys) pins the
          whole-circuit initial map under [route_monolithic] and slice 0
          under [route_sliced].  A pinned optimum is optimal {e given}
          the placement.  The cyclic relaxation ignores this field: its
          initial map must stay free to close the loop. *)
}

(* Everything a block's solution depends on.  A cache keyed on any strict
   subset of these fields is unsound: a solution found under a pinned
   seam, a blocked final map, the cyclic tie, extra post slots or a
   different swap budget is not interchangeable with one found without. *)
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
  bc_store : config -> block_query -> Encoding.solution -> unit;
      (** only (locally) optimal solutions are offered for storage *)
}

let default_config =
  {
    n_swaps = 1;
    amo = Sat.Card.Sequential;
    coalesce = true;
    inject_all_gate_layers = true;
    mobility = true;
    objective = Encoding.Count_swaps;
    timeout = 30.0;
    solver_parallelism = 1;
    backtrack_limit = 24;
    max_vars = 500_000;
    max_clauses = 4_000_000;
    accept_feasible = true;
    verify = true;
    certify = false;
    lint_blocks = false;
    fault_injection = None;
    block_cache = None;
    on_improvement = None;
    incremental = true;
    reuse_window = 16;
    warm_session = None;
    placement = Qap;
  }

let m_blocks = Obs.Metrics.counter "router.blocks"
let m_backtracks = Obs.Metrics.counter "router.backtracks"
let m_escalations = Obs.Metrics.counter "router.escalations"
let m_routes = Obs.Metrics.counter "router.routes"
let m_zero_swap = Obs.Metrics.counter "router.zero_swap_blocks"

type stats = {
  time : float;
  n_backtracks : int;
  n_blocks : int;
  proved_optimal : bool;
  escalations : int;
  maxsat_iterations : int;
  certified : bool;
      (** certification was on, every block reached its (locally)
          optimal cost, the independent checker accepted every
          infeasibility proof — and at least one proof was actually
          checked.  A route that never produced an UNSAT bound (e.g. a
          trivial or cost-0 route) verified nothing and must not claim
          certification. *)
  proofs_checked : int;  (** infeasibility proofs independently checked *)
  proof_events : int;  (** learnt/delete trace events across all blocks *)
  certify_time : float;  (** seconds spent in the proof checker *)
  solver_calls : int;
      (** [Maxsat.Optimizer.solve] invocations this route actually paid
          for; block-cache hits skip the call, so under a warm cache this
          drops below [n_blocks] (to zero when every block hits) *)
}

type outcome =
  | Routed of Routed.t * stats
  | Failed of string

let spec_of_query config q =
  Encoding.spec ~n_swaps:q.bq_n_swaps ~post_slots:q.bq_post_slots
    ~amo:config.amo ~coalesce:config.coalesce
    ~inject_all_gate_layers:config.inject_all_gate_layers
    ~mobility:config.mobility ~objective:config.objective q.bq_device

(* ------------------------------------------------------------------ *)
(* Emission: turn an encoding solution into a routed physical circuit *)

let emit ~device ~circuit enc (sol : Encoding.solution) =
  let n_phys = Arch.Device.n_qubits device in
  let cur = Array.copy sol.initial in
  let phys_to_log = Array.make n_phys (-1) in
  Array.iteri (fun q p -> phys_to_log.(p) <- q) cur;
  let out = ref [] in
  let push g = out := g :: !out in
  let emit_swap (a, b) =
    push (Quantum.Gate.swap a b);
    let qa = phys_to_log.(a) and qb = phys_to_log.(b) in
    phys_to_log.(a) <- qb;
    phys_to_log.(b) <- qa;
    if qa >= 0 then cur.(qa) <- b;
    if qb >= 0 then cur.(qb) <- a
  in
  let emit_slot s =
    match sol.slot_swaps.(s) with
    | Some edge -> emit_swap edge
    | None -> ()
  in
  (* Which step each two-qubit gate occurrence belongs to. *)
  let step_of_occ =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun i (st : Encoding.step) -> Array.make st.multiplicity i)
            (Encoding.steps enc)))
  in
  let occ = ref 0 in
  let last_step = ref (-1) in
  List.iter
    (fun gate ->
      match gate with
      | Quantum.Gate.Two { kind; control; target } ->
        let step = step_of_occ.(!occ) in
        incr occ;
        if step > !last_step then begin
          List.iter emit_slot (Encoding.slots_before_step enc step);
          last_step := step
        end;
        push
          (Quantum.Gate.Two
             { kind; control = cur.(control); target = cur.(target) })
      | Quantum.Gate.One { kind; target } ->
        push (Quantum.Gate.One { kind; target = cur.(target) })
      | Quantum.Gate.Measure { qubit; clbit } ->
        push (Quantum.Gate.Measure { qubit = cur.(qubit); clbit })
      | Quantum.Gate.Barrier qs ->
        push (Quantum.Gate.Barrier (List.map (fun q -> cur.(q)) qs)))
    (Quantum.Circuit.gates circuit);
  List.iter emit_slot (Encoding.post_slot_indices enc);
  if cur <> sol.final then
    failwith "Router.emit: decoded final map disagrees with replay";
  let physical =
    Quantum.Circuit.create
      ~n_clbits:(Quantum.Circuit.n_clbits circuit)
      ~n_qubits:n_phys (List.rev !out)
  in
  Routed.create ~device
    ~initial:(Mapping.of_array ~n_phys sol.initial)
    ~final:(Mapping.of_array ~n_phys sol.final)
    ~circuit:physical

(* ------------------------------------------------------------------ *)
(* Solving one block *)

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
  | Block_too_large

(* Split the remaining budget evenly over the remaining blocks so an
   early block cannot starve the rest while polishing optimality; the
   optimizer keeps its best model when its share runs out.  The floor of
   0.1 s keeps a knife-edge remainder from rounding a block's share down
   to nothing mid-backtrack (the share is still capped at [deadline]
   itself, so the floor never extends the overall budget). *)
let slice_budget ~deadline ~now ~blocks_remaining =
  if blocks_remaining < 1 then
    invalid_arg "Router.slice_budget: blocks_remaining < 1";
  let remaining = deadline -. now in
  Float.min deadline
    (now +. Float.max 0.1 (remaining /. float_of_int blocks_remaining))

(* Map the optimizer's verdict on one block to a block result.  Factored
   out (and exposed) because the mapping itself carries an invariant worth
   pinning in tests: [Timeout] means "deadline expired before any model",
   full stop, and must classify as [Block_timeout].  An earlier version
   re-read the clock here and reclassified a late-returning [Timeout] as
   [Block_unsat] when the wall clock had drifted back under the deadline —
   which sent the sliced router into pointless seam backtracking (and
   budget escalation) on blocks that were never infeasible. *)
let classify_block_result ~config enc (result : Maxsat.Optimizer.result) =
  let decode (o : Maxsat.Optimizer.outcome) =
    let sol = Encoding.decode enc o.model in
    match config.fault_injection with None -> sol | Some f -> f sol
  in
  match result with
  | Maxsat.Optimizer.Optimal o ->
    Block_solved
      {
        enc;
        sol = decode o;
        optimal = true;
        iterations = o.iterations;
        cert = o.certificate;
      }
  | Maxsat.Optimizer.Feasible o ->
    if config.accept_feasible then
      Block_solved
        {
          enc;
          sol = decode o;
          optimal = false;
          iterations = o.iterations;
          cert = o.certificate;
        }
    else Block_timeout
  | Maxsat.Optimizer.Unsatisfiable _ -> Block_unsat
  | Maxsat.Optimizer.Timeout -> Block_timeout

(* A block may skip the solver (a block-cache hit, the zero-swap
   shortcut) only when the rest of the pipeline takes its solution at face
   value: no proof obligations, no lint instrumentation, no fault
   injection between decode and replay. *)
let may_skip_solver config =
  (not config.certify) && (not config.lint_blocks)
  && config.fault_injection = None

let block_cache_of config =
  if may_skip_solver config then config.block_cache else None

(* The exact zero-swap shortcut.  When the pinned initial map [m] puts
   every two-qubit gate of the block on a device edge, the block's
   [Count_swaps] optimum is 0 and its solution is forced: no SWAP in any
   slot, so the final map is [m].  A fixed final, the cyclic tie or post
   slots can each demand a SWAP, a blocked [m] forbids the forced final,
   and under [Fidelity] a SWAP may buy a better edge; none of those
   blocks qualify. *)
let zero_swap_pin ~config q =
  match (q.bq_fixed_initial, config.objective) with
  | Some m, Encoding.Count_swaps
    when q.bq_fixed_final = None && (not q.bq_cyclic) && q.bq_post_slots = 0
         && may_skip_solver config
         && (not (List.mem m q.bq_blocked_finals))
         && List.for_all
              (fun (_, a, b) -> Arch.Device.adjacent q.bq_device m.(a) m.(b))
              (Quantum.Circuit.two_qubit_gates q.bq_slice) ->
    Some m
  | _ -> None

(* A proved lower bound on a free block's [Count_swaps] optimum: 1 when
   its interaction graph does not embed in the device, for then no
   initial map runs the block without a SWAP; 0 otherwise.  The descent
   then stops at its first one-SWAP model instead of refuting zero.  A
   pinned block keeps 0: its refutation of zero is a cheap unit conflict,
   and [certify] keeps its checked refutation (the same predicate as the
   block cache). *)
let free_block_bound ~config q =
  match (q.bq_fixed_initial, config.objective) with
  | None, Encoding.Count_swaps when may_skip_solver config -> (
    match Placement.embed q.bq_device q.bq_slice with
    | Placement.Does_not_embed -> 1
    | Placement.Embeds _ | Placement.Unknown -> 0)
  | _ -> 0

(* Certification needs permanent bound clauses, and lint inspects a
   complete instance: both solve each block from scratch. *)
let session_usable config = (not config.certify) && not config.lint_blocks

let session_for config =
  if config.incremental && session_usable config then
    match config.warm_session with
    | Some s -> Some s
    | None -> Some (Encoding.Session.create ~window:config.reuse_window ())
  else None

(* Returns the block result, the solver calls paid, whether the zero-swap
   shortcut answered, and the lower bound the descent was given.  The
   block cache is keyed on [q], the same value the solve reads. *)
let solve_block ~config ~deadline ?session ?(block_ix = 0) q =
  let spec = spec_of_query config q in
  let circuit = q.bq_slice in
  if Unix.gettimeofday () > deadline then (Block_timeout, 0, false, 0)
  else if
    Encoding.estimate_vars spec circuit > config.max_vars
    || Encoding.estimate_clauses spec circuit > config.max_clauses
  then (Block_too_large, 0, false, 0)
  else begin
    let cache = block_cache_of config in
    let report =
      Option.map
        (fun f ~iteration ~cost ~stats:_ -> f ~block:block_ix ~iteration ~cost)
        config.on_improvement
    in
    let store_optimal result =
      match (result, cache) with
      | Block_solved b, Some c when b.optimal -> c.bc_store config q b.sol
      | _ -> ()
    in
    let skip =
      match zero_swap_pin ~config q with
      | Some m -> Some (`Zero_swap m)
      | None ->
        Option.bind cache (fun c ->
            Option.map (fun sol -> `Cached sol) (c.bc_find config q))
    in
    let fixed_initial = q.bq_fixed_initial
    and fixed_final = q.bq_fixed_final
    and cyclic = q.bq_cyclic
    and blocked_finals = q.bq_blocked_finals in
    match skip with
    | Some hit ->
      (* A cache hit or the zero-swap shortcut: neither the solver nor
         clause emission is paid — the layout-only structure is enough for
         [emit] to replay the solution through the step/slot schedule. *)
      let enc = Encoding.structure spec circuit in
      let sol =
        match hit with
        | `Cached sol -> sol
        | `Zero_swap m ->
          Obs.Metrics.incr m_zero_swap;
          {
            Encoding.initial = Array.copy m;
            final = Array.copy m;
            slot_swaps = Array.make (Encoding.n_slots enc) None;
            swap_count = 0;
          }
      in
      ( Block_solved { enc; sol; optimal = true; iterations = 0; cert = None },
        0,
        (match hit with `Zero_swap _ -> true | `Cached _ -> false),
        0 )
    | None -> (
      let lower_bound = free_block_bound ~config q in
      match session with
      | Some sess when session_usable config && Encoding.Session.supported spec
        -> (
        (* Incremental path: reuse (or build) the shared skeleton and emit
           only this block's gate layer and seam constraints, then run the
           descent over the persistent solver. *)
        match
          Encoding.Session.prepare ~deadline ?fixed_initial ?fixed_final
            ~cyclic ~blocked_finals sess spec circuit
        with
        | exception Encoding.Encode_timeout ->
          (Block_encode_timeout, 0, false, lower_bound)
        | act ->
          let os =
            Maxsat.Optimizer.attach ~assumptions:act.a_assumptions
              ~bounds:act.a_bounds ~lower_bound ~solver:act.a_solver
              ~relax:act.a_relax ()
          in
          let result =
            classify_block_result ~config act.a_enc
              (Maxsat.Optimizer.resume ~deadline ?report os)
          in
          store_optimal result;
          (result, 1, false, lower_bound))
      | _ -> (
        match
          Encoding.build ~deadline ?fixed_initial ?fixed_final ~cyclic
            ~blocked_finals spec circuit
        with
        | exception Encoding.Encode_timeout ->
          (Block_encode_timeout, 0, false, lower_bound)
        | enc ->
          if config.lint_blocks then begin
            (* Pinned, blocked, or cyclic blocks may legitimately refute at
               level 0 (that is the seam-backtracking signal), so a level-0
               conflict is only an error on unconstrained blocks. *)
            let expect_sat =
              fixed_initial = None && fixed_final = None && (not cyclic)
              && blocked_finals = []
            in
            let report = Encoding_lint.check_full ~expect_sat enc in
            if not (Lint.Report.is_clean ~at_least:Lint.Report.Warning report)
            then
              failwith
                (Format.asprintf "Router: block failed lint (%s)@\n%a"
                   (Lint.Report.summary report) Lint.Report.pp report)
          end;
          let result =
            classify_block_result ~config enc
              (Maxsat.Optimizer.solve ~deadline ~certify:config.certify
                 ?report ~lower_bound (Encoding.instance enc))
          in
          store_optimal result;
          (result, 1, false, lower_bound)))
  end

let block_result_label = function
  | Block_solved b -> if b.optimal then "optimal" else "feasible"
  | Block_unsat -> "unsat"
  | Block_timeout -> "timeout"
  | Block_encode_timeout -> "encode_timeout"
  | Block_too_large -> "too_large"

(* A block unsatisfiable under its seam first escalates its swap budget:
   double n up to the device diameter, which always suffices for a pinned
   initial map alone.  A block with post slots keeps as many as its
   budget.  Only a block still unsatisfiable at the diameter comes back
   [Block_unsat], and only then does the walk backtrack. *)
let solve_block_escalating ~config ~deadline ?session ~block_ix ~n_blocks q =
  let span =
    if Obs.Trace.enabled () then
      Obs.Trace.start "router.block"
        ~args:
          [
            ("slice", Obs.Trace.Int block_ix);
            ("n_slices", Obs.Trace.Int n_blocks);
            ( "two_qubit_gates",
              Obs.Trace.Int (Quantum.Circuit.count_two_qubit q.bq_slice) );
            ("n_swaps", Obs.Trace.Int q.bq_n_swaps);
          ]
    else Obs.Trace.null_span
  in
  let diameter = max 1 (Arch.Device.diameter q.bq_device) in
  let rec attempt n escalations calls =
    let q =
      {
        q with
        bq_n_swaps = n;
        bq_post_slots = (if q.bq_post_slots > 0 then n else 0);
      }
    in
    let result, c, zero_swap, lower_bound =
      solve_block ~config ~deadline ?session ~block_ix q
    in
    match result with
    | Block_unsat when n < diameter ->
      attempt (min diameter (2 * n)) (escalations + 1) (calls + c)
    | other -> (other, escalations, calls + c, zero_swap, lower_bound)
  in
  let result, escalations, solver_calls, zero_swap, lower_bound =
    attempt q.bq_n_swaps 0 0
  in
  Obs.Metrics.incr m_blocks;
  Obs.Metrics.add m_escalations escalations;
  if span != Obs.Trace.null_span then
    Obs.Trace.stop span
      ~args:
        [
          ( "result",
            Obs.Trace.Str
              (if zero_swap then "zero_swap" else block_result_label result) );
          ("escalations", Obs.Trace.Int escalations);
          ("lower_bound", Obs.Trace.Int lower_bound);
        ];
  (result, escalations, solver_calls)

(* ------------------------------------------------------------------ *)
(* The block walk *)

(* Every route's stats come from here.  [proved_optimal]: a single
   block solved to optimality; the blocks of a sliced route are each
   only locally optimal, though each block's optimum is still certified
   on its own.
   [certified]: certification was requested, every block was solved to
   (local) optimality and the checker accepted every block's
   infeasibility proofs.  A vacuous report (zero proofs checked — trivial
   routes, cost-0 optima) verified nothing, so [certified] stays false
   however "ok" the empty aggregate looks.  [time] is left to the entry
   guard, which stops the clock after verification. *)
let route_stats ~config ~n_blocks ~backtracks ~escalations ~solver_calls
    solved =
  let all_optimal = List.for_all (fun b -> b.optimal) solved in
  let reports = List.map (fun b -> b.cert) solved in
  let cert =
    if not config.certify then Maxsat.Certify.empty
    else
      List.fold_left
        (fun acc r ->
          Maxsat.Certify.merge acc
            (Option.value ~default:Maxsat.Certify.empty r))
        Maxsat.Certify.empty reports
  in
  {
    time = 0.;
    n_backtracks = backtracks;
    n_blocks;
    proved_optimal = all_optimal && n_blocks = 1;
    escalations;
    maxsat_iterations =
      List.fold_left (fun acc b -> acc + b.iterations) 0 solved;
    certified =
      config.certify && all_optimal
      && List.for_all Option.is_some reports
      && Maxsat.Certify.ok cert
      && not (Maxsat.Certify.vacuous cert);
    proofs_checked = cert.proofs_checked;
    proof_events = cert.trace_events;
    certify_time = cert.check_time;
    solver_calls;
  }

type block = {
  circuit : Quantum.Circuit.t;
  mutable blocked : int array list;  (** finals backtracking ruled out *)
  mutable solution : block_solution option;
}

(* Route a sequence of blocks (Sections IV-VI).  Block 0 starts at [pin],
   or free; every later block starts at its predecessor's final map.
   Under [tie] (the cyclic relaxation) a lone block solves with the
   cyclic constraint, and the last of several must end at block 0's
   initial map; either way the last block gets post slots.  Each block's
   deadline is its [slice_budget] share (all of it for a lone block).
   When a block is unsatisfiable at its seam even after escalation, the
   walk blocks the previous block's final map and re-solves that block. *)
let drive ~config ~deadline ~device ~pin ~tie circuits =
  let blocks =
    Array.of_list
      (List.map
         (fun circuit -> { circuit; blocked = []; solution = None })
         circuits)
  in
  let n = Array.length blocks in
  let session = session_for config in
  let backtracks = ref 0 and escalations = ref 0 and solver_calls = ref 0 in
  let solved j =
    match blocks.(j).solution with
    | Some b -> b
    | None -> failwith "Router: block unsolved"
  in
  let rec walk i =
    if i = n then Ok ()
    else begin
      let st = blocks.(i) in
      let last = i = n - 1 in
      let query =
        {
          bq_device = device;
          bq_slice = st.circuit;
          bq_n_swaps = config.n_swaps;
          bq_post_slots = (if tie && last then config.n_swaps else 0);
          bq_cyclic = tie && n = 1;
          bq_fixed_initial =
            (if i = 0 then pin else Some (solved (i - 1)).sol.final);
          bq_fixed_final =
            (if tie && last && n > 1 then Some (solved 0).sol.initial
             else None);
          bq_blocked_finals = st.blocked;
        }
      in
      let result, esc, calls =
        solve_block_escalating ~config
          ~deadline:
            (slice_budget ~deadline ~now:(Unix.gettimeofday ())
               ~blocks_remaining:(n - i))
          ?session ~block_ix:i ~n_blocks:n query
      in
      escalations := !escalations + esc;
      solver_calls := !solver_calls + calls;
      match result with
      | Block_solved b ->
        st.solution <- Some b;
        walk (i + 1)
      | Block_unsat when i > 0 && !backtracks < config.backtrack_limit ->
        incr backtracks;
        Obs.Metrics.incr m_backtracks;
        Obs.Trace.instant "router.backtrack"
          ~args:[ ("slice", Obs.Trace.Int i) ];
        let prev = blocks.(i - 1) in
        prev.blocked <- (solved (i - 1)).sol.final :: prev.blocked;
        prev.solution <- None;
        walk (i - 1)
      | Block_unsat ->
        Error
          (if i = 0 then "block 0 unsatisfiable"
           else "backtracking budget exhausted")
      | Block_timeout -> Error "timeout"
      | Block_encode_timeout -> Error "encode timeout"
      | Block_too_large -> Error "encoding exceeds memory guard"
    end
  in
  Result.map
    (fun () ->
      let solved = List.init n solved in
      ( Routed.stitch
          (List.map2
             (fun st b -> emit ~device ~circuit:st.circuit b.enc b.sol)
             (Array.to_list blocks) solved),
        route_stats ~config ~n_blocks:n ~backtracks:!backtracks
          ~escalations:!escalations ~solver_calls:!solver_calls solved ))
    (walk 0)

(* ------------------------------------------------------------------ *)
(* Trivial case: no two-qubit gates at all *)

let route_trivial ~device circuit =
  let n_log = Quantum.Circuit.n_qubits circuit in
  let n_phys = Arch.Device.n_qubits device in
  let ident = Array.init n_log Fun.id in
  let mapping = Mapping.of_array ~n_phys ident in
  let physical =
    Quantum.Circuit.create
      ~n_clbits:(Quantum.Circuit.n_clbits circuit)
      ~n_qubits:n_phys
      (Quantum.Circuit.gates circuit)
  in
  Routed.create ~device ~initial:mapping ~final:mapping ~circuit:physical

(* The one entry guard of every [route_*].  It counts the route, rejects
   a circuit that does not fit, routes a circuit without two-qubit gates
   to the identity, and otherwise runs [walk]; a cyclic route then
   repeats the routed body.  The verifier checks the result, and the
   route's time includes it.  Routing-internal invariant violations —
   [emit]'s replay comparison, block lint findings, seam bookkeeping, the
   verifier — raise [Failure], caught here and returned as [Failed] so
   callers (and the CLI's exit-code contract) see a routing failure
   rather than an escaped exception.  [Invalid_argument] still escapes:
   misusing the API is the caller's bug, not a routing outcome. *)
let route ~config ?repetitions device circuit walk =
  Obs.Metrics.incr m_routes;
  try
    let start = Unix.gettimeofday () in
    if Quantum.Circuit.n_qubits circuit > Arch.Device.n_qubits device then
      Failed "circuit does not fit on the device"
    else
      let walked =
        if Quantum.Circuit.count_two_qubit circuit = 0 then
          Ok
            ( route_trivial ~device circuit,
              route_stats ~config ~n_blocks:1 ~backtracks:0 ~escalations:0
                ~solver_calls:0 [] )
        else walk ~deadline:(start +. config.timeout)
      in
      match walked with
      | Error msg -> Failed msg
      | Ok (routed, stats) ->
        let routed, original =
          match repetitions with
          | None -> (routed, circuit)
          | Some k -> (Routed.repeat routed k, Quantum.Circuit.repeat circuit k)
        in
        if config.verify then Verifier.check_exn ~original routed;
        Routed (routed, { stats with time = Unix.gettimeofday () -. start })
  with Failure msg -> Failed msg

(* NL-SATMAP: the whole circuit is one block, pinned only by [Fixed]. *)
let route_monolithic ?(config = default_config) device circuit =
  route ~config device circuit (fun ~deadline ->
      let pin =
        match config.placement with Fixed a -> Some a | Free | Qap -> None
      in
      drive ~config ~deadline ~device ~pin ~tie:false [ circuit ])

(* SATMAP: the slices, block 0 pinned by the placement.  Place before
   slicing: one block's free optimum is already the global optimum, so
   only a multi-slice route takes the QAP pin. *)
let route_sliced ?(config = default_config) ~slice_size device circuit =
  route ~config device circuit (fun ~deadline ->
      let slices = Quantum.Circuit.slice_by_two_qubit circuit ~slice_size in
      let pin =
        match config.placement with
        | Fixed a -> Some a
        | Qap when List.compare_length_with slices 1 > 0 ->
          Some (Placement.place device circuit)
        | Qap | Free -> None
      in
      drive ~config ~deadline ~device ~pin ~tie:false slices)

(* CYC-SATMAP: the body, or its slices (Section VI composed with Section
   V), tied back to block 0's free initial map, then repeated. *)
let route_cyclic_body ?(config = default_config) ?slice_size ~repetitions
    device body =
  if repetitions < 1 then invalid_arg "Router.route_cyclic_body";
  route ~config ~repetitions device body (fun ~deadline ->
      let blocks =
        match slice_size with
        | None -> [ body ]
        | Some slice_size ->
          Quantum.Circuit.slice_by_two_qubit body ~slice_size
      in
      drive ~config ~deadline ~device ~pin:None ~tie:true blocks)

(* Auto-detect the repeated body. *)
let route_cyclic ?(config = default_config) ?slice_size device circuit =
  match Quantum.Circuit.detect_repetition circuit with
  | Some (body, repetitions) when repetitions >= 2 ->
    route_cyclic_body ~config ?slice_size ~repetitions device body
  | Some _ | None -> route_sliced ~config ~slice_size:(Option.value slice_size ~default:25) device circuit

(* ------------------------------------------------------------------ *)
(* Portfolio: the paper's reporting mode — try several slice sizes, keep
   the best solution found. *)

let best_of results =
  List.fold_left
    (fun acc (_, outcome) ->
      match (acc, outcome) with
      | None, Routed (r, s) -> Some (r, s)
      | Some (r0, _), Routed (r, s)
        when Routed.added_cnots r < Routed.added_cnots r0 ->
        Some (r, s)
      | acc, (Routed _ | Failed _) -> acc)
    None results

(* Each portfolio member gets its own span; the trace records the
   domain that ran it, so members on several domains render as parallel
   tracks. *)
let run_member ~config ~size device circuit =
  Obs.Trace.with_span "router.portfolio_member"
    ~args:[ ("slice_size", Obs.Trace.Int size) ]
    (fun () -> route_sliced ~config ~slice_size:size device circuit)

(* Member i runs on domain i mod k; the caller's domain is domain 0.
   Members share the immutable device and circuit and the config's
   domain-safe hooks.  Every domain is joined before a member's exception
   is re-raised.  [config.timeout] covers the whole call: as a member
   starts, it gets the time left before the call's deadline divided by
   the members still to run on its domain, so time a member leaves
   unspent passes on to the next. *)
let route_portfolio ?(config = default_config) ?(sizes = [ 10; 25; 50; 100 ])
    device circuit =
  let deadline = Unix.gettimeofday () +. config.timeout in
  let k = max 1 (min config.solver_parallelism (List.length sizes)) in
  let config = if k = 1 then config else { config with warm_session = None } in
  let share d =
    let mine = List.filteri (fun i _ -> i mod k = d) sizes in
    let n = List.length mine in
    List.mapi
      (fun i size ->
        let left = deadline -. Unix.gettimeofday () in
        let timeout = Float.max 0.0 left /. float_of_int (n - i) in
        run_member ~config:{ config with timeout } ~size device circuit)
      mine
    |> Array.of_list
  in
  let settle f = match f () with r -> Ok r | exception e -> Error e in
  let others =
    List.init (k - 1) (fun d -> Domain.spawn (fun () -> share (d + 1)))
  in
  let mine = settle (fun () -> share 0) in
  let shares =
    mine :: List.map (fun d -> settle (fun () -> Domain.join d)) others
    |> List.map (function Ok s -> s | Error e -> raise e)
    |> Array.of_list
  in
  let results =
    List.mapi (fun i size -> (size, shares.(i mod k).(i / k))) sizes
  in
  match best_of results with
  | Some (r, s) -> (Routed (r, s), results)
  | None -> (Failed "no slice size succeeded", results)
