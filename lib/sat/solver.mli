(** A CDCL SAT solver (Glucose-class, grown out of the MiniSat lineage).

    Clauses live in one flat integer arena.  Features:
    two-watched-literal propagation with blocker literals,
    dedicated binary-clause implication lists, first-UIP clause learning
    with recursive conflict-clause minimization, LBD ("glue")-based
    learnt-clause management, VSIDS decision heuristic, phase saving,
    Luby restarts, incremental solving under assumptions, and wall-clock
    deadlines (for anytime MaxSAT) that are honored even inside long
    conflict-free propagation runs. *)

type t

type result = Sat | Unsat | Unknown

type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnts_literals : int;
  mutable max_vars : int;
  mutable solve_time : float;
      (** cumulative wall-clock seconds spent inside [solve] *)
  mutable learnt_clauses : int;  (** learnt clauses recorded (incl. units) *)
  mutable learnt_lbd_sum : int;  (** sum of LBD over learnt clauses *)
  mutable glue_clauses : int;  (** learnt clauses with LBD <= 2 *)
  mutable deleted_clauses : int;  (** learnts evicted by [reduce_db] *)
  mutable db_reductions : int;  (** number of [reduce_db] passes *)
  mutable compactions : int;
      (** clause-arena compactions: passes that copied the live clauses
          out once removed ones filled more than half of the arena *)
}

val copy_stats : stats -> stats
(** A snapshot: [stats t] is live and mutated by the solver. *)

val props_per_second : stats -> float
(** Propagations per second of solve time; 0 when no time was recorded. *)

val avg_learnt_lbd : stats -> float
(** Mean LBD over all learnt clauses; 0 when nothing was learnt. *)

(** {2 Process-wide totals}

    Counters aggregated across every solver instance in the process
    (updated once per [solve] call, atomically, so solvers running on
    several domains are accounted correctly).  Benchmarks and the CLI read deltas of these
    around a routing call instead of threading a stats channel through
    every layer. *)

type totals = {
  total_propagations : int;
  total_conflicts : int;
  total_decisions : int;
  total_restarts : int;
  total_learnts : int;
  total_lbd_sum : int;
  total_glue : int;
  total_deleted : int;
  total_reductions : int;
  total_solve_time : float;
}

val totals : unit -> totals
val reset_totals : unit -> unit

val sub_totals : totals -> totals -> totals
(** [sub_totals after before] is the component-wise difference. *)

val totals_props_per_second : totals -> float
val totals_avg_lbd : totals -> float

exception Sanitizer_violation of string
(** Raised by the invariant sanitizer: a structural solver invariant —
    not a property of the input formula — was found violated. *)

val create : ?sanitize:bool -> unit -> t
(** [sanitize] arms the invariant sanitizer: watch-list integrity
    (including blocker coherence), binary-list symmetry, trail/level/
    reason consistency and VSIDS-heap membership are checked every 1024
    conflicts, and the assignment is re-checked against every problem
    clause before [Sat] is returned.  Defaults to the [SATMAP_SANITIZE]
    environment variable ([1]/[true]/[yes]/[on]); costs a single boolean
    test per conflict when off.  {!sanitize_check} also checks the clause
    arena's layout. *)

val new_var : t -> Lit.var
(** Allocate a fresh variable (numbered consecutively from 0). *)

val n_vars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Add a problem clause.  Must only be called between [solve] calls (the
    solver is at decision level 0 then).  Adding the empty clause (or a
    clause falsified at level 0) makes the solver permanently unsat. *)

val add_packed : ?check:(unit -> unit) -> t -> int array -> unit
(** [add_packed t stream] adds the clauses packed in [stream], each as
    its literal count followed by its literals as {!Lit.to_int} values,
    in order and each exactly as {!add_clause} would, so a recorded
    clause stream reloads into the state its first load produced.  Every
    variable must exist already.  [check] runs before every 4096th
    clause (a deadline test may raise from it). *)

val solve : ?assumptions:Lit.t list -> ?deadline:float -> t -> result
(** Solve the current clause set.  [assumptions] are temporarily-forced
    literals; [Unsat] under assumptions does not poison the solver.
    [deadline] is an absolute [Unix.gettimeofday] instant after which the
    search gives up and returns [Unknown]. *)

val solve_with_core :
  ?assumptions:Lit.t list -> ?deadline:float -> t -> result * Lit.t list
(** Like [solve]; on [Unsat] under assumptions additionally returns an
    unsatisfiable core — a subset of the assumptions that already
    conflicts with the clause set (empty when the clauses alone are
    unsat).  The core is the final-conflict set, not guaranteed minimal. *)

val set_polarity : t -> Lit.var -> bool -> unit
(** Set the initial decision phase of a variable (e.g. bias soft-clause
    literals towards satisfaction so the first model is already cheap). *)

val model_value : t -> Lit.var -> bool
(** Value of a variable in the most recent satisfying model.  Only
    meaningful right after [solve] returned [Sat]. *)

val value_lit : t -> Lit.t -> int
(** Current assignment of a literal: -1 undefined, 0 false, 1 true.  At
    decision level 0 this exposes the roots implied by the clause set. *)

val set_sanitize : t -> bool -> unit
(** Arm or disarm the invariant sanitizer (see {!create}). *)

val sanitize_enabled : t -> bool

val sanitize_check : t -> unit
(** Run the invariant sanitizer once, immediately.  Raises
    {!Sanitizer_violation} on corruption; a no-op on a healthy solver.
    Exposed for tests and for post-mortem checks around a suspect
    [solve] call. *)

val set_reduce_db_params : t -> first:int -> inc:int -> unit
(** Learnt-DB reduction schedule: the first pass fires after [first]
    conflicts, each later pass [first + inc * passes] conflicts after
    the previous one (glucose-style; defaults 2000/300). *)

val set_proof_sink : t -> Proof.sink option -> unit
(** Install (or remove) a proof-event sink.  While a sink is installed the
    solver reports every learnt clause (including units from conflict
    analysis and the empty clause at a level-0 refutation) as
    {!Proof.Learn} and every [reduce_db] eviction as {!Proof.Delete} — the
    DRUP trace of the solver's reasoning.  [None] (the default) costs a
    single branch per learnt clause. *)

val reduce_db : t -> unit
(** Force a learnt-database reduction pass (glucose retention: glue,
    binary and locked clauses survive; the worst half of the rest by
    LBD-then-activity is dropped), followed by an arena compaction when
    removed clauses fill more than half of the arena.  Normally
    triggered automatically during search; exposed for tests and tuning
    experiments. *)

val ok : t -> bool
(** [false] once the clause set has been proved unsat at level 0. *)

val stats : t -> stats
val n_clauses : t -> int
val n_learnts : t -> int
