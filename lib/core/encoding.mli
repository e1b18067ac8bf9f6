(** The MaxSAT encoding of optimal QMR (Section IV of the paper).

    Builds a {!Maxsat.Instance.t} whose optimal models are optimal QMR
    solutions, together with the variable table needed to decode models.
    Hooks for pinning and blocking maps support the locally-optimal
    slicing relaxation (Section V); the [cyclic] flag and [post_slots]
    support the cyclic-circuit relaxation (Section VI); the [Fidelity]
    objective realises the weighted noise-aware variant (Q6). *)

type objective = Count_swaps | Fidelity of Arch.Calibration.t

type spec

val spec :
  ?n_swaps:int ->
  ?post_slots:int ->
  ?amo:Sat.Card.encoding ->
  ?coalesce:bool ->
  ?inject_all_gate_layers:bool ->
  ?mobility:bool ->
  ?objective:objective ->
  Arch.Device.t ->
  spec
(** [n_swaps] is the paper's n (slots before each gate; default 1).
    [coalesce] merges consecutive gates on the same pair into one step.
    [inject_all_gate_layers] imposes the injectivity constraints at every
    gate layer, as in Fig. 5 of the paper (default true); with [false]
    they are imposed at layer 0 only — semantically equivalent because the
    transition constraints are functional, but markedly slower to solve
    (ablation knob). *)

type step = {
  pair : int * int;
  multiplicity : int;
}

type t

exception Encode_timeout
(** Raised by {!build} when its [deadline] expires mid-emission. *)

val build :
  ?deadline:float ->
  ?fixed_initial:int array ->
  ?fixed_final:int array ->
  ?cyclic:bool ->
  ?blocked_finals:int array list ->
  spec ->
  Quantum.Circuit.t ->
  t
(** Requires at least one two-qubit gate and
    [n_qubits circuit <= n_qubits device].  [deadline] is an absolute
    [Unix.gettimeofday] instant checked throughout clause emission;
    raises {!Encode_timeout} when it passes, so an over-budget instance
    fails fast instead of burning its whole routing budget building CNF
    it will never solve. *)

val structure : spec -> Quantum.Circuit.t -> t
(** Layout only — variable numbering, steps and slot/layer counts, with
    an empty instance and no clauses emitted.  Enough for {!decode},
    {!classify_var} and the var accessors; what the block-cache hit path
    uses to replay a cached solution without re-emitting CNF. *)

val instance : t -> Maxsat.Instance.t
val n_steps : t -> int
val steps : t -> step array
val spec_of : t -> spec
val n_log : t -> int
val n_slots : t -> int
val n_layers : t -> int
val device : t -> Arch.Device.t

val insertion_stats : t -> Sat.Sink.sanitize_stats
(** Hygiene counters from the build's sanitizing clause sink: how many
    clauses were inserted, and how many tautologies / duplicate literals
    were dropped on the way in. *)

val injected_layers : t -> int list
(** Layers at which the injectivity constraints (Hard A) are structurally
    present: layer 0, plus every gate layer when the spec asks for it.
    The lint pass audits exactly these promises. *)

(** Decoded meaning of a variable index (the encoding's variable table,
    inverted). *)
type var_class =
  | Map of { layer : int; q : int; p : int }
  | Noop of { slot : int }
  | Swap of { slot : int; edge : int }
  | Aux  (** cardinality-encoding auxiliary (or out of range) *)

val classify_var : t -> Sat.Lit.var -> var_class

val gate_layer : t -> int -> int
val final_layer : t -> int
val slots_before_step : t -> int -> int list
val post_slot_indices : t -> int list
val map_var : t -> layer:int -> q:int -> p:int -> Sat.Lit.var
val noop_var : t -> slot:int -> Sat.Lit.var
val swap_var : t -> slot:int -> edge:int -> Sat.Lit.var

val estimate_vars : spec -> Quantum.Circuit.t -> int
(** Fixed-variable count the encoding would need — the router's memory
    guard (the paper caps memory at 5 GB per instance). *)

val estimate_clauses : spec -> Quantum.Circuit.t -> int
(** Clause-count estimate, the dominant memory term. *)

type enc = t
(** Alias so {!Session} can name the encoding type alongside its own. *)

(** Incremental encoding sessions: one persistent solver shared by
    consecutive slices and escalating retries of the same shape.

    The slice-independent part of the encoding — injectivity, swap-slot
    choice/effect/frame/mobility and the per-slot soft no-ops — is
    emitted once into the solver (the "skeleton"); each {!Session.prepare}
    then emits only the gate-executability layer, seam pins, cyclic
    stitching and blocked finals, all guarded by a fresh activation
    literal that the descent assumes.  The [encode.reused_clauses]
    metric counts skeleton clauses whose re-emission was skipped, and the
    activation's {!insertion_stats} show how little was emitted. *)
module Session : sig
  type t

  val create : ?window:int -> unit -> t
  (** [window] (default 16) caps how many activations share one solver
      before it is rebuilt — learnt-clause accumulation from retired
      activations eventually outweighs the reuse win. *)

  val supported : spec -> bool
  (** Sessions support [Count_swaps] only: fidelity soft weights are
      gate-dependent and cannot live in a shared skeleton. *)

  (** A prepared activation, ready for
      {!Maxsat.Optimizer.attach}[ ~assumptions ~bounds ~solver ~relax]. *)
  type active = {
    a_enc : enc;  (** decode/inspect against this *)
    a_solver : Sat.Solver.t;
    a_assumptions : Sat.Lit.t list;  (** the activation guard *)
    a_relax : (int * Sat.Lit.t) list;  (** objective relaxation literals *)
    a_bounds : Maxsat.Optimizer.bounds;  (** shared descent-bound table *)
    a_reused : bool;  (** [false] when this activation built the skeleton *)
  }

  val prepare :
    ?deadline:float ->
    ?fixed_initial:int array ->
    ?fixed_final:int array ->
    ?cyclic:bool ->
    ?blocked_finals:int array list ->
    t ->
    spec ->
    Quantum.Circuit.t ->
    active
  (** Reuse the live skeleton when the shape matches (same device,
      logical-qubit count, [n_swaps], flags, and a slot count that fits —
      shorter slices are padded with forced no-ops), otherwise rebuild.
      A build or a thaw runs inside an [encode.skeleton] trace span
      (args [vars], [clauses], [thawed]).  Raises {!Encode_timeout} past
      [deadline] and [Invalid_argument] on an unsupported objective. *)

  val freeze : t -> unit
  (** Demote the live skeleton to a replayable recipe and drop its
      solver.  The next {!prepare} on the {e exact} same shape replays
      the recorded clause stream (packed into one int array) into a
      fresh solver with {!Sat.Solver.add_packed}, reconstructing the
      state a cold build would have produced bit-for-bit — so a session
      parked across requests (e.g. in a warm pool) answers
      byte-identically to a cold one, with no learnt clauses, saved
      phases or extra variables leaking between requests.  A shape
      mismatch falls back to a cold build. *)

  val reset : t -> unit
  (** Drop the skeleton (and its solver) and any frozen recipe; the next
      prepare cold-builds. *)
end

type solution = {
  initial : int array;
  final : int array;
  slot_swaps : (int * int) option array;
  swap_count : int;
}

val decode : t -> bool array -> solution
