(** Canonical fingerprints for (device, router config, circuit/slice).

    Two requests should share a cache entry exactly when the solver would
    face the same problem.  Logical qubit names are not part of that
    problem: relabelling qubits permutes the encoding's variables without
    changing its models.  So every key is computed over the {e canonical}
    form of the circuit — logical qubits renamed to first-use order, with
    never-used qubits packed after them in ascending order — and the
    permutation is returned so hits can be translated back
    ({!apply_perm}).

    What {e is} part of the problem, and therefore folded into every
    digest: the device topology (name, size, edge set), the calibration
    data when the objective is noise-aware, the encoding knobs of the
    router config (swap budget, AMO encoding, coalescing, injectivity
    placement, mobility clauses, objective), and — for block keys — every
    seam constraint of the {!Satmap.Router.block_query} (pinned
    initial/final maps, blocked finals, the cyclic tie, post slots).
    DESIGN.md §12 gives the soundness argument for why none of these may
    be dropped. *)

val permutation : Quantum.Circuit.t -> int array
(** [perm.(q)] is the canonical index of logical qubit [q]: qubits are
    numbered in order of first use in the gate stream; unused qubits
    follow in ascending original order.  Always a permutation of
    [0 .. n_qubits - 1]. *)

val canonical : Quantum.Circuit.t -> int array * Quantum.Circuit.t
(** The permutation and the relabelled circuit. *)

val apply_perm : int array -> int array -> int array
(** [apply_perm perm canon] reads a logical-indexed array out of
    canonical space: result.(q) = canon.(perm.(q)).  Use it to translate
    a cached (canonical) initial/final map back to a caller's labels. *)

val unapply_perm : int array -> int array -> int array
(** [unapply_perm perm orig] writes a logical-indexed array into
    canonical space: result.(perm.(q)) = orig.(q). *)

val digest_parts : string list -> string
(** Hex digest of a part list (order-sensitive, parts are
    length-prefixed so no two part lists collide by concatenation). *)

val circuit_digest : Quantum.Circuit.t -> string
(** Digest of the full gate stream (kinds, parameters, operands, clbits)
    plus the register sizes.  Callers canonicalize first when they want
    rename-insensitivity. *)

val device_digest : Arch.Device.t -> string
val calibration_digest : Arch.Calibration.t -> string

val objective_digest : Satmap.Encoding.objective -> string

val config_digest : Satmap.Router.config -> string
(** Digest of exactly the config fields a routing depends on: [amo],
    [coalesce], [inject_all_gate_layers], [mobility], the objective and
    the placement.  A block query already carries its own pin, so in a
    block key the placement only splits entries by configuration.  The
    swap budget is per-query ([bq_n_swaps]); deadlines, verification,
    certification and debug seams do not change which solutions are
    valid and are excluded. *)

val block_key : Satmap.Router.config -> Satmap.Router.block_query -> string * int array
(** Cache key for one router block, plus the slice's canonical
    permutation.  Covers the canonical slice, the device (and calibration
    under a fidelity objective), the config digest, the actual swap
    budget, post slots, the cyclic flag, and the canonical forms of the
    pinned/blocked seam maps (blocked finals as a set — their order is
    irrelevant to the solver). *)
