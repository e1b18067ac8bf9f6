(** The routing service: a worker pool in front of {!Satmap.Router} with
    a canonicalization-keyed result cache at two levels.

    - {e Request level}: the full response payload, keyed by
      {!Canon.circuit_digest} of the canonical circuit plus everything
      else the answer depends on (device, objective, method, slice size,
      swap budget, timeout).  A hit skips routing entirely; the stored
      canonical initial/final maps are translated back to the request's
      qubit labels, so the response is byte-identical to the cold one
      apart from [cache_hit] and [time_s].
    - {e Block level}: a shared {!Block_cache} plugged into
      [Router.config.block_cache], so even cold requests reuse
      (locally) optimal slice solutions across requests — repeated-body
      workloads stop paying {!Maxsat.Optimizer.solve} per block.

    [handle] is safe to call from any number of domains concurrently;
    [serve] runs the JSON-lines loop of [satmap serve] on top of
    {!Pool}. *)

type t

val create :
  ?workers:int ->
  ?solver_jobs:int ->
  ?cache_size:int ->
  ?block_cache_size:int ->
  ?queue_capacity:int ->
  ?cache_file:string ->
  unit ->
  t
(** [workers] defaults to [Domain.recommended_domain_count () - 1]
    (at least 1); [solver_jobs] (default 1) is how many domains a
    [portfolio] request runs its slice-size members on
    ([Router.config.solver_parallelism]), capped at
    [recommended_domain_count / workers] so the pool's total domain
    fan-out stays within the machine budget; [cache_size]
    (request-level entries) to 256; [block_cache_size] to 4096;
    [queue_capacity] (bounded job queue — beyond it submissions are
    rejected with [Overloaded]) to 64.  [cache_file], when given, is
    loaded now (silently skipped when missing or stale-schema) and
    written back by {!save_cache} / end-of-[serve]. *)

val handle :
  ?deadline:float ->
  ?on_progress:(block:int -> iteration:int -> cost:int -> unit) ->
  t ->
  Protocol.request ->
  Protocol.response
(** Serve one request synchronously on the calling domain.  [deadline]
    (absolute, seconds since the epoch) caps the route's remaining
    budget below the request's own [timeout]; an already-expired
    deadline returns [Deadline_exceeded] without routing.
    [on_progress] is forwarded to [Router.config.on_improvement] (one
    call per satisfiable MaxSAT iteration — the anytime-streaming
    hook).  Wrapped in a ["service.request"] span. *)

(** {2 Split request lifecycle}

    The socket server ({!Server}) needs the cache key {e before}
    routing: it decides shard ownership and single-flight membership on
    the connection thread, then runs the solve on a pool worker and
    translates the canonical-space result once per coalesced caller.
    [handle] is exactly [prepare] + [handle_prepared] + [finalize]. *)

type prepared
(** Device resolved, QASM parsed, circuit canonicalized, key computed —
    everything derivable from the request alone (no engine state). *)

val prepare : Protocol.request -> (prepared, Protocol.response) result
(** [Error] carries the documented [unknown_device] / [parse_error]
    response for the request's [id]. *)

val prepared_key : prepared -> string
(** The request-level cache key: canonical-circuit digest + device +
    objective + method/slice/swap-budget/timeout.  Two requests with
    equal keys are answerable by one canonical-space payload. *)

val prepared_request : prepared -> Protocol.request

val canonical_key : Protocol.request -> (string, Protocol.response) result
(** [prepare] + [prepared_key]; what the shard router hashes. *)

val handle_prepared :
  ?deadline:float ->
  ?on_progress:(block:int -> iteration:int -> cost:int -> unit) ->
  t ->
  prepared ->
  (Protocol.ok_payload * bool, Protocol.response) result
(** Route (or hit the request cache).  [Ok (payload, cache_hit)] is in
    {e canonical} qubit space with neutral id/timing fields — pass it
    through {!finalize} before replying.  Safe from any domain. *)

val finalize :
  prepared ->
  Protocol.ok_payload ->
  cache_hit:bool ->
  coalesced:bool ->
  time:float ->
  Protocol.ok_payload
(** Translate a canonical-space payload back to the request's qubit
    labels (initial/final maps un-permuted) and stamp id, [cache_hit],
    [coalesced] and [time].  This is the only per-caller step, which is
    what makes single-flight sound: one stored payload serves every
    coalesced caller. *)

val serve : ?max_request_bytes:int -> t -> in_channel -> out_channel -> unit
(** JSON-lines loop: one request per input line, one response per output
    line (order follows completion, not submission — correlate by [id]).
    Jobs run on the pool; a full queue answers [Overloaded] inline, a
    job whose deadline passed while queued answers [Deadline_exceeded],
    and lines longer than [max_request_bytes] (default
    {!Protocol.default_max_request_bytes}) answer [Bad_request].
    Requests with ["stream": true] get {!Protocol.Progress_response}
    lines as the descent improves.  On EOF: drain the pool, then
    {!save_cache}. *)

val shutdown : t -> unit
(** Drain and join the worker pool (idempotent).  [serve] calls this on
    EOF; call it directly when using [handle]/{!Pool.submit} yourself. *)

val save_cache : t -> unit
(** Write the request-level cache to [cache_file] (no-op without one). *)

val serve_cache : t -> Protocol.ok_payload Cache.t
(** The request-level cache, for stats and tests. *)

val block_cache : t -> Block_cache.t
(** The shared block-level cache, for stats and tests. *)

val warm : t -> Warm.t
(** The cross-request warm-session pool (skeleton-loaded solvers parked
    between requests of the same device/config shape). *)

val restored_entries : t -> int
(** Entries loaded from [cache_file] at {!create} time (0 without one). *)

val pool : t -> Pool.t

val solver_jobs : t -> int
(** The effective per-request portfolio domain count after the
    worker-budget cap was applied. *)
