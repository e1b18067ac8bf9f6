(** Pure helpers behind the benchmark's metrics: order statistics, the
    tail-percentile rule, the charge for a request without a verified
    routing, and per-span self time from a trace. *)

val percentile : float -> float list -> float
(** [percentile p xs] is the nearest-rank [p]-th percentile: the value
    at 1-based rank [ceil (p / 100 * n)] of the sorted sample.  Raises
    [Invalid_argument] on an empty sample or [p] outside (0, 100]. *)

val beyond : float -> int -> int
(** [beyond p n]: how many of [n] samples rank strictly above the
    [p]-th percentile. *)

val ladder : float list
(** The percentiles a tail may be reported at, ascending. *)

val tail_percentile : int -> float option
(** The highest {!ladder} percentile with at least ten of [n] samples
    beyond it; [None] when even the median has fewer. *)

val tail_allows : float -> int -> bool
(** [tail_allows p n]: [p] lies at or below {!tail_percentile}[ n], so a
    tail reported at the [p]-th percentile of [n] samples has at least
    ten beyond it.  [p] is meant to be a {!ladder} percentile. *)

val failure_charge : diameter:int -> two_qubit:int -> int
(** SWAPs charged to a request that got no verified routing: the naive
    bound of [diameter - 1] SWAPs per two-qubit gate, so that turning a
    failure into any routing lowers a swap total. *)

val swaps_or_charge : diameter:int -> two_qubit:int -> int option -> int
(** The routing's SWAP count, or {!failure_charge} for [None]. *)

type span_total = {
  count : int;  (** completed spans of this name *)
  total_s : float;  (** summed duration *)
  self_s : float;  (** summed duration minus direct children *)
}

val self_times : Obs.Trace.event list -> (string * span_total) list
(** Per span name, sorted by name.  A span's children are the complete
    spans recorded on the same domain whose interval lies inside it; its
    self time is its duration minus the durations of its direct
    children.  Instant and counter events are ignored. *)
