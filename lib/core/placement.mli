(** Quadratic-assignment placement with tabu search (the 2QAN recipe):
    an initial logical-to-physical map that puts interacting qubits
    close together on the device, minimising the sum over logical pairs
    of their two-qubit gate count times their device distance.  The
    sliced router pins its first slice to {!place} by default
    ([Router.config.placement = Qap]).  {!embed} asks whether a zero-cost
    placement exists: one that puts every two-qubit gate on a device
    edge. *)

val place :
  ?seed:int ->
  ?iterations:int ->
  Arch.Device.t ->
  Quantum.Circuit.t ->
  int array
(** Greedy construction improved by [iterations] (default 250) rounds of
    tabu search over pair swaps and moves to free physical qubits (tenure
    7, aspiration on the incumbent).  Returns an injective log -> phys
    array, deterministic for a given [seed] (default 1).  Raises
    [Invalid_argument] when the circuit has more qubits than the
    device. *)

(** {2 Embedding} *)

type embedding =
  | Embeds of int array
      (** an injective log -> phys map that puts every two-qubit gate on
          a device edge *)
  | Does_not_embed  (** no injective map does *)
  | Unknown  (** the search ran out of nodes before it could tell *)

val embed : ?budget:int -> Arch.Device.t -> Quantum.Circuit.t -> embedding
(** Exact, deterministic test of whether the circuit's interaction graph
    embeds in the device: does some injective map put every two-qubit
    gate on a device edge?  A backtracking search ordered by
    connectivity and pruned by degree and by already-placed neighbours;
    each placement it tries costs one of [budget] nodes (default 20,000;
    the router always uses the default), and a search that needs more
    answers [Unknown], never [Does_not_embed].  A circuit with more
    qubits than the device does not embed.  The router uses
    [Does_not_embed] as a proved lower bound of one SWAP on a block
    whose initial map is free. *)
