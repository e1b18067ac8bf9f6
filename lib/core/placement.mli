(** Quadratic-assignment placement with tabu search (the 2QAN recipe):
    an initial logical-to-physical map that puts interacting qubits
    close together on the device, minimising the sum over logical pairs
    of their two-qubit gate count times their device distance.  The
    sliced router pins its first slice to {!place} by default
    ([Router.config.placement = Qap]). *)

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
