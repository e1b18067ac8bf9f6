(** Indexed binary heap over non-negative integers (variable indices).

    Element [x] has priority [prio.(x)] in the priority array the heap
    reads; [remove_min] returns the highest-priority element.  Priorities
    may change externally, in which case [update] must be called to
    restore the heap invariant. *)

type t

val create : float array -> t
(** [create prio]: an empty heap ordered by [prio], which must cover
    every element inserted. *)

val set_priorities : t -> float array -> unit
(** Replace the priority array (e.g. with a grown copy holding the same
    priorities); the heap order is not re-established. *)

val size : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool
val insert : t -> int -> unit
val remove_min : t -> int
val update : t -> int -> unit

val check_exn : t -> unit
(** Verify the heap property and the element/position index maps; raises
    [Failure] on corruption.  Used by the solver's invariant sanitizer. *)
