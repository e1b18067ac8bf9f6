(** Growable arrays with explicit size, used to collect clauses (the
    sink builder, encoders).  The solver keeps its own monomorphic stacks.

    A dummy element is required to fill unused capacity so that values do
    not leak (and so [pop] can reset slots). *)

type 'a t

val create : dummy:'a -> 'a t
val make : int -> dummy:'a -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val last : 'a t -> 'a
val clear : 'a t -> unit
val shrink : 'a t -> int -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_list : 'a t -> 'a list
val of_list : 'a list -> dummy:'a -> 'a t
val filter_in_place : ('a -> bool) -> 'a t -> unit
val sort : ('a -> 'a -> int) -> 'a t -> unit
val copy : 'a t -> 'a t
