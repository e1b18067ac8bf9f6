(* Indexed binary max-heap over variable indices, ordered by a priority
   array (VSIDS activity) that it reads directly, with no comparison
   closure.  Supports decrease/increase-key via [update] because we track
   each element's position. *)

type t = {
  mutable heap : int array;     (* heap.(i) = element at heap position i *)
  mutable indices : int array;  (* indices.(x) = position of x, or -1 *)
  mutable size : int;
  mutable prio : float array;   (* prio.(x) = priority of x *)
}

let create prio =
  { heap = Array.make 16 (-1); indices = Array.make 16 (-1); size = 0; prio }

let set_priorities t prio = t.prio <- prio

(* Strict "greater priority" ordering. *)
let lt t x y = t.prio.(x) > t.prio.(y)

let size t = t.size

let is_empty t = t.size = 0

let mem t x = x < Array.length t.indices && t.indices.(x) >= 0

let ensure_index t x =
  if x >= Array.length t.indices then begin
    let n = max (x + 1) (2 * Array.length t.indices) in
    let indices = Array.make n (-1) in
    Array.blit t.indices 0 indices 0 (Array.length t.indices);
    t.indices <- indices
  end

let ensure_heap t n =
  if n > Array.length t.heap then begin
    let cap = max n (2 * Array.length t.heap) in
    let heap = Array.make cap (-1) in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end

let swap t i j =
  let xi = t.heap.(i) and xj = t.heap.(j) in
  t.heap.(i) <- xj;
  t.heap.(j) <- xi;
  t.indices.(xj) <- i;
  t.indices.(xi) <- j

let rec percolate_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      percolate_up t parent
    end
  end

let rec percolate_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let best = ref i in
  if left < t.size && lt t t.heap.(left) t.heap.(!best) then best := left;
  if right < t.size && lt t t.heap.(right) t.heap.(!best) then best := right;
  if !best <> i then begin
    swap t i !best;
    percolate_down t !best
  end

let insert t x =
  ensure_index t x;
  if t.indices.(x) < 0 then begin
    ensure_heap t (t.size + 1);
    t.heap.(t.size) <- x;
    t.indices.(x) <- t.size;
    t.size <- t.size + 1;
    percolate_up t (t.size - 1)
  end

let remove_min t =
  if t.size = 0 then invalid_arg "Heap.remove_min";
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    let x = t.heap.(t.size) in
    t.heap.(0) <- x;
    t.indices.(x) <- 0
  end;
  t.indices.(top) <- -1;
  if t.size > 0 then percolate_down t 0;
  top

(* Structural self-check for the solver's sanitizer: the position map and
   the heap array must be mutually inverse, and the heap property must
   hold at every edge. *)
let check_exn t =
  if t.size < 0 || t.size > Array.length t.heap then
    failwith "Heap.check_exn: size out of bounds";
  for i = 0 to t.size - 1 do
    let x = t.heap.(i) in
    if x < 0 || x >= Array.length t.indices then
      failwith "Heap.check_exn: element out of index range";
    if t.indices.(x) <> i then
      failwith "Heap.check_exn: index map disagrees with heap array";
    if i > 0 && lt t x t.heap.((i - 1) / 2) then
      failwith "Heap.check_exn: heap property violated"
  done;
  Array.iteri
    (fun x pos ->
      if pos >= 0 && (pos >= t.size || t.heap.(pos) <> x) then
        failwith "Heap.check_exn: stale index entry")
    t.indices

(* Re-establish heap order for [x] after its priority changed. *)
let update t x =
  if mem t x then begin
    let i = t.indices.(x) in
    percolate_up t i;
    percolate_down t t.indices.(x)
  end
