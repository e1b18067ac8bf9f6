(* Growable arrays, used to collect clauses. *)

type 'a t = {
  mutable data : 'a array;
  mutable size : int;
  dummy : 'a;
}

let create ~dummy = { data = Array.make 16 dummy; size = 0; dummy }

let make n ~dummy = { data = Array.make (max n 1) dummy; size = 0; dummy }

let size t = t.size

let is_empty t = t.size = 0

let grow t n =
  if n > Array.length t.data then begin
    let cap = max n (2 * Array.length t.data) in
    let data = Array.make cap t.dummy in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let push t x =
  grow t (t.size + 1);
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then invalid_arg "Vec.pop";
  t.size <- t.size - 1;
  let x = t.data.(t.size) in
  t.data.(t.size) <- t.dummy;
  x

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Vec.get";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.size then invalid_arg "Vec.set";
  t.data.(i) <- x

let last t = get t (t.size - 1)

let clear t =
  Array.fill t.data 0 t.size t.dummy;
  t.size <- 0

(* Shrink to exactly [n] elements, discarding the tail. *)
let shrink t n =
  if n < 0 || n > t.size then invalid_arg "Vec.shrink";
  Array.fill t.data n (t.size - n) t.dummy;
  t.size <- n

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.size - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let of_list xs ~dummy =
  let t = create ~dummy in
  List.iter (push t) xs;
  t

(* In-place filter keeping elements satisfying [p], preserving order. *)
let filter_in_place p t =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    if p t.data.(i) then begin
      t.data.(!j) <- t.data.(i);
      incr j
    end
  done;
  shrink t !j

let sort cmp t =
  let sub = Array.sub t.data 0 t.size in
  Array.sort cmp sub;
  Array.blit sub 0 t.data 0 t.size

let copy t = { data = Array.copy t.data; size = t.size; dummy = t.dummy }
