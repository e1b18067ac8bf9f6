(* 1-based nearest rank; the epsilon keeps 99.9% of 10000 at 9990, not
   9991, despite float rounding. *)
let rank p n = max 1 (min n (int_of_float (Float.ceil ((p *. float n /. 100.) -. 1e-9))))

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: empty sample";
  if not (p > 0. && p <= 100.) then invalid_arg "Stats.percentile: p";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(rank p (Array.length a) - 1)

let beyond p n = if n = 0 then 0 else n - rank p n

let ladder = [ 50.; 60.; 70.; 75.; 80.; 85.; 90.; 95.; 98.; 99.; 99.5; 99.9 ]

(* The tail rule: a tail percentile must leave ten samples beyond it. *)
let min_beyond = 10

let tail_percentile n =
  List.fold_left
    (fun best p -> if beyond p n >= min_beyond then Some p else best)
    None ladder

let tail_allows p n =
  match tail_percentile n with Some q -> p <= q | None -> false

let failure_charge ~diameter ~two_qubit = (diameter - 1) * two_qubit

let swaps_or_charge ~diameter ~two_qubit = function
  | Some swaps -> swaps
  | None -> failure_charge ~diameter ~two_qubit

type span_total = { count : int; total_s : float; self_s : float }

(* Timestamps come from one monotone clock, so a child's interval lies
   inside its parent's up to float rounding of [ts + dur]. *)
let eps_us = 0.01

type open_span = { e : Obs.Trace.event; mutable children_us : float }

let self_times events =
  let totals = Hashtbl.create 16 in
  let add name dur_us self_us =
    let c, t, s =
      Option.value (Hashtbl.find_opt totals name) ~default:(0, 0., 0.)
    in
    Hashtbl.replace totals name (c + 1, t +. dur_us, s +. self_us)
  in
  let by_domain = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.ph = `Complete then
        Hashtbl.replace by_domain e.tid
          (e :: Option.value (Hashtbl.find_opt by_domain e.tid) ~default:[]))
    events;
  let close o = add o.e.name o.e.dur_us (o.e.dur_us -. o.children_us) in
  Hashtbl.iter
    (fun _ evs ->
      (* Parents sort before their children: earlier start first, and
         the longer span first on a tie. *)
      let evs =
        List.sort
          (fun (a : Obs.Trace.event) (b : Obs.Trace.event) ->
            match Float.compare a.ts_us b.ts_us with
            | 0 -> Float.compare b.dur_us a.dur_us
            | c -> c)
          evs
      in
      let stack = ref [] in
      List.iter
        (fun (e : Obs.Trace.event) ->
          let inside o =
            e.ts_us +. e.dur_us <= o.e.ts_us +. o.e.dur_us +. eps_us
          in
          let rec unwind () =
            match !stack with
            | o :: rest when not (inside o) ->
              close o;
              stack := rest;
              unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | parent :: _ -> parent.children_us <- parent.children_us +. e.dur_us
          | [] -> ());
          stack := { e; children_us = 0. } :: !stack)
        evs;
      List.iter close !stack)
    by_domain;
  Hashtbl.fold
    (fun name (count, t, s) acc ->
      (name, { count; total_s = t /. 1e6; self_s = s /. 1e6 }) :: acc)
    totals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
