(* The sketching-style MaxSAT encoding of the QMR problem (Section IV of
   the paper).

   Time structure.  Two-qubit gates are numbered into "steps" (consecutive
   gates on the same unordered qubit pair are coalesced into one step —
   they impose the same constraint, so this is a pure optimisation).  A
   group of [n_swaps] swap slots precedes every step, exactly as in the
   paper ("up to n SWAPs before each two-qubit gate"); when solving a
   slice whose initial map is pinned, the group before the first gate is
   what lets routing happen at the seam.  Optionally [post_slots] slots
   follow the last step — cyclic solutions use them to restore the initial
   map.  Every slot separates two map layers, so

     layers:  M_0  |s_0..|  M_n = step 0  |..|  M_2n = step 1  ...

   Variables.
   - map(q, p, l): logical q sits on physical p at layer l;
   - swap(e, s):   slot s performs the swap on edge e;
   - noop(s):      slot s does nothing (the paper's synthetic
                   swap(p0, p0) edge).

   Constraints (names follow Fig. 5 of the paper).
   - Hard A (injectivity) is imposed at layer 0 with the linear
     "only-one" encoding; the transition constraints are functional, so
     injectivity propagates to every later layer.  A flag re-imposes it at
     every gate layer (ablation).
   - Hard B (gate executability): map(q,p,l) -> \/_{p' in N(p)} map(q',p',l).
   - Hard C (one swap per slot): exactly-one over {noop} ∪ edges.
   - Hard D (swap effect): chosen-edge biconditionals plus frame axioms
     "map(q,p) persists unless some swap touching p fired".
   - Soft: one unit clause noop(s) per slot (swap minimisation), or
     weighted soft clauses from calibration data (fidelity maximisation,
     Q6). *)

type objective = Count_swaps | Fidelity of Arch.Calibration.t

type spec = {
  device : Arch.Device.t;
  n_swaps : int;
  post_slots : int;
  amo : Sat.Card.encoding;
  coalesce : bool;
  inject_all_gate_layers : bool;
  mobility : bool;
  objective : objective;
}

let spec ?(n_swaps = 1) ?(post_slots = 0) ?(amo = Sat.Card.Sequential)
    ?(coalesce = true) ?(inject_all_gate_layers = true) ?(mobility = true)
    ?(objective = Count_swaps) device =
  if n_swaps < 1 then invalid_arg "Encoding.spec: n_swaps must be >= 1";
  if post_slots < 0 then invalid_arg "Encoding.spec: negative post_slots";
  {
    device;
    n_swaps;
    post_slots;
    amo;
    coalesce;
    inject_all_gate_layers;
    mobility;
    objective;
  }

type step = {
  pair : int * int;
  multiplicity : int;  (** coalesced gate count *)
}

type t = {
  spec : spec;
  n_log : int;
  steps : step array;
  n_layers : int;
  n_slots : int;
  instance : Maxsat.Instance.t;
  insertion : Sat.Sink.sanitize_stats;
}

(* ------------------------------------------------------------------ *)
(* Step extraction *)

let steps_of_circuit ~coalesce circuit =
  let pairs =
    List.map
      (fun (_, q, q') -> if q < q' then (q, q') else (q', q))
      (Quantum.Circuit.two_qubit_gates circuit)
  in
  let rec group acc = function
    | [] -> List.rev acc
    | pair :: rest -> (
      match acc with
      | { pair = prev; multiplicity } :: acc' when coalesce && prev = pair ->
        group ({ pair; multiplicity = multiplicity + 1 } :: acc') rest
      | _ -> group ({ pair; multiplicity = 1 } :: acc) rest)
  in
  Array.of_list (group [] pairs)

(* ------------------------------------------------------------------ *)
(* Variable numbering *)

let n_phys t = Arch.Device.n_qubits t.spec.device
let n_edges t = Arch.Device.n_edges t.spec.device

let map_var t ~layer ~q ~p =
  (((layer * t.n_log) + q) * n_phys t) + p

let slot_base t = t.n_layers * t.n_log * n_phys t

let noop_var t ~slot = slot_base t + (slot * (n_edges t + 1))

let swap_var t ~slot ~edge = noop_var t ~slot + 1 + edge

let n_fixed_vars t = slot_base t + (t.n_slots * (n_edges t + 1))

let gate_layer t step = (step + 1) * t.spec.n_swaps

let final_layer t = t.n_layers - 1

let slots_before_step t step =
  List.init t.spec.n_swaps (fun i -> (step * t.spec.n_swaps) + i)

let post_slot_indices t =
  List.init t.spec.post_slots (fun i ->
      (Array.length t.steps * t.spec.n_swaps) + i)

(* ------------------------------------------------------------------ *)
(* Size estimation (used by the router's memory guard, standing in for the
   paper's 5 GB cap) *)

let estimate_vars spec circuit =
  let steps = steps_of_circuit ~coalesce:spec.coalesce circuit in
  let n_steps = Array.length steps in
  let n_slots = (n_steps * spec.n_swaps) + spec.post_slots in
  let n_layers = n_slots + 1 in
  let l = Quantum.Circuit.n_qubits circuit in
  let p = Arch.Device.n_qubits spec.device in
  let e = Arch.Device.n_edges spec.device in
  (n_layers * l * p) + (n_slots * (e + 1))

(* Clause-count estimate, the dominant memory term; the router's guard
   checks it against a cap that models the paper's 5 GB limit. *)
let estimate_clauses spec circuit =
  let steps = steps_of_circuit ~coalesce:spec.coalesce circuit in
  let n_steps = Array.length steps in
  let n_slots = (n_steps * spec.n_swaps) + spec.post_slots in
  let l = Quantum.Circuit.n_qubits circuit in
  let p = Arch.Device.n_qubits spec.device in
  let e = Arch.Device.n_edges spec.device in
  let injectivity_at_one_layer =
    match spec.amo with
    | Sat.Card.Pairwise -> (l * p * (p - 1) / 2) + (p * l * (l - 1) / 2)
    | Sat.Card.Sequential | Sat.Card.Commander -> 4 * l * p
  in
  let injected_layers = 1 + if spec.inject_all_gate_layers then n_steps else 0 in
  let per_slot =
    (* exactly-one over e+1 choices, effect, frame, mobility *)
    (match spec.amo with
    | Sat.Card.Pairwise -> (e + 1) * e / 2
    | Sat.Card.Sequential | Sat.Card.Commander -> 4 * (e + 1))
    + (4 * e * l)
    + (2 * p * l)
    + (if spec.mobility then 2 * p * l else 0)
  in
  (injected_layers * injectivity_at_one_layer)
  + (n_slots * per_slot)
  + (n_steps * p) (* Hard B *)

(* ------------------------------------------------------------------ *)
(* Building *)

exception Encode_timeout

(* Layout (variable numbering, steps, slot/layer counts) without any
   clauses: what the block-cache hit path needs to replay a cached
   solution through [emit], and what a skeleton is laid out over. *)
let layout ~who spec circuit =
  let n_log = Quantum.Circuit.n_qubits circuit in
  if n_log > Arch.Device.n_qubits spec.device then
    invalid_arg (who ^ ": more logical than physical qubits");
  let steps = steps_of_circuit ~coalesce:spec.coalesce circuit in
  let n_steps = Array.length steps in
  if n_steps = 0 then invalid_arg (who ^ ": circuit has no two-qubit gates");
  let n_slots = (n_steps * spec.n_swaps) + spec.post_slots in
  {
    spec;
    n_log;
    steps;
    n_layers = n_slots + 1;
    n_slots;
    instance = Maxsat.Instance.create ~n_vars:0 ~hard:[] ~soft:[];
    insertion = Sat.Sink.sanitize_stats ();
  }

let structure spec circuit = layout ~who:"Encoding.structure" spec circuit

(* The constraint emitters, shared between the monolithic [build] (which
   emits everything into one instance) and [Session] (which emits the
   slice-independent skeleton once per solver and only the gate/seam
   layer per activation).  All clauses go through [sink]; soft clauses
   accumulate in [soft]. *)
type emitters = {
  em_inject_at : int -> unit;  (** Hard A at one layer *)
  em_gate_step : layer:int -> int * int -> unit;  (** Hard B for one step *)
  em_slot : int -> unit;  (** Hard C + D + mobility + soft for one slot *)
  em_pin : int -> int array -> unit;  (** unit-pin a map at a layer *)
  em_cyclic : unit -> unit;  (** final map = initial map *)
  em_blocked : int array -> unit;  (** block one final map *)
  em_force_noop : int -> unit;  (** pin a (padding) slot to its no-op *)
}

let emitters t (sink : Sat.Sink.t) soft =
  let spec = t.spec in
  let device = spec.device in
  let n_phys = Arch.Device.n_qubits device in
  let n_log = t.n_log in
  let edges = Arch.Device.edge_array device in
  let n_edges = Array.length edges in
  let pos v = Sat.Lit.of_var v in
  let mapl ~layer ~q ~p = pos (map_var t ~layer ~q ~p) in
  let nmapl ~layer ~q ~p = Sat.Lit.of_var ~sign:false (map_var t ~layer ~q ~p) in
  (* Hard A: injectivity at one layer. *)
  let em_inject_at layer =
    for q = 0 to n_log - 1 do
      Sat.Card.exactly_one ~encoding:spec.amo sink
        (List.init n_phys (fun p -> mapl ~layer ~q ~p))
    done;
    for p = 0 to n_phys - 1 do
      if n_log > 1 then
        Sat.Card.at_most_one ~encoding:spec.amo sink
          (List.init n_log (fun q -> mapl ~layer ~q ~p))
    done
  in
  (* Hard B: executability of one gate step at its layer. *)
  let em_gate_step ~layer (q, q') =
    for p = 0 to n_phys - 1 do
      let clause =
        nmapl ~layer ~q ~p
        :: List.map
             (fun p' -> mapl ~layer ~q:q' ~p:p')
             (Arch.Device.neighbors device p)
      in
      sink.add_clause clause
    done
  in
  (* Hard C and D for one slot, plus the soft objective. *)
  let em_slot s =
    let l = s in
    let l' = s + 1 in
    let noop = pos (noop_var t ~slot:s) in
    let swap e = pos (swap_var t ~slot:s ~edge:e) in
    (* Hard C: exactly one choice. *)
    Sat.Card.exactly_one ~encoding:spec.amo sink
      (noop :: List.init n_edges swap);
    (* Hard D, effect of the chosen swap. *)
    for e = 0 to n_edges - 1 do
      let a, b = edges.(e) in
      let ns = Sat.Lit.neg (swap e) in
      for q = 0 to n_log - 1 do
        (* map(q, a, l') <-> map(q, b, l) under swap e *)
        sink.add_clause [ ns; nmapl ~layer:l ~q ~p:b; mapl ~layer:l' ~q ~p:a ];
        sink.add_clause [ ns; mapl ~layer:l ~q ~p:b; nmapl ~layer:l' ~q ~p:a ];
        sink.add_clause [ ns; nmapl ~layer:l ~q ~p:a; mapl ~layer:l' ~q ~p:b ];
        sink.add_clause [ ns; mapl ~layer:l ~q ~p:a; nmapl ~layer:l' ~q ~p:b ]
      done
    done;
    (* Hard D, frame: positions persist unless a swap touched them. *)
    for p = 0 to n_phys - 1 do
      let touching = ref [] in
      Array.iteri
        (fun e (a, b) -> if a = p || b = p then touching := swap e :: !touching)
        edges;
      for q = 0 to n_log - 1 do
        sink.add_clause
          (nmapl ~layer:l ~q ~p :: mapl ~layer:l' ~q ~p :: !touching);
        sink.add_clause
          (mapl ~layer:l ~q ~p :: nmapl ~layer:l' ~q ~p :: !touching)
      done
    done;
    (* Mobility (redundant but propagation-critical): one slot moves a
       qubit at most one hop, in both time directions.  Without these the
       solver must case-split on swap variables to derive any distance
       bound; with them, unsatisfiable seams refute by unit propagation. *)
    if spec.mobility then
      for p = 0 to n_phys - 1 do
        let closed_next =
          List.map (fun p' -> (`Next, p')) (Arch.Device.neighbors device p)
        in
        for q = 0 to n_log - 1 do
          sink.add_clause
            (nmapl ~layer:l ~q ~p :: mapl ~layer:l' ~q ~p
            :: List.map (fun (_, p') -> mapl ~layer:l' ~q ~p:p') closed_next);
          sink.add_clause
            (nmapl ~layer:l' ~q ~p :: mapl ~layer:l ~q ~p
            :: List.map (fun (_, p') -> mapl ~layer:l ~q ~p:p') closed_next)
        done
      done;
    (* Soft: prefer the no-op. *)
    match spec.objective with
    | Count_swaps -> soft := (1, [ noop ]) :: !soft
    | Fidelity cal ->
      for e = 0 to n_edges - 1 do
        let w = Arch.Calibration.swap_log_weight cal edges.(e) in
        soft := (w, [ Sat.Lit.neg (swap e) ]) :: !soft
      done
  in
  (* Pinned initial / final maps (slicing seams). *)
  let em_pin layer arr =
    if Array.length arr <> n_log then
      invalid_arg "Encoding: pinned map has wrong arity";
    Array.iteri (fun q p -> sink.add_clause [ mapl ~layer ~q ~p ]) arr
  in
  (* Cyclic stitching: final map equals initial map. *)
  let em_cyclic () =
    let fl = final_layer t in
    for q = 0 to n_log - 1 do
      for p = 0 to n_phys - 1 do
        sink.add_clause [ nmapl ~layer:0 ~q ~p; mapl ~layer:fl ~q ~p ];
        sink.add_clause [ mapl ~layer:0 ~q ~p; nmapl ~layer:fl ~q ~p ]
      done
    done
  in
  (* Backtracking: block a previously returned final map (Section V). *)
  let em_blocked arr =
    if Array.length arr <> n_log then
      invalid_arg "Encoding: blocked map has wrong arity";
    let fl = final_layer t in
    sink.add_clause (List.init n_log (fun q -> nmapl ~layer:fl ~q ~p:arr.(q)))
  in
  let em_force_noop s = sink.add_clause [ pos (noop_var t ~slot:s) ] in
  {
    em_inject_at;
    em_gate_step;
    em_slot;
    em_pin;
    em_cyclic;
    em_blocked;
    em_force_noop;
  }

let build ?deadline ?fixed_initial ?fixed_final ?(cyclic = false)
    ?(blocked_finals = []) spec circuit =
  (* Clause emission itself can consume a whole routing budget on large
     instances (the benchmark's fast-fail rows spend their entire
     timeout before the first solver call).  The check sits on the two
     loops that dominate emission — per gate step and per swap slot — so
     an over-budget build aborts within one loop iteration. *)
  let check_deadline =
    match deadline with
    | None -> fun () -> ()
    | Some d ->
      fun () -> if Unix.gettimeofday () > d then raise Encode_timeout
  in
  let t = layout ~who:"Encoding.build" spec circuit in
  let steps = t.steps in
  let n_steps = Array.length steps in
  let edges = Arch.Device.edge_array spec.device in
  let n_edges = Array.length edges in
  let hard = Sat.Vec.create ~dummy:[] in
  let soft = ref [] in
  let next_aux = ref (n_fixed_vars t) in
  let sink =
    (* Insertion hygiene: duplicate literals and tautologies are dropped
       at the sink, and the deltas surface in lint output. *)
    Sat.Sink.sanitizing ~stats:t.insertion
      Sat.Sink.
        {
          fresh_var =
            (fun () ->
              let v = !next_aux in
              incr next_aux;
              v);
          add_clause = (fun c -> Sat.Vec.push hard c);
        }
  in
  let em = emitters t sink soft in
  let pos v = Sat.Lit.of_var v in
  let nmapl ~layer ~q ~p = Sat.Lit.of_var ~sign:false (map_var t ~layer ~q ~p) in

  (* Hard A: injectivity at layer 0 (and optionally at gate layers). *)
  em.em_inject_at 0;
  if spec.inject_all_gate_layers then
    for i = 0 to n_steps - 1 do
      check_deadline ();
      em.em_inject_at (gate_layer t i)
    done;

  (* Hard B: executability at every gate layer. *)
  Array.iteri
    (fun i { pair; _ } ->
      check_deadline ();
      em.em_gate_step ~layer:(gate_layer t i) pair)
    steps;

  (* Hard C and D per slot, plus the soft objective. *)
  for s = 0 to t.n_slots - 1 do
    check_deadline ();
    em.em_slot s
  done;

  (* Fidelity objective also weights the edge each gate executes on. *)
  (match spec.objective with
  | Count_swaps -> ()
  | Fidelity cal ->
    Array.iteri
      (fun i { pair = q, q'; multiplicity } ->
        let layer = gate_layer t i in
        for e = 0 to n_edges - 1 do
          let a, b = edges.(e) in
          let g = pos (sink.fresh_var ()) in
          (* gate on edge e in either orientation forces g *)
          sink.add_clause [ nmapl ~layer ~q ~p:a; nmapl ~layer ~q:q' ~p:b; g ];
          sink.add_clause [ nmapl ~layer ~q ~p:b; nmapl ~layer ~q:q' ~p:a; g ];
          let w =
            multiplicity * Arch.Calibration.cnot_log_weight cal edges.(e)
          in
          soft := (w, [ Sat.Lit.neg g ]) :: !soft
        done)
      steps);

  (* Pinned initial / final maps (slicing seams). *)
  Option.iter (em.em_pin 0) fixed_initial;
  Option.iter (em.em_pin (final_layer t)) fixed_final;

  (* Cyclic stitching: final map equals initial map. *)
  if cyclic then em.em_cyclic ();

  (* Backtracking: block previously returned final maps (Section V). *)
  List.iter em.em_blocked blocked_finals;

  let instance =
    Maxsat.Instance.create ~n_vars:!next_aux
      ~hard:(Sat.Vec.to_list hard)
      ~soft:!soft
  in
  { t with instance }

let instance t = t.instance
let n_steps t = Array.length t.steps
let steps t = t.steps
let spec_of t = t.spec
let n_log t = t.n_log
let n_slots t = t.n_slots
let n_layers t = t.n_layers
let device t = t.spec.device
let insertion_stats t = t.insertion

let injected_layers t =
  0
  ::
  (if t.spec.inject_all_gate_layers then
     List.init (Array.length t.steps) (fun i -> gate_layer t i)
   else [])

type var_class =
  | Map of { layer : int; q : int; p : int }
  | Noop of { slot : int }
  | Swap of { slot : int; edge : int }
  | Aux

let classify_var t v =
  let base = slot_base t in
  if v < 0 then Aux
  else if v < base then begin
    let p = v mod n_phys t in
    let rest = v / n_phys t in
    Map { layer = rest / t.n_log; q = rest mod t.n_log; p }
  end
  else if v < n_fixed_vars t then begin
    let off = v - base in
    let slot = off / (n_edges t + 1) in
    let r = off mod (n_edges t + 1) in
    if r = 0 then Noop { slot } else Swap { slot; edge = r - 1 }
  end
  else Aux

(* ------------------------------------------------------------------ *)
(* Incremental sessions *)

type enc = t

module Session = struct
  (* One persistent solver holding the slice-independent "skeleton" of the
     encoding — injectivity, swap-slot choice/effect/frame/mobility and
     the per-slot soft no-ops are all gate-independent for a fixed
     (device, n_log, n_swaps, slot-count, flags) shape.  Only Hard B (gate
     executability), seam pins, cyclic stitching and blocked-final clauses
     depend on the slice, and those are (re-)emitted per activation under
     a fresh guard literal g: every activation clause is (¬g ∨ ...), the
     descent runs under assumption g, and when the next slice arrives the
     old guard is retired with a permanent unit ¬g_old.

     Shorter activations than the skeleton are handled by forcing the
     trailing slots to their no-op (guarded units): the frame axioms then
     persist the map to the skeleton's final layer, so final-map pins,
     cyclic stitching and blocked finals all read the real final map, and
     the padded slots contribute zero to the objective. *)

  let m_reused_clauses = Obs.Metrics.counter "encode.reused_clauses"

  (* The exact clause stream a skeleton build delivered to its solver,
     packed into one int array ({!Sat.Solver.add_packed}'s format: per
     clause its literal count, then its literals).  Replaying it into a
     fresh solver reproduces the cold-build solver state bit for bit
     (same variables in the same order, same clauses in the same order,
     no learnt clauses, no saved phases), while skipping the emitter walk
     and the sanitizer — which is what makes cross-request warm reuse
     safe for the serving tier's determinism invariants (byte-identical
     answers regardless of which requests a shard served before; see
     Service.Warm).  Packed, a recorded skeleton is one unboxed block
     instead of a list cell per literal for the GC to promote and trace. *)
  type recipe = {
    rc_layout : enc;
    rc_n_vars : int;
    rc_clauses : int array;  (** packed, in emission order *)
    rc_relax : (int * Sat.Lit.t) list;
    rc_count : int;
  }

  type skeleton = {
    sk_solver : Sat.Solver.t;
    sk_layout : enc;  (** layout of the widest activation seen *)
    sk_relax : (int * Sat.Lit.t) list;
        (** (weight, relaxation literal) per slot, over skeleton slots *)
    sk_bounds : Maxsat.Optimizer.bounds;
        (** descent-bound selectors shared by every activation *)
    sk_clauses : int;  (** skeleton clauses — re-emission avoided on reuse *)
    sk_recipe : recipe;
    mutable sk_live_guard : Sat.Lit.t option;
    mutable sk_activations : int;
  }

  type t = {
    window : int;
    mutable skeleton : skeleton option;
    mutable frozen : recipe option;
        (** demoted live skeleton ({!freeze}), thawable into a fresh
            solver on an exact shape match *)
  }

  type active = {
    a_enc : enc;
    a_solver : Sat.Solver.t;
    a_assumptions : Sat.Lit.t list;
    a_relax : (int * Sat.Lit.t) list;
    a_bounds : Maxsat.Optimizer.bounds;
    a_reused : bool;  (** false when this activation built the skeleton *)
  }

  let create ?(window = 16) () =
    if window < 1 then invalid_arg "Encoding.Session.create: window < 1";
    { window; skeleton = None; frozen = None }

  (* Fidelity softs weight the edge each gate executes on — gate-dependent,
     so they cannot live in the skeleton. *)
  let supported spec =
    match spec.objective with Count_swaps -> true | Fidelity _ -> false

  let device_eq a b =
    Arch.Device.name a = Arch.Device.name b
    && Arch.Device.n_qubits a = Arch.Device.n_qubits b
    && Arch.Device.edges a = Arch.Device.edges b

  let compatible sk (act : enc) =
    let s = sk.sk_layout.spec and s' = act.spec in
    act.n_log = sk.sk_layout.n_log
    && act.n_slots <= sk.sk_layout.n_slots
    && Array.length act.steps <= Array.length sk.sk_layout.steps
    && s'.n_swaps = s.n_swaps && s'.amo = s.amo
    && s'.inject_all_gate_layers = s.inject_all_gate_layers
    && s'.mobility = s.mobility
    && device_eq s'.device s.device

  (* Thawing a recipe demands EXACT shape equality, not the <= padding
     compatibility of a live skeleton: a cold engine would build the
     skeleton sized to this activation, and a thaw that padded a larger
     parked shape instead would put a different formula in front of the
     descent — different (equal-cost) models, breaking the byte-identity
     the serving tier promises. *)
  let same_shape (a : enc) (b : enc) =
    let s = a.spec and s' = b.spec in
    a.n_log = b.n_log && a.n_slots = b.n_slots
    && Array.length a.steps = Array.length b.steps
    && s'.n_swaps = s.n_swaps && s'.amo = s.amo
    && s'.inject_all_gate_layers = s.inject_all_gate_layers
    && s'.mobility = s.mobility
    && device_eq s'.device s.device

  let check_deadline = function
    | None -> fun () -> ()
    | Some d ->
      fun () -> if Unix.gettimeofday () > d then raise Encode_timeout

  let build_skeleton ?deadline (lay : enc) =
    let check = check_deadline deadline in
    let solver = Sat.Solver.create () in
    for _ = 1 to n_fixed_vars lay do
      ignore (Sat.Solver.new_var solver)
    done;
    let stats = Sat.Sink.sanitize_stats () in
    let packed = ref (Array.make 4096 0) and words = ref 0 in
    let record c =
      let n = List.length c in
      if !words + n + 1 > Array.length !packed then begin
        let a = Array.make (2 * (!words + n + 1)) 0 in
        Array.blit !packed 0 a 0 !words;
        packed := a
      end;
      !packed.(!words) <- n;
      List.iteri (fun i (l : Sat.Lit.t) -> !packed.(!words + 1 + i) <- (l :> int)) c;
      words := !words + n + 1
    in
    let sink =
      (* Tee the sanitized clause stream into the recipe on its way to
         the solver, so a later thaw can replay exactly what the solver
         saw. *)
      Sat.Sink.sanitizing ~stats
        Sat.Sink.
          {
            fresh_var = (fun () -> Sat.Solver.new_var solver);
            add_clause =
              (fun c ->
                record c;
                Sat.Solver.add_clause solver c);
          }
    in
    let soft = ref [] in
    let em = emitters lay sink soft in
    em.em_inject_at 0;
    if lay.spec.inject_all_gate_layers then
      for i = 0 to Array.length lay.steps - 1 do
        check ();
        em.em_inject_at (gate_layer lay i)
      done;
    for s = 0 to lay.n_slots - 1 do
      check ();
      em.em_slot s
    done;
    let relax =
      List.rev_map
        (fun (w, c) ->
          match c with
          | [ l ] -> (w, Sat.Lit.neg l)
          | _ -> assert false (* per-slot softs are unit by construction *))
        !soft
    in
    {
      sk_solver = solver;
      sk_layout = lay;
      sk_relax = relax;
      sk_bounds = Maxsat.Optimizer.shared_bounds ();
      sk_clauses = stats.Sat.Sink.clauses_seen;
      sk_recipe =
        {
          rc_layout = lay;
          rc_n_vars = Sat.Solver.n_vars solver;
          rc_clauses = Array.sub !packed 0 !words;
          rc_relax = relax;
          rc_count = stats.Sat.Sink.clauses_seen;
        };
      sk_live_guard = None;
      sk_activations = 0;
    }

  let thaw ?deadline recipe =
    let check = check_deadline deadline in
    let solver = Sat.Solver.create () in
    for _ = 1 to recipe.rc_n_vars do
      ignore (Sat.Solver.new_var solver)
    done;
    Sat.Solver.add_packed ~check solver recipe.rc_clauses;
    Obs.Metrics.add m_reused_clauses recipe.rc_count;
    {
      sk_solver = solver;
      sk_layout = recipe.rc_layout;
      sk_relax = recipe.rc_relax;
      sk_bounds = Maxsat.Optimizer.shared_bounds ();
      sk_clauses = recipe.rc_count;
      sk_recipe = recipe;
      sk_live_guard = None;
      sk_activations = 0;
    }

  let prepare ?deadline ?fixed_initial ?fixed_final ?(cyclic = false)
      ?(blocked_finals = []) t spec circuit =
    if not (supported spec) then
      invalid_arg "Encoding.Session.prepare: unsupported objective";
    let act_lay = layout ~who:"Encoding.Session.prepare" spec circuit in
    let sk, reused =
      match t.skeleton with
      | Some sk when compatible sk act_lay && sk.sk_activations < t.window ->
        Obs.Metrics.add m_reused_clauses sk.sk_clauses;
        (sk, true)
      | _ ->
        (* Prefer replaying a recipe (from the retiring live skeleton or
           a frozen one) over cold-building: the fresh solver ends up in
           exactly the state a cold build would produce — bit-identical
           descent — while skipping re-normalisation. *)
        let recipe =
          match t.skeleton with
          | Some sk -> Some sk.sk_recipe
          | None -> t.frozen
        in
        (* Clear first: a mid-build Encode_timeout must not leave a
           half-emitted skeleton behind as reusable. *)
        t.skeleton <- None;
        let load () =
          match recipe with
          | Some r when same_shape r.rc_layout act_lay -> (thaw ?deadline r, true)
          | _ -> (build_skeleton ?deadline act_lay, false)
        in
        let sk =
          if not (Obs.Trace.enabled ()) then fst (load ())
          else begin
            (* The load gets its own span, so a trace (and a self-time
               rollup) tells skeleton loading apart from block work. *)
            let span = Obs.Trace.start "encode.skeleton" in
            match load () with
            | sk, thawed ->
              Obs.Trace.stop span
                ~args:
                  [
                    ("vars", Obs.Trace.Int (Sat.Solver.n_vars sk.sk_solver));
                    ("clauses", Obs.Trace.Int sk.sk_clauses);
                    ("thawed", Obs.Trace.Bool thawed);
                  ];
              sk
            | exception e ->
              Obs.Trace.stop span;
              raise e
          end
        in
        t.skeleton <- Some sk;
        (sk, false)
    in
    sk.sk_activations <- sk.sk_activations + 1;
    let solver = sk.sk_solver in
    (* Retire the previous activation's guard permanently: its clauses
       become satisfied units rather than phase-saving bait. *)
    Option.iter
      (fun g -> Sat.Solver.add_clause solver [ Sat.Lit.neg g ])
      sk.sk_live_guard;
    let gv = Sat.Solver.new_var solver in
    Sat.Solver.set_polarity solver gv false;
    let g = Sat.Lit.of_var gv in
    sk.sk_live_guard <- Some g;
    let enc =
      {
        sk.sk_layout with
        spec;
        steps = act_lay.steps;
        insertion = Sat.Sink.sanitize_stats ();
      }
    in
    let sink =
      (* Normalisation sees the logical clause; the guard is prepended
         after, on the way into the solver. *)
      Sat.Sink.sanitizing ~stats:enc.insertion
        Sat.Sink.
          {
            fresh_var = (fun () -> Sat.Solver.new_var solver);
            add_clause =
              (fun c -> Sat.Solver.add_clause solver (Sat.Lit.neg g :: c));
          }
    in
    let em = emitters enc sink (ref []) in
    let check = check_deadline deadline in
    Array.iteri
      (fun i { pair; _ } ->
        check ();
        em.em_gate_step ~layer:(gate_layer enc i) pair)
      act_lay.steps;
    for s = act_lay.n_slots to sk.sk_layout.n_slots - 1 do
      em.em_force_noop s
    done;
    Option.iter (em.em_pin 0) fixed_initial;
    Option.iter (em.em_pin (final_layer enc)) fixed_final;
    if cyclic then em.em_cyclic ();
    List.iter em.em_blocked blocked_finals;
    {
      a_enc = enc;
      a_solver = solver;
      a_assumptions = [ g ];
      a_relax = sk.sk_relax;
      a_bounds = sk.sk_bounds;
      a_reused = reused;
    }

  let freeze t =
    (match t.skeleton with
    | Some sk -> t.frozen <- Some sk.sk_recipe
    | None -> ());
    t.skeleton <- None

  let reset t =
    t.skeleton <- None;
    t.frozen <- None
end

(* ------------------------------------------------------------------ *)
(* Decoding *)

type solution = {
  initial : int array;
  final : int array;
  slot_swaps : (int * int) option array;
  swap_count : int;
}

let decode t (model : bool array) =
  let read_layer layer =
    Array.init t.n_log (fun q ->
        let rec find p =
          if p >= n_phys t then
            failwith "Encoding.decode: no physical qubit assigned"
          else if model.(map_var t ~layer ~q ~p) then p
          else find (p + 1)
        in
        find 0)
  in
  let edges = Arch.Device.edge_array t.spec.device in
  let slot_swaps =
    Array.init t.n_slots (fun s ->
        if model.(noop_var t ~slot:s) then None
        else begin
          let rec find e =
            if e >= n_edges t then
              failwith "Encoding.decode: slot has no choice set"
            else if model.(swap_var t ~slot:s ~edge:e) then Some edges.(e)
            else find (e + 1)
          in
          find 0
        end)
  in
  let swap_count =
    Array.fold_left
      (fun acc s -> match s with Some _ -> acc + 1 | None -> acc)
      0 slot_swaps
  in
  {
    initial = read_layer 0;
    final = read_layer (final_layer t);
    slot_swaps;
    swap_count;
  }
