(* A CDCL SAT solver, upgraded from the MiniSat-2005 baseline to a
   Glucose-class engine:

   - every clause lives in one growable [int] arena (see "Clause arena"
     below); a clause is named by the offset of its header, so watch
     lists, reasons and the clause lists are arrays of immediates and no
     assignment, watcher move or relocation passes a write barrier;
   - long-clause watch lists are flat (clause, blocker) pairs; the blocker
     is tested before the clause is loaded, so a watcher whose blocker is
     true is kept without touching clause memory, and a kept watcher is
     written back only when it has moved;
   - binary clauses live in dedicated implication lists of the same
     layout (clause, implied literal) and propagate without any clause
     inspection;
   - reasons are an [int] array of clause references, with [no_clause]
     meaning "no reason", and the trail, its level limits and the
     conflict-analysis scratch are monomorphic stacks of immediates, so
     an assignment allocates nothing;
   - every learnt clause carries its literal-block distance (LBD); the
     learnt database is reduced glucose-style (glue clauses with LBD <= 2
     are kept forever, evictions sorted by LBD then activity), and the
     arena is compacted once most of it is dead;
   - conflict clauses are minimized recursively (MiniSat ccmin=2) by an
     explicit depth-first walk that caches redundant and failed nodes;
   - deadlines are also checked inside [propagate] (every
     [deadline_check_interval] propagations), so long conflict-free runs
     on huge trails cannot overshoot an anytime budget.

   Literal/variable conventions follow {!Lit}: literals are packed
   integers so they can index the watch-list arrays directly.  A clause
   watches its first two literals; a watch list is keyed by the watched
   literal itself and visited when that literal becomes false.  Inside
   this module the hot paths work on literals as plain [int]s
   ([l lsr 1] is the variable, [l lxor 1] the negation) and turn an
   arena word back into a [Lit.t] with [lit_of_int]. *)

(* The unchecked int -> literal conversion for words read back from the
   arena and the watch lists, which only ever hold literals this solver
   stored there.  Private to the sat library: [Lit.t] stays unforgeable
   for every client. *)
external lit_of_int : int -> Lit.t = "%identity"

(* ------------------------------------------------------------------ *)
(* Clause arena.

   A clause reference (cref) is the offset of a clause's header in
   [t.arena]; the clause's literals follow the header:

     arena.(c)             number of literals
     arena.(c + 1)         LBD lsl 2 lor learnt bit (2) lor removed bit (1)
     arena.(c + 2)         learnt: its slot in [t.cla_act]; problem: -1
     arena.(c + hdr + k)   literal k, as an int

   Clauses are only appended; [reduce_db] marks evicted clauses removed
   and counts their words as [wasted], and [compact] copies the live
   ones into a fresh arena once most of it is dead, relocating every
   cref held by a watcher, a reason or a clause list.  Problem clauses
   are never removed. *)

let hdr = 3
let no_clause = -1  (* the reason of decisions and root facts *)
let removed_bit = 1
let learnt_bit = 2

(* A watch list.  Pair [i] occupies [w.(2i)] and [w.(2i+1)], below
   [w_n] (a count of words).  In a long-clause list the pair is a clause
   of length >= 3 watched at the key literal and its blocker: some
   literal of the clause (initially the other watched one) whose truth
   means the clause is satisfied.  In a binary list it is a binary
   clause and the literal it implies when the key literal becomes
   false. *)
type watches = { mutable w : int array; mutable w_n : int }

(* Growable stacks of immediates ([Lit.t] is a private [int]): reads and
   writes compile to plain loads and stores, with no write barrier and no
   polymorphic-array dispatch as in {!Vec}. *)
type lit_stack = { mutable lits_a : Lit.t array; mutable lits_n : int }
type int_stack = { mutable ints_a : int array; mutable ints_n : int }

type result = Sat | Unsat | Unknown

type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnts_literals : int;
  mutable max_vars : int;
  mutable solve_time : float;
  mutable learnt_clauses : int;
  mutable learnt_lbd_sum : int;
  mutable glue_clauses : int;
  mutable deleted_clauses : int;
  mutable db_reductions : int;
  mutable compactions : int;
}

let copy_stats (s : stats) = { s with conflicts = s.conflicts }

let props_per_second (s : stats) =
  if s.solve_time <= 0.0 then 0.0
  else float_of_int s.propagations /. s.solve_time

let avg_learnt_lbd (s : stats) =
  if s.learnt_clauses = 0 then 0.0
  else float_of_int s.learnt_lbd_sum /. float_of_int s.learnt_clauses

(* ------------------------------------------------------------------ *)
(* Process-wide totals, aggregated over every solver instance.  The
   benchmark harness and the CLI read deltas of these around a routing
   call, which avoids threading a stats channel through every layer of
   router/optimizer plumbing.  Atomics keep solvers on several domains
   (slice-size portfolio members, serve pool workers) race-free. *)

type totals = {
  total_propagations : int;
  total_conflicts : int;
  total_decisions : int;
  total_restarts : int;
  total_learnts : int;
  total_lbd_sum : int;
  total_glue : int;
  total_deleted : int;
  total_reductions : int;
  total_solve_time : float;
}

let g_props = Atomic.make 0
let g_conflicts = Atomic.make 0
let g_decisions = Atomic.make 0
let g_restarts = Atomic.make 0
let g_learnts = Atomic.make 0
let g_lbd_sum = Atomic.make 0
let g_glue = Atomic.make 0
let g_deleted = Atomic.make 0
let g_reductions = Atomic.make 0
let g_time = Atomic.make 0.0

let add_time x =
  let rec go () =
    let cur = Atomic.get g_time in
    if not (Atomic.compare_and_set g_time cur (cur +. x)) then go ()
  in
  go ()

let totals () =
  {
    total_propagations = Atomic.get g_props;
    total_conflicts = Atomic.get g_conflicts;
    total_decisions = Atomic.get g_decisions;
    total_restarts = Atomic.get g_restarts;
    total_learnts = Atomic.get g_learnts;
    total_lbd_sum = Atomic.get g_lbd_sum;
    total_glue = Atomic.get g_glue;
    total_deleted = Atomic.get g_deleted;
    total_reductions = Atomic.get g_reductions;
    total_solve_time = Atomic.get g_time;
  }

let reset_totals () =
  Atomic.set g_props 0;
  Atomic.set g_conflicts 0;
  Atomic.set g_decisions 0;
  Atomic.set g_restarts 0;
  Atomic.set g_learnts 0;
  Atomic.set g_lbd_sum 0;
  Atomic.set g_glue 0;
  Atomic.set g_deleted 0;
  Atomic.set g_reductions 0;
  Atomic.set g_time 0.0

let sub_totals a b =
  {
    total_propagations = a.total_propagations - b.total_propagations;
    total_conflicts = a.total_conflicts - b.total_conflicts;
    total_decisions = a.total_decisions - b.total_decisions;
    total_restarts = a.total_restarts - b.total_restarts;
    total_learnts = a.total_learnts - b.total_learnts;
    total_lbd_sum = a.total_lbd_sum - b.total_lbd_sum;
    total_glue = a.total_glue - b.total_glue;
    total_deleted = a.total_deleted - b.total_deleted;
    total_reductions = a.total_reductions - b.total_reductions;
    total_solve_time = a.total_solve_time -. b.total_solve_time;
  }

let totals_props_per_second (t : totals) =
  if t.total_solve_time <= 0.0 then 0.0
  else float_of_int t.total_propagations /. t.total_solve_time

let totals_avg_lbd (t : totals) =
  if t.total_learnts = 0 then 0.0
  else float_of_int t.total_lbd_sum /. float_of_int t.total_learnts

(* Observability: process-wide metric cells (interned once here) and the
   per-[solve] span.  Everything is updated at solve-call granularity —
   the search loop itself only pays one [Obs.Trace.enabled] branch at
   each restart, where propagations/s is sampled for the trace. *)
let m_solves = Obs.Metrics.counter "sat.solves"

(* Solver instantiations.  The incremental routing path keeps one solver
   alive across descent bounds, slices and retries, so this counter is
   the direct measure of how much re-creation the reuse machinery
   avoids: a sliced route with B blocks and reuse window W should create
   about ceil(B/W) solvers, not B-plus-escalations. *)
let m_created = Obs.Metrics.counter "solver.created"
let m_conflicts = Obs.Metrics.counter "sat.conflicts"
let m_propagations = Obs.Metrics.counter "sat.propagations"
let m_restarts = Obs.Metrics.counter "sat.restarts"
let m_reductions = Obs.Metrics.counter "sat.reduce_db"
let m_learnts = Obs.Metrics.counter "sat.learnt_clauses"
let g_props_per_s = Obs.Metrics.gauge "sat.props_per_s"

(* ------------------------------------------------------------------ *)

type t = {
  (* Clause database: the arena and the crefs of its live clauses. *)
  mutable arena : int array;
  mutable arena_n : int;              (* words in use *)
  mutable wasted : int;               (* words of removed clauses *)
  mutable cla_act : float array;      (* learnt-clause activities, by slot *)
  mutable act_n : int;                (* slots in use *)
  clauses : int_stack;                (* problem clauses of length >= 2 *)
  learnts : int_stack;                (* live learnt clauses *)
  (* Assignment state; arrays are indexed by variable unless noted. *)
  mutable assigns : int array;        (* -1 undef / 0 false / 1 true *)
  mutable level : int array;
  (* [reason.(v)] is meaningful only while [v] is assigned: every
     assignment overwrites it, so backtracking leaves it stale. *)
  mutable reason : int array;         (* cref, or no_clause *)
  mutable watches : watches array;        (* indexed by literal *)
  mutable bin_watches : watches array;    (* indexed by literal *)
  trail : lit_stack;
  trail_lim : int_stack;
  mutable qhead : int;
  (* Decision heuristics *)
  mutable activity : float array;
  mutable polarity : bool array;
  order : Heap.t;                     (* ordered by [activity] *)
  mutable var_inc : float;
  mutable cla_inc : float;
  (* Conflict-analysis scratch, all empty between conflicts. *)
  mutable seen : Bytes.t;             (* per variable, see [mark_*] *)
  an_learnt : lit_stack;              (* non-UIP literals, discovery order *)
  an_out : int_stack;                 (* the clause being learnt *)
  an_toclear : int_stack;             (* variables whose mark is set *)
  an_stack : lit_stack;               (* minimization walk: path nodes *)
  an_index : int_stack;               (* ... and their next reason index *)
  add_buf : int_stack;                (* [add_clause]'s normalization *)
  mutable lbd_stamp : int array;      (* indexed by decision level *)
  mutable lbd_gen : int;
  mutable nvars : int;
  mutable ok : bool;
  mutable model : int array;          (* copy of assigns at last Sat *)
  (* Deadline plumbing for [propagate] *)
  mutable deadline : float;           (* 0.0 = none *)
  mutable stop : bool;
  mutable prop_countdown : int;
  (* Learnt-DB reduction schedule (see [set_reduce_db_params]). *)
  mutable reduce_first : int;
  mutable reduce_inc : int;
  mutable next_reduce : int;          (* conflict count of the next pass *)
  (* Proof logging: [None] (the default) costs one branch per learnt
     clause; when set, every learnt clause, level-0 refutation and
     [reduce_db] eviction is reported (see {!Proof}), its literals
     copied out of the arena. *)
  mutable proof : Proof.sink option;
  (* Invariant sanitizer: when true, [sanitize_check] runs every
     [sanitize_interval] conflicts (and the model is re-checked against
     the problem clauses at every Sat).  Off by default; one boolean test
     per conflict when off. *)
  mutable sanitize : bool;
  stats : stats;
}

exception Sanitizer_violation of string

(* Clause accessors.  [c] is a cref; the [unsafe] reads in the hot paths
   below use crefs the solver stored itself. *)
let[@inline] c_size t c = Array.unsafe_get t.arena c
let[@inline] c_meta t c = Array.unsafe_get t.arena (c + 1)
let[@inline] c_learnt t c = c_meta t c land learnt_bit <> 0
let[@inline] c_removed t c = c_meta t c land removed_bit <> 0
let[@inline] c_lbd t c = c_meta t c lsr 2
let[@inline] c_lit t c k = Array.unsafe_get t.arena (c + hdr + k)

let set_lbd t c lbd =
  t.arena.(c + 1) <- (lbd lsl 2) lor (t.arena.(c + 1) land 3)

(* Proof events own their literals, so a clause is copied out of the
   arena, and only while a sink is installed. *)
let emit_delete t c =
  match t.proof with
  | None -> ()
  | Some sink ->
    sink (Proof.Delete (Array.init (c_size t c) (fun k -> lit_of_int (c_lit t c k))))

(* The empty clause: emitted once, at the moment level-0 unsatisfiability
   is established ([ok] flips to false). *)
let emit_refutation t =
  match t.proof with None -> () | Some sink -> sink (Proof.Learn [||])

let dummy_lit = Lit.of_var 0

(* Conflict-analysis marks in [seen].  [mark_source]: the variable occurs
   in the clause being learnt; [mark_removable]/[mark_failed]: the
   minimization walk showed it is / is not implied by those literals. *)
let mark_none = '\000'
let mark_source = '\001'
let mark_removable = '\002'
let mark_failed = '\003'

let lit_stack () = { lits_a = Array.make 16 dummy_lit; lits_n = 0 }
let int_stack () = { ints_a = Array.make 16 0; ints_n = 0 }

let push_lit s x =
  let n = s.lits_n in
  if n = Array.length s.lits_a then begin
    let a = Array.make (2 * n) dummy_lit in
    Array.blit s.lits_a 0 a 0 n;
    s.lits_a <- a
  end;
  Array.unsafe_set s.lits_a n x;
  s.lits_n <- n + 1

let push_int s x =
  let n = s.ints_n in
  if n = Array.length s.ints_a then begin
    let a = Array.make (2 * n) 0 in
    Array.blit s.ints_a 0 a 0 n;
    s.ints_a <- a
  end;
  Array.unsafe_set s.ints_a n x;
  s.ints_n <- n + 1

let no_watches () = { w = [||]; w_n = 0 }

let watch (ws : watches) c (l : int) =
  let n = ws.w_n in
  if n = Array.length ws.w then begin
    let a = Array.make (max 8 (2 * n)) 0 in
    Array.blit ws.w 0 a 0 n;
    ws.w <- a
  end;
  Array.unsafe_set ws.w n c;
  Array.unsafe_set ws.w (n + 1) l;
  ws.w_n <- n + 2

(* Append a clause of [n] literals, read from [src.(0 .. n-1)], and
   return its cref.  A learnt clause gets a fresh activity slot. *)
let alloc_clause t (src : int array) n ~learnt ~lbd =
  let need = t.arena_n + hdr + n in
  if need > Array.length t.arena then begin
    let a = Array.make (max need (2 * Array.length t.arena)) 0 in
    Array.blit t.arena 0 a 0 t.arena_n;
    t.arena <- a
  end;
  let c = t.arena_n in
  let arena = t.arena in
  arena.(c) <- n;
  arena.(c + 1) <- (lbd lsl 2) lor (if learnt then learnt_bit else 0);
  if learnt then begin
    if t.act_n = Array.length t.cla_act then begin
      let a = Array.make (max 16 (2 * t.act_n)) 0.0 in
      Array.blit t.cla_act 0 a 0 t.act_n;
      t.cla_act <- a
    end;
    t.cla_act.(t.act_n) <- 0.0;
    arena.(c + 2) <- t.act_n;
    t.act_n <- t.act_n + 1
  end
  else arena.(c + 2) <- -1;
  Array.blit src 0 arena (c + hdr) n;
  t.arena_n <- need;
  c

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999

(* How many propagations between wall-clock deadline checks: small enough
   that a deadline overshoot stays well under 100ms, large enough that the
   clock read is invisible in the propagation rate. *)
let deadline_check_interval = 2048

(* Conflicts between sanitizer passes (power of two: tested with a mask). *)
let sanitize_interval = 1024

(* Base conflict budget of the Luby restart sequence. *)
let restart_base = 100.0

(* Glucose-style reduce_db schedule: first pass after [reduce_db_first]
   conflicts, then increasingly far apart.  Conflict counts accumulate
   across incremental [solve] calls, so reductions fire in long MaxSAT
   descents too (the old learnts-vs-trail size trigger never did at
   mapping scale). *)
let reduce_db_first = 2000
let reduce_db_inc = 300

let sanitize_default =
  lazy
    (match Sys.getenv_opt "SATMAP_SANITIZE" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false)

let create ?sanitize () =
  let activity = Array.make 16 0.0 in
  let solver =
    {
      arena = Array.make 1024 0;
      arena_n = 0;
      wasted = 0;
      cla_act = Array.make 16 0.0;
      act_n = 0;
      clauses = int_stack ();
      learnts = int_stack ();
      assigns = Array.make 16 (-1);
      level = Array.make 16 (-1);
      reason = Array.make 16 no_clause;
      watches = Array.init 32 (fun _ -> no_watches ());
      bin_watches = Array.init 32 (fun _ -> no_watches ());
      trail = lit_stack ();
      trail_lim = int_stack ();
      qhead = 0;
      activity;
      polarity = Array.make 16 false;
      order = Heap.create activity;
      var_inc = 1.0;
      cla_inc = 1.0;
      seen = Bytes.make 16 mark_none;
      an_learnt = lit_stack ();
      an_out = int_stack ();
      an_toclear = int_stack ();
      an_stack = lit_stack ();
      an_index = int_stack ();
      add_buf = int_stack ();
      lbd_stamp = Array.make 17 0;
      lbd_gen = 0;
      nvars = 0;
      ok = true;
      model = [||];
      deadline = 0.0;
      stop = false;
      prop_countdown = deadline_check_interval;
      reduce_first = reduce_db_first;
      reduce_inc = reduce_db_inc;
      next_reduce = reduce_db_first;
      proof = None;
      sanitize =
        (match sanitize with
        | Some b -> b
        | None -> Lazy.force sanitize_default);
      stats =
        {
          conflicts = 0;
          decisions = 0;
          propagations = 0;
          restarts = 0;
          learnts_literals = 0;
          max_vars = 0;
          solve_time = 0.0;
          learnt_clauses = 0;
          learnt_lbd_sum = 0;
          glue_clauses = 0;
          deleted_clauses = 0;
          db_reductions = 0;
          compactions = 0;
        };
    }
  in
  Obs.Metrics.incr m_created;
  solver

let n_vars t = t.nvars

let ensure_var_capacity t n =
  let cap = Array.length t.assigns in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let grow a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    t.assigns <- grow t.assigns (-1);
    t.level <- grow t.level (-1);
    t.reason <- grow t.reason no_clause;
    t.activity <- grow t.activity 0.0;
    Heap.set_priorities t.order t.activity;
    t.polarity <- grow t.polarity false;
    let seen' = Bytes.make cap' mark_none in
    Bytes.blit t.seen 0 seen' 0 cap;
    t.seen <- seen';
    (* One decision level per variable at most, hence cap' + 1 slots. *)
    let stamp' = Array.make (cap' + 1) 0 in
    Array.blit t.lbd_stamp 0 stamp' 0 (Array.length t.lbd_stamp);
    t.lbd_stamp <- stamp';
    let grow_watches ws =
      Array.init (2 * cap') (fun i ->
          if i < 2 * cap then ws.(i) else no_watches ())
    in
    t.watches <- grow_watches t.watches;
    t.bin_watches <- grow_watches t.bin_watches
  end

let new_var t =
  let v = t.nvars in
  ensure_var_capacity t (v + 1);
  t.nvars <- v + 1;
  t.stats.max_vars <- t.nvars;
  Heap.insert t.order v;
  v

(* Value of a literal: -1 undef, 0 false, 1 true. *)
let value_lit t l =
  let v = t.assigns.(Lit.var l) in
  if v < 0 then -1 else v lxor ((l :> int) land 1)

(* The same for a literal held as an int.  With [a = -1] for an
   unassigned variable, [a lxor (l land 1)] is negative, so comparing the
   raw [lxor] with 0 or 1 tests "false" or "true" without a branch. *)
let[@inline] value_int t l =
  let a = Array.unsafe_get t.assigns (l lsr 1) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level t = t.trail_lim.ints_n

let enqueue t l reason =
  let v = Lit.var l in
  t.assigns.(v) <- (if Lit.sign l then 1 else 0);
  t.level.(v) <- t.trail_lim.ints_n;
  t.reason.(v) <- reason;
  push_lit t.trail l

(* Literal-block distance of a (fully assigned) set of literals,
   [a.(off .. off+n-1)]: the number of distinct non-root decision levels
   it spans.  Uses a generation-stamped per-level scratch array, so each
   call is O(n). *)
let compute_lbd t (a : int array) off n =
  t.lbd_gen <- t.lbd_gen + 1;
  let g = t.lbd_gen in
  let count = ref 0 in
  for i = off to off + n - 1 do
    let lv = t.level.(a.(i) lsr 1) in
    if lv > 0 && t.lbd_stamp.(lv) <> g then begin
      t.lbd_stamp.(lv) <- g;
      incr count
    end
  done;
  !count

(* Unit propagation.  Returns the conflicting clause, or [no_clause]
   when there is none.  Binary clauses propagate straight off their
   implication lists; longer clauses go through blocker-guarded
   two-watched-literal lists.  The [unsafe] accesses index a list below
   its [w_n], the trail below its size, a clause of the arena within its
   size, or a per-variable array with the variable of a literal the
   solver created.  Nothing here allocates a clause, so [t.arena] is
   stable for the whole call. *)
let propagate t =
  let confl = ref no_clause in
  let assigns = t.assigns in
  let arena = t.arena in
  while !confl < 0 && (not t.stop) && t.qhead < t.trail.lits_n do
    let p = (Array.unsafe_get t.trail.lits_a t.qhead :> int) in
    t.qhead <- t.qhead + 1;
    t.stats.propagations <- t.stats.propagations + 1;
    t.prop_countdown <- t.prop_countdown - 1;
    if t.prop_countdown <= 0 then begin
      t.prop_countdown <- deadline_check_interval;
      if t.deadline > 0.0 && Unix.gettimeofday () > t.deadline then
        t.stop <- true
    end;
    let false_lit = p lxor 1 in
    (* Binary implication lists: no clause memory touched, no watch
       relocation ever needed. *)
    let bws = Array.unsafe_get t.bin_watches false_lit in
    let bw = bws.w and nb = bws.w_n in
    let bi = ref 0 in
    while !confl < 0 && !bi < nb do
      let implied = Array.unsafe_get bw (!bi + 1) in
      let a = Array.unsafe_get assigns (implied lsr 1) in
      if a < 0 then enqueue t (lit_of_int implied) (Array.unsafe_get bw !bi)
      else if a lxor (implied land 1) = 0 then confl := Array.unsafe_get bw !bi;
      bi := !bi + 2
    done;
    if !confl < 0 then begin
      let ws = Array.unsafe_get t.watches false_lit in
      let w = ws.w and n = ws.w_n in
      let j = ref 0 and i = ref 0 in
      while !i < n do
        let c = Array.unsafe_get w !i and b = Array.unsafe_get w (!i + 1) in
        if
          !confl >= 0
          || Array.unsafe_get assigns (b lsr 1) lxor (b land 1) = 1
        then begin
          (* Satisfied via the blocker, clause memory never loaded; or a
             conflict was found, and the remaining watchers stay. *)
          if !j <> !i then begin
            Array.unsafe_set w !j c;
            Array.unsafe_set w (!j + 1) b
          end;
          j := !j + 2
        end
        else if Array.unsafe_get arena (c + 1) land removed_bit <> 0 then
          () (* dropped lazily *)
        else begin
          (* Make sure the false literal is at position 1. *)
          let l0 = c + hdr in
          if Array.unsafe_get arena l0 = false_lit then begin
            Array.unsafe_set arena l0 (Array.unsafe_get arena (l0 + 1));
            Array.unsafe_set arena (l0 + 1) false_lit
          end;
          let first = Array.unsafe_get arena l0 in
          let vf = value_int t first in
          if vf = 1 then begin
            (* Clause already satisfied: keep the watch, remember the
               satisfying literal as the new blocker. *)
            if !j <> !i then Array.unsafe_set w !j c;
            Array.unsafe_set w (!j + 1) first;
            j := !j + 2
          end
          else begin
            (* Look for a new literal to watch. *)
            let stop = l0 + Array.unsafe_get arena c in
            let k = ref (l0 + 2) in
            while
              !k < stop
              && (let l = Array.unsafe_get arena !k in
                  Array.unsafe_get assigns (l lsr 1) lxor (l land 1) = 0)
            do
              incr k
            done;
            if !k < stop then begin
              (* Relocate the watch; it leaves this list. *)
              let l = Array.unsafe_get arena !k in
              Array.unsafe_set arena (l0 + 1) l;
              Array.unsafe_set arena !k false_lit;
              watch (Array.unsafe_get t.watches l) c first
            end
            else begin
              (* Clause is unit or conflicting. *)
              if !j <> !i then begin
                Array.unsafe_set w !j c;
                Array.unsafe_set w (!j + 1) b
              end;
              j := !j + 2;
              if vf = 0 then confl := c else enqueue t (lit_of_int first) c
            end
          end
        end;
        i := !i + 2
      done;
      ws.w_n <- !j
    end
  done;
  !confl

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  Heap.update t.order v

let var_decay_activity t = t.var_inc <- t.var_inc *. var_decay

let clause_bump t c =
  let slot = t.arena.(c + 2) in
  let act = t.cla_act.(slot) +. t.cla_inc in
  t.cla_act.(slot) <- act;
  if act > 1e20 then begin
    let ls = t.learnts in
    for i = 0 to ls.ints_n - 1 do
      let s = t.arena.(ls.ints_a.(i) + 2) in
      t.cla_act.(s) <- t.cla_act.(s) *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let clause_decay_activity t = t.cla_inc <- t.cla_inc *. clause_decay

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.ints_a.(lvl) in
    for i = t.trail.lits_n - 1 downto bound do
      let l = t.trail.lits_a.(i) in
      let v = Lit.var l in
      t.assigns.(v) <- -1;
      t.polarity.(v) <- Lit.sign l;
      if not (Heap.mem t.order v) then Heap.insert t.order v
    done;
    t.trail.lits_n <- bound;
    t.trail_lim.ints_n <- lvl;
    t.qhead <- bound
  end

let set_mark t v m =
  Bytes.unsafe_set t.seen v m;
  push_int t.an_toclear v

let abstract_level t v = 1 lsl (t.level.(v) land 31)

(* Recursive redundancy test (MiniSat ccmin=2) for [p], a literal of the
   clause being learnt: [p] is redundant when every path back from its
   reason bottoms out in clause literals, nodes already shown removable,
   or level-0 facts.  A depth-first walk over an explicit stack of
   (node, next reason index) frames.  A node is marked removable once its
   whole reason checks out, so later walks skip it.  When a walk hits a
   decision, an implied literal outside the clause's abstract levels, or
   a failed node, every node on its current path is marked failed: such a
   node stays non-redundant for the rest of this analysis, because walks
   only ever mark nodes removable whose reasons check out. *)
let lit_redundant t p abstract_levels =
  let r = t.reason.(Lit.var p) in
  if r = no_clause then false
  else begin
    let stack = t.an_stack and index = t.an_index in
    stack.lits_n <- 0;
    index.ints_n <- 0;
    let node = ref p and c = ref r and i = ref 0 in
    let result = ref true and walking = ref true in
    while !walking do
      if !i < c_size t !c then begin
        let l = lit_of_int (c_lit t !c !i) in
        incr i;
        let v = Lit.var l in
        let m = Bytes.unsafe_get t.seen v in
        if
          v = Lit.var !node || t.level.(v) = 0 || m = mark_source
          || m = mark_removable
        then ()
        else if
          m = mark_failed
          || t.reason.(v) = no_clause
          || abstract_level t v land abstract_levels = 0
        then begin
          if Bytes.unsafe_get t.seen (Lit.var !node) = mark_none then
            set_mark t (Lit.var !node) mark_failed;
          for k = 0 to stack.lits_n - 1 do
            let u = Lit.var stack.lits_a.(k) in
            if Bytes.unsafe_get t.seen u = mark_none then set_mark t u mark_failed
          done;
          result := false;
          walking := false
        end
        else begin
          push_lit stack !node;
          push_int index !i;
          node := l;
          c := t.reason.(v);
          i := 0
        end
      end
      else begin
        let v = Lit.var !node in
        if Bytes.unsafe_get t.seen v = mark_none then set_mark t v mark_removable;
        if stack.lits_n = 0 then walking := false
        else begin
          stack.lits_n <- stack.lits_n - 1;
          index.ints_n <- index.ints_n - 1;
          node := stack.lits_a.(stack.lits_n);
          i := index.ints_a.(index.ints_n);
          c := t.reason.(Lit.var !node)
        end
      end
    done;
    !result
  end

(* First-UIP conflict analysis with recursive clause minimization.
   Leaves the learnt clause in [t.an_out] (asserting literal first, a
   literal of the backjump level second) and returns the backjump level
   and the clause's LBD (computed before backjumping, while all its
   literals are still assigned). *)
let analyze t confl =
  let learnt = t.an_learnt in
  learnt.lits_n <- 0;
  let pathc = ref 0 in
  let index = ref (t.trail.lits_n - 1) in
  let p = ref dummy_lit in
  let skip_var = ref (-1) in
  let c = ref confl in
  let dl = decision_level t in
  let continue = ref true in
  while !continue do
    let cl = !c in
    if c_learnt t cl then begin
      clause_bump t cl;
      (* Glucose: tighten the stored LBD when the clause takes part in a
         conflict — cheap and keeps glue detection honest. *)
      let lbd = c_lbd t cl in
      if lbd > 2 then begin
        let l' = compute_lbd t t.arena (cl + hdr) (c_size t cl) in
        if l' < lbd then set_lbd t cl l'
      end
    end;
    (* Skip the implied literal when expanding a reason.  Binary reasons
       do not maintain the implied-literal-first invariant, so the skip is
       by variable rather than by position. *)
    for k = 0 to c_size t cl - 1 do
      let q = lit_of_int (c_lit t cl k) in
      let v = Lit.var q in
      if
        v <> !skip_var
        && Bytes.unsafe_get t.seen v = mark_none
        && t.level.(v) > 0
      then begin
        set_mark t v mark_source;
        var_bump t v;
        if t.level.(v) >= dl then incr pathc else push_lit learnt q
      end
    done;
    (* Find the next marked literal on the trail. *)
    while
      Bytes.unsafe_get t.seen (Lit.var t.trail.lits_a.(!index)) = mark_none
    do
      decr index
    done;
    let pl = t.trail.lits_a.(!index) in
    decr index;
    Bytes.unsafe_set t.seen (Lit.var pl) mark_none;
    decr pathc;
    p := pl;
    skip_var := Lit.var pl;
    if !pathc = 0 then continue := false
    else
      (* A decision variable other than the UIP cannot be reached with
         pathc > 0, so this is a real reason. *)
      c := t.reason.(Lit.var pl)
  done;
  let uip = Lit.neg !p in
  (* Minimize, latest-discovered literal first, compacting the kept ones
     towards the top of [learnt] in their discovery order. *)
  let n = learnt.lits_n in
  let abstract_levels = ref 0 in
  for k = 0 to n - 1 do
    abstract_levels :=
      !abstract_levels lor abstract_level t (Lit.var learnt.lits_a.(k))
  done;
  let top = ref n in
  for k = n - 1 downto 0 do
    let q = learnt.lits_a.(k) in
    if not (lit_redundant t q !abstract_levels) then begin
      decr top;
      learnt.lits_a.(!top) <- q
    end
  done;
  let out = t.an_out in
  out.ints_n <- 0;
  push_int out (uip :> int);
  let btlevel = ref 0 in
  for i = 1 to n - !top do
    let q = learnt.lits_a.(n - i) in
    push_int out (q :> int);
    if t.level.(Lit.var q) > !btlevel then btlevel := t.level.(Lit.var q)
  done;
  let lits = out.ints_a and len = out.ints_n in
  let lbd = compute_lbd t lits 0 len in
  let toclear = t.an_toclear in
  for k = 0 to toclear.ints_n - 1 do
    Bytes.unsafe_set t.seen toclear.ints_a.(k) mark_none
  done;
  toclear.ints_n <- 0;
  (* Put a literal of the backjump level at position 1 so the watches are
     valid after backjumping. *)
  if len > 1 then begin
    let max_i = ref 1 in
    for i = 2 to len - 1 do
      if t.level.(lits.(i) lsr 1) > t.level.(lits.(!max_i) lsr 1) then
        max_i := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!max_i);
    lits.(!max_i) <- tmp
  end;
  (!btlevel, lbd)

let attach t c =
  let a = c_lit t c 0 and b = c_lit t c 1 in
  if c_size t c = 2 then begin
    watch t.bin_watches.(a) c b;
    watch t.bin_watches.(b) c a
  end
  else begin
    watch t.watches.(a) c b;
    watch t.watches.(b) c a
  end

(* ------------------------------------------------------------------ *)
(* Invariant sanitizer.  Structural self-checks over the solver state,
   run every [sanitize_interval] conflicts when [t.sanitize] is set (and
   on demand from tests).  Each check is a solver invariant that CDCL
   correctness depends on; a violation means the engine itself — not the
   input formula — is broken, so it raises instead of returning. *)

let fail_sanitize fmt =
  Printf.ksprintf (fun msg -> raise (Sanitizer_violation msg)) fmt

(* Is cref [c] in the first [w_n] words of [ws], paired with literal [l]
   (any literal when [l] is [None])? *)
let watched_in (ws : watches) c l =
  let rec go i =
    i < ws.w_n
    && ((ws.w.(i) = c
        && match l with None -> true | Some l -> ws.w.(i + 1) = l)
       || go (i + 2))
  in
  go 0

let clause_has t c l =
  let rec go k = k < c_size t c && (c_lit t c k = l || go (k + 1)) in
  go 0

let sanitize_check t =
  let n_lits = 2 * t.nvars in
  (* Arena layout: walking the headers from offset 0 must land exactly on
     [arena_n]; every clause has at least two literals of known variables;
     the removed words add up to [wasted].  [starts] marks the start of
     every live ('\001') and removed ('\002') clause, so a cref anywhere
     else is caught below. *)
  let starts = Bytes.make (t.arena_n + 1) '\000' in
  let c = ref 0 and dead = ref 0 in
  while !c < t.arena_n do
    let size = t.arena.(!c) in
    if size < 2 || !c + hdr + size > t.arena_n then
      fail_sanitize "arena header at %d has size %d" !c size;
    for k = 0 to size - 1 do
      let l = c_lit t !c k in
      if l < 0 || l >= n_lits then
        fail_sanitize "arena clause at %d holds literal %d" !c l
    done;
    if c_learnt t !c then begin
      let slot = t.arena.(!c + 2) in
      if slot < 0 || slot >= t.act_n then
        fail_sanitize "learnt clause at %d has activity slot %d" !c slot
    end;
    if c_removed t !c then begin
      dead := !dead + hdr + size;
      Bytes.set starts !c '\002'
    end
    else Bytes.set starts !c '\001';
    c := !c + hdr + size
  done;
  if !c <> t.arena_n then fail_sanitize "arena walk overruns its end";
  if !dead <> t.wasted then
    fail_sanitize "arena holds %d removed words, accounted %d" !dead t.wasted;
  let live c = c >= 0 && c < t.arena_n && Bytes.get starts c = '\001' in
  (* Trail, assignment and level consistency. *)
  let n_trail = t.trail.lits_n in
  if t.qhead > n_trail then fail_sanitize "qhead %d beyond trail %d" t.qhead n_trail;
  let n_lims = t.trail_lim.ints_n in
  for d = 0 to n_lims - 1 do
    let b = t.trail_lim.ints_a.(d) in
    if b < 0 || b > n_trail then fail_sanitize "trail_lim %d out of range" b;
    if d > 0 && b < t.trail_lim.ints_a.(d - 1) then
      fail_sanitize "trail_lim not monotone"
  done;
  let seg = ref 0 in
  for i = 0 to n_trail - 1 do
    let l = t.trail.lits_a.(i) in
    let v = Lit.var l in
    while !seg < n_lims && t.trail_lim.ints_a.(!seg) <= i do incr seg done;
    if value_lit t l <> 1 then
      fail_sanitize "trail literal %d not assigned true" (Lit.to_int l);
    if t.level.(v) <> !seg then
      fail_sanitize "trail var %d has level %d, expected %d" v t.level.(v) !seg;
    let c = t.reason.(v) in
    if c <> no_clause then begin
      if not (live c) then fail_sanitize "reason clause of var %d is not live" v;
      if not (clause_has t c (Lit.to_int l)) then
        fail_sanitize "reason clause of var %d misses its literal" v;
      for k = 0 to c_size t c - 1 do
        let q = c_lit t c k in
        if q <> Lit.to_int l && value_int t q <> 0 then
          fail_sanitize "reason clause of var %d not falsified elsewhere" v
      done
    end
  done;
  let assigned = ref 0 in
  for v = 0 to t.nvars - 1 do
    if t.assigns.(v) >= 0 then incr assigned;
    if Bytes.get t.seen v <> mark_none then
      fail_sanitize "analysis mark of var %d left set" v
  done;
  if !assigned <> n_trail then
    fail_sanitize "%d assigned vars but trail holds %d" !assigned n_trail;
  (* VSIDS order: internal heap consistency, and every unassigned variable
     must be decidable (member of the heap). *)
  (try Heap.check_exn t.order
   with Failure msg -> fail_sanitize "%s" msg);
  for v = 0 to t.nvars - 1 do
    if t.assigns.(v) < 0 && not (Heap.mem t.order v) then
      fail_sanitize "unassigned var %d missing from VSIDS heap" v
  done;
  (* Watcher coherence: every watcher names a clause start (a removed one
     only until propagation drops it); every live watcher sits on one of
     the clause's first two literals and carries a blocker from the
     clause; every binary watcher implies the other literal of its
     clause. *)
  let started c = c >= 0 && c < t.arena_n && Bytes.get starts c <> '\000' in
  for key = 0 to n_lits - 1 do
    let ws = t.watches.(key) in
    let i = ref 0 in
    while !i < ws.w_n do
      let c = ws.w.(!i) in
      if not (started c) then fail_sanitize "watcher at %d names no clause" key;
      if live c then begin
        if c_size t c < 3 then
          fail_sanitize "short clause in long-clause watch list %d" key;
        if not (c_lit t c 0 = key || c_lit t c 1 = key) then
          fail_sanitize "watcher at %d not on a watched literal" key;
        if not (clause_has t c ws.w.(!i + 1)) then
          fail_sanitize "blocker at %d not a literal of its clause" key
      end;
      i := !i + 2
    done;
    let bws = t.bin_watches.(key) in
    let i = ref 0 in
    while !i < bws.w_n do
      let c = bws.w.(!i) in
      if not (live c) then fail_sanitize "binary watcher at %d names no live clause" key;
      if c_size t c <> 2 then
        fail_sanitize "non-binary clause in binary list %d" key;
      let a = c_lit t c 0 and b = c_lit t c 1 in
      let o = bws.w.(!i + 1) in
      if not ((a = key && b = o) || (b = key && a = o)) then
        fail_sanitize "binary watcher at %d disagrees with its clause" key;
      i := !i + 2
    done
  done;
  (* Attachment: every listed clause is live and present in the lists it
     must be watched from; a binary clause in both literals' lists, each
     entry implying the other literal (symmetry). *)
  let check_attached ~learnt c =
    if not (live c) then fail_sanitize "clause list names a dead cref %d" c;
    if c_learnt t c <> learnt then
      fail_sanitize "clause %d is in the wrong clause list" c;
    let a = c_lit t c 0 and b = c_lit t c 1 in
    if c_size t c = 2 then begin
      if
        not
          (watched_in t.bin_watches.(a) c (Some b)
          && watched_in t.bin_watches.(b) c (Some a))
      then fail_sanitize "binary clause not symmetrically attached"
    end
    else if not (watched_in t.watches.(a) c None && watched_in t.watches.(b) c None)
    then fail_sanitize "clause not attached at its first two literals"
  in
  for i = 0 to t.clauses.ints_n - 1 do
    check_attached ~learnt:false t.clauses.ints_a.(i)
  done;
  for i = 0 to t.learnts.ints_n - 1 do
    check_attached ~learnt:true t.learnts.ints_a.(i)
  done;
  (* Every live clause of the arena is on exactly one of the two lists. *)
  let listed = t.clauses.ints_n + t.learnts.ints_n in
  let n_live = ref 0 in
  Bytes.iter (fun b -> if b = '\001' then incr n_live) starts;
  if !n_live <> listed then
    fail_sanitize "arena holds %d live clauses, lists name %d" !n_live listed

(* At a Sat exit the full assignment must satisfy every problem clause —
   the cheapest end-to-end refutation of watch-list or propagation bugs. *)
let sanitize_check_model t =
  for i = 0 to t.clauses.ints_n - 1 do
    let c = t.clauses.ints_a.(i) in
    let rec sat k = k < c_size t c && (value_int t (c_lit t c k) = 1 || sat (k + 1)) in
    if not (sat 0) then fail_sanitize "model falsifies a problem clause"
  done

let record_learnt t lbd =
  let out = t.an_out in
  let n = out.ints_n in
  (match t.proof with
  | None -> ()
  | Some sink ->
    sink (Proof.Learn (Array.init n (fun k -> lit_of_int out.ints_a.(k)))));
  t.stats.learnt_clauses <- t.stats.learnt_clauses + 1;
  let lbd = max 1 lbd in
  t.stats.learnt_lbd_sum <- t.stats.learnt_lbd_sum + lbd;
  if lbd <= 2 then t.stats.glue_clauses <- t.stats.glue_clauses + 1;
  let first = lit_of_int out.ints_a.(0) in
  if n = 1 then enqueue t first no_clause
  else begin
    let c = alloc_clause t out.ints_a n ~learnt:true ~lbd in
    attach t c;
    push_int t.learnts c;
    clause_bump t c;
    t.stats.learnts_literals <- t.stats.learnts_literals + n;
    enqueue t first c
  end

(* Add the problem clause held in [t.add_buf] (literals as ints, already
   range-checked).  The literals are sorted when they are not already
   (the sanitizing sink hands them over sorted), which puts duplicates
   and the two literals of a variable side by side; then one pass
   normalizes the clause: a tautology or a literal true at level 0 drops
   it, and a duplicate or a literal false at level 0 drops the
   literal. *)
let add_buffered t =
  let buf = t.add_buf in
  let a = buf.ints_a and n = buf.ints_n in
  let sorted = ref true in
  for i = 1 to n - 1 do
    if a.(i) <= a.(i - 1) then sorted := false
  done;
  if not !sorted then begin
    let sub = Array.sub a 0 n in
    Array.sort Int.compare sub;
    Array.blit sub 0 a 0 n
  end;
  let kept = ref 0 and prev = ref (-2) and drop = ref false and i = ref 0 in
  while (not !drop) && !i < n do
    let x = a.(!i) in
    if x <> !prev then begin
      if x = !prev lxor 1 then drop := true
      else begin
        let v = value_int t x in
        if v = 1 then drop := true
        else if v < 0 then begin
          a.(!kept) <- x;
          incr kept
        end
      end;
      prev := x
    end;
    incr i
  done;
  if not !drop then
    match !kept with
    | 0 ->
      t.ok <- false;
      emit_refutation t
    | 1 ->
      enqueue t (lit_of_int a.(0)) no_clause;
      if propagate t <> no_clause then begin
        t.ok <- false;
        emit_refutation t
      end
    | k ->
      let c = alloc_clause t a k ~learnt:false ~lbd:0 in
      attach t c;
      push_int t.clauses c

(* Add a problem clause.  Only legal at decision level 0 (the MaxSAT driver
   always backtracks before adding constraints). *)
let add_clause t (lits : Lit.t list) =
  assert (decision_level t = 0);
  if t.ok then begin
    let buf = t.add_buf in
    buf.ints_n <- 0;
    List.iter
      (fun l ->
        ensure_var_capacity t (Lit.var l + 1);
        push_int buf (l :> int))
      lits;
    for i = 0 to buf.ints_n - 1 do
      if buf.ints_a.(i) lsr 1 >= t.nvars then
        invalid_arg "Solver.add_clause: unknown variable"
    done;
    add_buffered t
  end

let add_packed ?(check = fun () -> ()) t (stream : int array) =
  assert (decision_level t = 0);
  let len = Array.length stream in
  let pos = ref 0 and count = ref 0 in
  while t.ok && !pos < len do
    if !count land 4095 = 0 then check ();
    incr count;
    let n = stream.(!pos) in
    if n < 0 || !pos + 1 + n > len then invalid_arg "Solver.add_packed";
    let buf = t.add_buf in
    buf.ints_n <- 0;
    for k = !pos + 1 to !pos + n do
      let x = stream.(k) in
      if x < 0 || x lsr 1 >= t.nvars then
        invalid_arg "Solver.add_packed: unknown variable";
      push_int buf x
    done;
    pos := !pos + 1 + n;
    add_buffered t
  done

let locked t c =
  let l = c_lit t c 0 in
  value_int t l = 1 && t.reason.(l lsr 1) = c

(* Copy the live clauses into a fresh arena, in arena order, and relocate
   every cref held elsewhere.  The forwarding address of a moved clause
   is left in its old header's activity word.  Watchers of removed
   clauses are dropped here instead of on their next visit; every list
   keeps the order of its live entries, and reasons, activities and LBDs
   move with their clauses, so the search cannot tell that it ran. *)
let compact t =
  t.stats.compactions <- t.stats.compactions + 1;
  let old = t.arena and old_n = t.arena_n in
  let live = old_n - t.wasted in
  let fresh = Array.make (max 1024 (2 * live)) 0 in
  let acts = Array.make (max 16 (2 * t.learnts.ints_n)) 0.0 in
  let n = ref 0 and na = ref 0 and c = ref 0 in
  while !c < old_n do
    let len = hdr + old.(!c) in
    if old.(!c + 1) land removed_bit = 0 then begin
      Array.blit old !c fresh !n len;
      if old.(!c + 1) land learnt_bit <> 0 then begin
        acts.(!na) <- t.cla_act.(old.(!c + 2));
        fresh.(!n + 2) <- !na;
        incr na
      end;
      old.(!c + 2) <- !n;
      n := !n + len
    end;
    c := !c + len
  done;
  let relocate (ws : watches) =
    let w = ws.w in
    let j = ref 0 and i = ref 0 in
    while !i < ws.w_n do
      let cr = w.(!i) in
      if old.(cr + 1) land removed_bit = 0 then begin
        w.(!j) <- old.(cr + 2);
        w.(!j + 1) <- w.(!i + 1);
        j := !j + 2
      end;
      i := !i + 2
    done;
    ws.w_n <- !j
  in
  for l = 0 to (2 * t.nvars) - 1 do
    relocate t.watches.(l);
    relocate t.bin_watches.(l)
  done;
  for v = 0 to t.nvars - 1 do
    let r = t.reason.(v) in
    t.reason.(v) <- (if t.assigns.(v) >= 0 && r <> no_clause then old.(r + 2) else no_clause)
  done;
  let relocate_list s =
    for i = 0 to s.ints_n - 1 do
      s.ints_a.(i) <- old.(s.ints_a.(i) + 2)
    done
  in
  relocate_list t.clauses;
  relocate_list t.learnts;
  t.arena <- fresh;
  t.arena_n <- !n;
  t.wasted <- 0;
  t.cla_act <- acts;
  t.act_n <- !na

(* Glucose-style learnt-clause management: glue clauses (LBD <= 2),
   binary clauses, and locked clauses survive forever; the worst half of
   the rest — highest LBD first, lowest activity as the tiebreak — is
   dropped.  Removed clauses are detached lazily by [propagate], or all
   at once when the arena is compacted: once removed clauses fill more
   than half of it. *)
let reduce_db t =
  t.stats.db_reductions <- t.stats.db_reductions + 1;
  let ls = t.learnts in
  let n = ls.ints_n in
  let sorted = Array.sub ls.ints_a 0 n in
  Array.sort
    (fun a b ->
      let la = c_lbd t a and lb = c_lbd t b in
      if la <> lb then Int.compare lb la
      else Float.compare t.cla_act.(t.arena.(a + 2)) t.cla_act.(t.arena.(b + 2)))
    sorted;
  let j = ref 0 in
  Array.iteri
    (fun i c ->
      let keep = c_size t c <= 2 || c_lbd t c <= 2 || locked t c || i >= n / 2 in
      if keep then begin
        ls.ints_a.(!j) <- c;
        incr j
      end
      else begin
        t.arena.(c + 1) <- t.arena.(c + 1) lor removed_bit;
        t.wasted <- t.wasted + hdr + c_size t c;
        emit_delete t c;
        t.stats.deleted_clauses <- t.stats.deleted_clauses + 1
      end)
    sorted;
  ls.ints_n <- !j;
  if 2 * t.wasted > t.arena_n then compact t

(* Luby restart sequence. *)
let luby y i =
  let rec size_seq sz seq = if sz < i + 1 then size_seq ((2 * sz) + 1) (seq + 1) else (sz, seq) in
  let rec loop sz seq i =
    if sz - 1 = i then (y ** float_of_int seq)
    else
      let sz' = (sz - 1) / 2 in
      let seq' = seq - 1 in
      loop sz' seq' (i mod sz')
  in
  let sz, seq = size_seq 1 0 in
  loop sz seq i

exception Found_result of result

(* Compute the subset of assumptions responsible for the falsification of
   assumption [p] (MiniSat's analyzeFinal): walk the trail backwards from
   the top, expanding reasons of marked variables; assumption decisions
   (reason-free, below the real decision levels) that are reached belong
   to the final conflict clause. *)
let analyze_final t p =
  let core = ref [ p ] in
  if decision_level t > 0 then begin
    Bytes.set t.seen (Lit.var p) mark_source;
    let bottom = t.trail_lim.ints_a.(0) in
    for i = t.trail.lits_n - 1 downto bottom do
      let l = t.trail.lits_a.(i) in
      let v = Lit.var l in
      if Bytes.get t.seen v <> mark_none then begin
        let c = t.reason.(v) in
        if c = no_clause then core := l :: !core
        else
          for k = 0 to c_size t c - 1 do
            let q = c_lit t c k in
            if t.level.(q lsr 1) > 0 then Bytes.set t.seen (q lsr 1) mark_source
          done;
        Bytes.set t.seen v mark_none
      end
    done;
    Bytes.set t.seen (Lit.var p) mark_none
  end;
  List.sort_uniq Lit.compare !core

let record_solve_totals t ~before ~elapsed =
  let s = t.stats in
  let add a d = if d <> 0 then ignore (Atomic.fetch_and_add a d) in
  add g_props (s.propagations - before.propagations);
  add g_conflicts (s.conflicts - before.conflicts);
  add g_decisions (s.decisions - before.decisions);
  add g_restarts (s.restarts - before.restarts);
  add g_learnts (s.learnt_clauses - before.learnt_clauses);
  add g_lbd_sum (s.learnt_lbd_sum - before.learnt_lbd_sum);
  add g_glue (s.glue_clauses - before.glue_clauses);
  add g_deleted (s.deleted_clauses - before.deleted_clauses);
  add g_reductions (s.db_reductions - before.db_reductions);
  add_time elapsed

let solve_with_core ?(assumptions = []) ?deadline t =
  if not t.ok then (Unsat, [])
  else begin
    let t0 = Unix.gettimeofday () in
    let before = copy_stats t.stats in
    let span =
      if Obs.Trace.enabled () then
        Obs.Trace.start "sat.solve"
          ~args:
            [
              ("vars", Obs.Trace.Int t.nvars);
              ("clauses", Obs.Trace.Int t.clauses.ints_n);
              ("learnts", Obs.Trace.Int t.learnts.ints_n);
              ("assumptions", Obs.Trace.Int (List.length assumptions));
            ]
      else Obs.Trace.null_span
    in
    t.deadline <- (match deadline with None -> 0.0 | Some d -> d);
    t.stop <- false;
    t.prop_countdown <- deadline_check_interval;
    let core = ref [] in
    let assumptions = Array.of_list assumptions in
    cancel_until t 0;
    let restarts = ref 0 in
    let result = ref Unknown in
    (try
       if propagate t <> no_clause then begin
         t.ok <- false;
         emit_refutation t;
         raise (Found_result Unsat)
       end;
       if t.stop then raise (Found_result Unknown);
       while true do
         let restart_budget = int_of_float (restart_base *. luby 2.0 !restarts) in
         let conflicts_here = ref 0 in
         let restart = ref false in
         while not !restart do
           let confl = propagate t in
           if confl <> no_clause then begin
             t.stats.conflicts <- t.stats.conflicts + 1;
             incr conflicts_here;
             if decision_level t = 0 then begin
               t.ok <- false;
               emit_refutation t;
               raise (Found_result Unsat)
             end;
             let btlevel, lbd = analyze t confl in
             cancel_until t btlevel;
             record_learnt t lbd;
             var_decay_activity t;
             clause_decay_activity t;
             if
               t.sanitize
               && t.stats.conflicts land (sanitize_interval - 1) = 0
             then sanitize_check t;
             (* The propagation countdown covers long conflict-free runs;
                this covers analysis-heavy stretches of short ones. *)
             if
               t.stats.conflicts land 255 = 0
               && t.deadline > 0.0
               && Unix.gettimeofday () > t.deadline
             then raise (Found_result Unknown);
             if !conflicts_here >= restart_budget then begin
               restart := true;
               incr restarts;
               t.stats.restarts <- t.stats.restarts + 1;
               if Obs.Trace.enabled () then begin
                 let dt = Unix.gettimeofday () -. t0 in
                 if dt > 0.0 then
                   Obs.Trace.sample "sat.props_per_s"
                     [
                       ( "props_per_s",
                         float_of_int (t.stats.propagations - before.propagations)
                         /. dt );
                     ]
               end;
               cancel_until t 0
             end
           end
           else begin
             if t.stop then raise (Found_result Unknown);
             if t.stats.conflicts >= t.next_reduce then begin
               reduce_db t;
               t.next_reduce <-
                 t.stats.conflicts + t.reduce_first
                 + (t.reduce_inc * t.stats.db_reductions)
             end;
             if decision_level t < Array.length assumptions then begin
               (* Decide the next assumption. *)
               let a = assumptions.(decision_level t) in
               if Lit.var a >= t.nvars then
                 invalid_arg "Solver.solve: unknown assumption variable";
               match value_lit t a with
               | 1 -> push_int t.trail_lim t.trail.lits_n
               | 0 ->
                 core := analyze_final t a;
                 raise (Found_result Unsat)
               | _ ->
                 push_int t.trail_lim t.trail.lits_n;
                 enqueue t a no_clause
             end
             else begin
               t.stats.decisions <- t.stats.decisions + 1;
               (* Pick an unassigned variable with maximal activity. *)
               let v = ref (-1) in
               while !v < 0 && not (Heap.is_empty t.order) do
                 let cand = Heap.remove_min t.order in
                 if t.assigns.(cand) < 0 then v := cand
               done;
               if !v < 0 then begin
                 (* All variables assigned: model found. *)
                 if t.sanitize then sanitize_check_model t;
                 t.model <- Array.sub t.assigns 0 t.nvars;
                 raise (Found_result Sat)
               end;
               push_int t.trail_lim t.trail.lits_n;
               enqueue t (Lit.of_var ~sign:t.polarity.(!v) !v) no_clause
             end
           end
         done
       done
     with Found_result r -> result := r);
    cancel_until t 0;
    t.deadline <- 0.0;
    t.stop <- false;
    let elapsed = Unix.gettimeofday () -. t0 in
    t.stats.solve_time <- t.stats.solve_time +. elapsed;
    record_solve_totals t ~before ~elapsed;
    let s = t.stats in
    Obs.Metrics.incr m_solves;
    Obs.Metrics.add m_conflicts (s.conflicts - before.conflicts);
    Obs.Metrics.add m_propagations (s.propagations - before.propagations);
    Obs.Metrics.add m_restarts (s.restarts - before.restarts);
    Obs.Metrics.add m_reductions (s.db_reductions - before.db_reductions);
    Obs.Metrics.add m_learnts (s.learnt_clauses - before.learnt_clauses);
    if elapsed > 0.0 then
      Obs.Metrics.set g_props_per_s
        (float_of_int (s.propagations - before.propagations) /. elapsed);
    if span != Obs.Trace.null_span then
      Obs.Trace.stop span
        ~args:
          [
            ( "result",
              Obs.Trace.Str
                (match !result with
                | Sat -> "sat"
                | Unsat -> "unsat"
                | Unknown -> "unknown") );
            ("conflicts", Obs.Trace.Int (s.conflicts - before.conflicts));
            ("propagations", Obs.Trace.Int (s.propagations - before.propagations));
            ("restarts", Obs.Trace.Int (s.restarts - before.restarts));
          ];
    (!result, !core)
  end

let solve ?assumptions ?deadline t =
  fst (solve_with_core ?assumptions ?deadline t)

(* Initial phase hint: the next time [v] is picked as a decision with no
   saved phase overriding it, assign it [b].  Phase saving updates this on
   backtracking, so hints mostly shape the first descent. *)
let set_polarity t v b =
  if v < 0 || v >= t.nvars then invalid_arg "Solver.set_polarity";
  t.polarity.(v) <- b

let model_value t v =
  if v < 0 || v >= Array.length t.model then
    invalid_arg "Solver.model_value";
  t.model.(v) = 1

let set_proof_sink t sink = t.proof <- sink

let set_reduce_db_params t ~first ~inc =
  if first < 1 || inc < 0 then invalid_arg "Solver.set_reduce_db_params";
  t.reduce_first <- first;
  t.reduce_inc <- inc;
  t.next_reduce <- t.stats.conflicts + first

let set_sanitize t b = t.sanitize <- b

let sanitize_enabled t = t.sanitize

let stats t = t.stats

let ok t = t.ok

let n_clauses t = t.clauses.ints_n

let n_learnts t = t.learnts.ints_n
