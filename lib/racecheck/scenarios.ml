(* Concurrency scenarios for the race layer.

   Each scenario is a small, self-contained exercise of one
   concurrency-using production structure, written so that every thread
   of the real code runs as a managed task under {!Race.Explore}.  The
   clean corpus must produce zero findings on every seed; each mutant in
   {!Race.Mutations} is paired with the scenario that reaches its
   injected bug, and must be flagged on at least one seed of the sweep
   (most are flagged on all of them — happens-before detection is
   order-insensitive).

   The scenarios run real production code paths: the LRU cache, the
   worker pool, the single-flight table and admission control.  The
   socket server itself is exercised only passively (its threads block
   in real I/O, which the cooperative scheduler must never serialize —
   DESIGN.md §15); its lock discipline is shared with the structures
   covered here. *)

module RD = Race.Sync.Domain

type t = { s_name : string; s_run : unit -> unit }

(* Two readers/writers on the LRU cache: concurrent hits on a shared
   key plus concurrent inserts that force LRU surgery. *)
let cache () =
  let c = Service.Cache.create ~name:"racecheck.cache" ~capacity:2 () in
  Service.Cache.add c "shared" 0;
  let client i () =
    ignore (Service.Cache.find c "shared");
    Service.Cache.add c (Printf.sprintf "k%d" i) i;
    ignore (Service.Cache.find c "shared")
  in
  let ds = [ RD.spawn (client 0); RD.spawn (client 1) ] in
  List.iter RD.join ds

(* Two pool workers draining submitted jobs, then a full shutdown. *)
let pool () =
  let p = Service.Pool.create ~name:"racecheck.pool" ~workers:2 ~capacity:4 () in
  let hits = Race.Sync.Atomic.make 0 in
  for _ = 1 to 3 do
    ignore (Service.Pool.submit p (fun () -> Race.Sync.Atomic.incr hits))
  done;
  Service.Pool.shutdown p;
  ignore (Service.Pool.completed p)

(* A leader, two concurrently-joining followers, a progress streamer and
   the publication, each on its own task, all racing on one flight. *)
let single_flight () =
  let fl : int Serving.Single_flight.t = Serving.Single_flight.create () in
  let role = Serving.Single_flight.join fl "key" ~on_progress:(fun _ -> ())
      (fun _ _ -> ())
  in
  assert (role = Serving.Single_flight.Leader);
  let joiner () =
    ignore
      (Serving.Single_flight.join fl "key" ~on_progress:(fun _ -> ())
         (fun _ _ -> ()))
  in
  let streamer () =
    Serving.Single_flight.progress fl "key" (0, 1, 42);
    Serving.Single_flight.progress fl "key" (0, 2, 41)
  in
  let publisher () = ignore (Serving.Single_flight.publish fl "key" 7) in
  let ds =
    [ RD.spawn joiner; RD.spawn joiner; RD.spawn streamer; RD.spawn publisher ]
  in
  List.iter RD.join ds;
  ignore (Serving.Single_flight.started fl)

(* Two threads feeding service-time samples into admission control. *)
let admission () =
  let adm = Serving.Admission.create () in
  let observer () =
    Serving.Admission.observe adm 0.25;
    Serving.Admission.observe adm 0.75
  in
  let ds = [ RD.spawn observer; RD.spawn observer ] in
  List.iter RD.join ds;
  ignore (Serving.Admission.estimate adm)

let all : t list =
  [
    { s_name = "cache"; s_run = cache };
    { s_name = "pool"; s_run = pool };
    { s_name = "single-flight"; s_run = single_flight };
    { s_name = "admission"; s_run = admission };
  ]

let find name = List.find_opt (fun s -> String.equal s.s_name name) all

(* Which scenario reaches each mutant's injected bug. *)
let scenario_for_mutant = function
  | "cache-unlocked-hit" | "cache-unlocked-insert" -> "cache"
  | "pool-unlocked-completed" | "pool-unlocked-stop" -> "pool"
  | "flight-role-outside-lock" | "flight-publish-unlocked"
  | "flight-progress-unfenced" ->
    "single-flight"
  | "admission-unlocked-ewma" -> "admission"
  | m -> invalid_arg ("scenario_for_mutant: unknown mutant " ^ m)

let default_seeds = [ 1; 2; 3; 5; 8; 13; 21; 34 ]

type mutant_outcome = {
  mo_name : string;
  mo_scenario : string;
  mo_caught : bool;
  mo_seeds : int list;  (* seeds whose runs produced findings *)
  mo_kinds : string list;
}

type corpus_result = {
  clean_findings : int;
  mutants : mutant_outcome list;
}

let run_scenario_sweep ?policy ?steps_hint ~seeds s =
  List.iter
    (fun seed ->
      ignore (Race.Explore.run ?policy ?steps_hint ~seed s.s_run))
    seeds

(* The acceptance gate: every clean scenario silent on every seed, every
   mutant flagged on at least one. *)
let run_corpus ?policy ?steps_hint ?(seeds = default_seeds) () =
  Race.Explore.fresh ();
  List.iter (fun s -> run_scenario_sweep ?policy ?steps_hint ~seeds s) all;
  let clean_findings = Race.Report.count () in
  let mutants =
    List.map
      (fun (info : Race.Mutations.info) ->
        let sname = scenario_for_mutant info.Race.Mutations.name in
        let s = Option.get (find sname) in
        ignore (Race.Mutations.activate info.Race.Mutations.name);
        let kinds = ref [] in
        let caught_seeds =
          List.filter
            (fun seed ->
              Race.Explore.fresh ();
              ignore (Race.Explore.run ?policy ?steps_hint ~seed s.s_run);
              List.iter
                (fun f ->
                  kinds :=
                    Race.Report.kind_name f.Race.Report.f_kind :: !kinds)
                (Race.Report.findings ());
              Race.Report.count () > 0)
            seeds
        in
        let kinds = List.sort_uniq String.compare !kinds in
        Race.Mutations.deactivate ();
        {
          mo_name = info.Race.Mutations.name;
          mo_scenario = sname;
          mo_caught = caught_seeds <> [];
          mo_seeds = caught_seeds;
          mo_kinds = kinds;
        })
      Race.Mutations.all
  in
  Race.Explore.fresh ();
  { clean_findings; mutants }
