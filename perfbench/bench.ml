(* The benchmark behind BENCHMARK.json.

   One invocation runs one workload for a time box (longer, if the tail
   needs more requests; see [enough]) and prints, as the last line of
   stdout, {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones of an untraced run.  With
   --trace 1 the time box is split: an untraced half, then a traced replay
   of exactly the same requests, which yields the per-layer metrics, the
   tracing overhead, and the knife-edge guard (the replay must reproduce
   every route's swaps, blocks, conflicts and iterations).

   Inputs come from --seed and from perfbench/choices.json, which records
   why each workload exists, its draw band and draw seed, and every
   instance replaced in the draw.  Every routing is checked with
   Satmap.Verifier, which shares no code with the encoders; a failed check
   makes "correct" false and the exit code 1. *)

let now () = Obs.Clock.now_us () /. 1e6
let span = Obs.Trace.with_span
let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

(* ---- choices.json --------------------------------------------------- *)

let die fmt =
  Printf.ksprintf (fun m -> prerr_endline ("bench: " ^ m); exit 2) fmt

let field name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> die "choices.json: missing %S" name

let num name j =
  match Obs.Json.number_value (field name j) with
  | Some v -> v
  | None -> die "choices.json: %S is not a number" name

let int name j = int_of_float (num name j)

let str name j =
  match Obs.Json.string_value (field name j) with
  | Some v -> v
  | None -> die "choices.json: %S is not a string" name

let items name j = Obs.Json.to_list (field name j)

(* ---- checks --------------------------------------------------------- *)

let errors = ref []
let errors_lock = Mutex.create ()

let check_failed fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("FAIL " ^ m);
      Mutex.protect errors_lock (fun () -> errors := m :: !errors))
    fmt

let verify ~name ~original routed =
  match span "verify.check" (fun () -> Satmap.Verifier.check ~original routed) with
  | [] -> true
  | failures ->
    check_failed "%s: verifier rejected the routing: %s" name
      (String.concat "; " (List.map Satmap.Verifier.failure_to_string failures));
    false

let tokyo () =
  match Arch.Topologies.by_name "tokyo" with
  | Some d -> d
  | None -> die "no tokyo device"

let diameter = lazy (Arch.Device.diameter (tokyo ()))

(* ---- per-layer metrics ---------------------------------------------- *)

module Layers = struct
  let counters =
    [
      "sat.solves"; "sat.conflicts"; "sat.propagations"; "maxsat.iterations";
      "maxsat.solves"; "maxsat.optima_proved"; "router.blocks";
      "router.escalations"; "router.backtracks"; "encode.reused_clauses";
      "solver.created"; "service.cache.hits"; "service.cache.misses";
      "service.block_cache.hits"; "service.block_cache.misses";
      "service.warm_hits"; "service.warm_misses"; "server.requests";
      "server.flight.leaders"; "server.flight.coalesced";
    ]

  type t = {
    spans : (string, Stats.span_total) Hashtbl.t;
    before : (string * int) list;
    mutable pending : int list;  (* Service.Pool.pending at each send *)
  }

  (* Counters are read as deltas from here; tracing starts here too. *)
  let start () =
    Obs.Trace.enable ~capacity:(1 lsl 20) ();
    Obs.Trace.clear ();
    {
      spans = Hashtbl.create 16;
      before = List.map (fun c -> (c, counter c)) counters;
      pending = [];
    }

  (* Fold the ring's events into the totals and empty it.  A ring that
     wrapped would give self times of a partial span tree. *)
  let drain t =
    if Obs.Trace.dropped () > 0 then
      check_failed "the trace ring dropped %d events" (Obs.Trace.dropped ());
    List.iter
      (fun (name, (s : Stats.span_total)) ->
        let o =
          Option.value (Hashtbl.find_opt t.spans name)
            ~default:{ Stats.count = 0; total_s = 0.; self_s = 0. }
        in
        Hashtbl.replace t.spans name
          {
            count = o.count + s.count;
            total_s = o.total_s +. s.total_s;
            self_s = o.self_s +. s.self_s;
          })
      (Stats.self_times (Obs.Trace.events ()));
    Obs.Trace.clear ()

  (* Times and counts are per request; a layer that did not run reads 0. *)
  let metrics t ~requests ~overhead =
    Obs.Trace.disable ();
    let n = float (max 1 requests) in
    let delta c = float (counter c - List.assoc c t.before) in
    let per c = delta c /. n in
    let get f s = match Hashtbl.find_opt t.spans s with Some x -> f x | None -> 0. in
    let total = get (fun x -> x.Stats.total_s) and self = get (fun x -> x.Stats.self_s) in
    let ratio a b = if delta b = 0. then 0. else delta a /. delta b in
    let hit_ratio prefix =
      let h = delta (prefix ^ "hits") and m = delta (prefix ^ "misses") in
      if h +. m = 0. then 0. else h /. (h +. m)
    in
    let s name v = (name, v /. n, "s") and c name = (name, per name, "count") in
    [
      s "sat.solve_s" (total "sat.solve");
      c "sat.solves";
      c "sat.conflicts";
      c "sat.propagations";
      ( "sat.props_per_s",
        (if total "sat.solve" = 0. then 0.
         else delta "sat.propagations" /. total "sat.solve"),
        "1/s" );
      s "maxsat.iteration_s" (total "maxsat.iteration");
      s "maxsat.self_s" (self "maxsat.iteration");
      c "maxsat.iterations";
      c "maxsat.solves";
      c "maxsat.optima_proved";
      ("maxsat.optimal_ratio", ratio "maxsat.optima_proved" "maxsat.solves", "ratio");
      s "router.route_s" (total "router.route");
      s "router.self_s" (self "router.route");
      s "router.block_self_s" (self "router.block");
      c "router.blocks";
      c "router.escalations";
      c "router.backtracks";
      ("router.escalation_ratio", ratio "router.escalations" "router.blocks", "ratio");
      c "encode.reused_clauses";
      c "solver.created";
      s "verify.check_s" (total "verify.check");
      s "qasm.parse_s" (total "qasm.parse");
      s "qasm.print_s" (total "qasm.print");
      s "protocol.decode_s" (total "protocol.decode");
      s "protocol.encode_s" (total "protocol.encode");
      s "service.prepare_s" (total "service.prepare");
      s "canon.canonical_s" (total "canon.canonical");
      s "service.cache_lookup_s" (total "service.cache_lookup");
      ("cache.hit_ratio", hit_ratio "service.cache.", "ratio");
      ("block_cache.hit_ratio", hit_ratio "service.block_cache.", "ratio");
      ("warm.hit_ratio", hit_ratio "service.warm_", "ratio");
      ( "pool.pending_mean",
        (match t.pending with
        | [] -> 0.
        | l -> float (List.fold_left ( + ) 0 l) /. float (List.length l)),
        "count" );
      c "server.requests";
      c "server.flight.leaders";
      c "server.flight.coalesced";
      ("trace.overhead_s", overhead, "s");
    ]

  (* The library a metric measures, for the summary of layers that ran. *)
  let layer name =
    match List.hd (String.split_on_char '.' name) with
    | "router" | "encode" | "solver" | "verify" -> "satmap"
    | "qasm" -> "quantum"
    | "protocol" | "canon" | "cache" | "block_cache" | "warm" | "pool" -> "service"
    | "server" -> "serving"
    | l -> l
end

(* What a workload hands to the output: the untraced timed requests, and
   for a traced run the per-layer metrics. *)
type result = {
  latencies : float list;
  wall : float;  (* seconds the timed requests took, end to end *)
  swaps_per_round : int list;  (* one total per pass or round *)
  setups : float list;
  attempted : int;
  failed : int;
  layers : (string * float * string) list;
}

let sum = List.fold_left ( +. ) 0.
let mean l = sum l /. float (max 1 (List.length l))

(* A run measures whole passes or rounds until the time box is spent and,
   when it reports latencies, until its fixed tail percentile has ten
   requests beyond it: on a slow machine the run outlasts the time box
   rather than report a tail with fewer. *)
let enough ~budget ~traced ~tail ~spent ~requests =
  requests > 0 && spent >= budget && (traced || Stats.tail_allows tail requests)

(* Set-ups a route workload times before its first request, besides the
   one before each pass. *)
let setup_repeats = 3

(* Each repeat starts from a collected heap, so the repeats measure the
   same work rather than the garbage of the one before, and the requests
   that follow do not pay to collect it. *)
let repeat_setup ~repeats f =
  let times = ref [] and last = ref None in
  for _ = 1 to repeats do
    Gc.full_major ();
    let t0 = now () in
    last := Some (f ());
    times := (now () -. t0) :: !times
  done;
  Gc.full_major ();
  (!times, Option.get !last)

(* ---- route workloads ------------------------------------------------ *)

type method_ = Sliced | Cyclic_body of int  (* repetitions of the body *)

type route_request = {
  r_name : string;
  r_qasm : string;  (* what the client sends *)
  r_original : Quantum.Circuit.t;  (* what the routing must implement *)
  r_method : method_;
}

(* Size-stratified: per stratum, a seeded shuffle of the suite circuits
   in its band, skipping replaced instances. *)
let draw_suite spec =
  let rng = Rng.create (int "draw_seed" spec) in
  let families = List.filter_map Obs.Json.string_value (items "families" spec) in
  let min_qubits = int "min_qubits" spec in
  let replaced = List.map (str "name") (items "replaced" spec) in
  let suite = Workloads.Suite.full () in
  List.concat_map
    (fun stratum ->
      let lo = int "min_two_qubit" stratum and hi = int "max_two_qubit" stratum in
      let candidates =
        List.filter
          (fun (b : Workloads.Suite.benchmark) ->
            List.mem b.family families && b.n_qubits >= min_qubits
            && lo <= b.n_two_qubit && b.n_two_qubit <= hi)
          suite
        |> Array.of_list
      in
      Rng.shuffle rng candidates;
      Array.to_list candidates
      |> List.filter (fun (b : Workloads.Suite.benchmark) -> not (List.mem b.name replaced))
      |> List.filteri (fun i _ -> i < int "count" stratum))
    (items "strata" spec)

let route_inputs spec =
  let sliced =
    List.map
      (fun (b : Workloads.Suite.benchmark) ->
        {
          r_name = b.name;
          r_qasm = Quantum.Qasm.to_string b.circuit;
          r_original = b.circuit;
          r_method = Sliced;
        })
      (draw_suite (field "suite" spec))
  in
  let qaoa =
    List.map
      (fun q ->
        let n = int "qubits" q and cycles = int "cycles" q and seed = int "graph_seed" q in
        let graph, original = Qaoa.Build.maxcut_3_regular ~seed ~n ~cycles in
        {
          r_name = Printf.sprintf "qaoa-%dq-%dc-g%d" n cycles seed;
          r_qasm = Quantum.Qasm.to_string (Qaoa.Build.body graph);
          r_original = original;
          r_method = Cyclic_body cycles;
        })
      (match Obs.Json.member "qaoa" spec with
      | Some q -> items "instances" q
      | None -> [])
  in
  Array.of_list (sliced @ qaoa)

(* What one route computed: the knife-edge guard compares these. *)
type route_outcome = {
  latency : float;
  swaps : int option;  (* None: no verified routing *)
  blocks : int;
  conflicts : int;
  iterations : int;
}

(* One request: parse the client's QASM, route it, print the routing.
   Only that is timed; the verifier runs after the clock stops. *)
let route_one ~device ~timeout ~slice_size (r : route_request) =
  let config = { Satmap.Router.default_config with timeout; solver_parallelism = 1 } in
  let b0 = counter "router.blocks"
  and c0 = counter "sat.conflicts"
  and i0 = counter "maxsat.iterations" in
  let t0 = now () in
  let circuit = span "qasm.parse" (fun () -> Quantum.Qasm.of_string r.r_qasm) in
  let result =
    span "router.route" (fun () ->
        match r.r_method with
        | Sliced -> Satmap.Router.route_sliced ~config ~slice_size device circuit
        | Cyclic_body repetitions ->
          Satmap.Router.route_cyclic_body ~config ~slice_size ~repetitions device circuit)
  in
  (match result with
  | Satmap.Router.Routed (routed, _) ->
    ignore (span "qasm.print" (fun () -> Quantum.Qasm.to_string (Satmap.Routed.circuit routed)))
  | Satmap.Router.Failed _ -> ());
  let latency = now () -. t0 in
  let swaps =
    match result with
    | Satmap.Router.Failed msg ->
      prerr_endline (Printf.sprintf "%s: no routing (%s)" r.r_name msg);
      None
    | Satmap.Router.Routed (routed, _) ->
      if verify ~name:r.r_name ~original:r.r_original routed then
        Some (Satmap.Routed.n_swaps routed)
      else None
  in
  {
    latency;
    swaps;
    blocks = counter "router.blocks" - b0;
    conflicts = counter "sat.conflicts" - c0;
    iterations = counter "maxsat.iterations" - i0;
  }

(* Deadline-bound routes compute different things on different runs;
   name the request whose work changed. *)
let same_work ~name ~what a b =
  if (a.swaps, a.blocks, a.conflicts, a.iterations)
     <> (b.swaps, b.blocks, b.conflicts, b.iterations)
  then
    let show o =
      Printf.sprintf "swaps=%s blocks=%d conflicts=%d iterations=%d"
        (Option.fold ~none:"none" ~some:string_of_int o.swaps)
        o.blocks o.conflicts o.iterations
    in
    check_failed "%s: %s differs: %s, then %s" name what (show a) (show b)

let route_workload ~spec ~seed ~seconds ~traced =
  let setup () = (tokyo (), route_inputs spec) in
  let setups, (device, reqs) = repeat_setup ~repeats:setup_repeats setup in
  Printf.printf "requests: %s\n%!"
    (String.concat " " (Array.to_list (Array.map (fun r -> r.r_name) reqs)));
  let timeout = num "timeout_s" spec and slice_size = int "slice_size" spec in
  let route i = route_one ~device ~timeout ~slice_size reqs.(i) in
  let rng = Rng.create seed in
  (* An untimed request first: the first route of a process pays page
     faults and cold caches that later ones do not. *)
  ignore (route (Rng.int rng (Array.length reqs)));
  (* Whole passes, each in a fresh seeded order, until the time box is
     spent (half of it when the traced replay follows). *)
  let budget = if traced then seconds /. 2. else seconds in
  let tail = num "tail_percentile" spec in
  let order = Array.init (Array.length reqs) Fun.id in
  let rec passes acc setups spent =
    if enough ~budget ~traced ~tail ~spent ~requests:(List.length acc * Array.length reqs)
    then (List.rev acc, setups)
    else begin
      (* Setting up again before each pass samples setup_s across the whole
         run rather than at one moment of it; the requests keep the inputs
         of the first set-up, which are the same. *)
      let times, _ = repeat_setup ~repeats:1 setup in
      Rng.shuffle rng order;
      let pass = Array.to_list (Array.map (fun i -> (i, route i)) order) in
      passes (pass :: acc) (times @ setups) (spent +. sum (List.map (fun (_, o) -> o.latency) pass))
    end
  in
  let passes, setups = passes [] setups 0. in
  Printf.printf "setup seconds: %s\npass seconds: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setups))
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.3f" (sum (List.map (fun (_, o) -> o.latency) p))) passes));
  let first = List.hd passes in
  List.iter
    (List.iter (fun (i, o) ->
         same_work ~name:reqs.(i).r_name ~what:"a later pass" (List.assoc i first) o))
    (List.tl passes);
  let timed = List.concat passes in
  let latencies = List.map (fun (_, o) -> o.latency) timed in
  let charged (i, o) =
    Stats.swaps_or_charge ~diameter:(Lazy.force diameter)
      ~two_qubit:(Quantum.Circuit.count_two_qubit reqs.(i).r_original)
      o.swaps
  in
  let layers, replayed =
    if not traced then ([], [])
    else begin
      let layers = Layers.start () in
      let replayed =
        List.map
          (fun (i, untraced) ->
            let o = route i in
            Layers.drain layers;
            same_work ~name:reqs.(i).r_name ~what:"the traced replay" untraced o;
            o)
          timed
      in
      let overhead = mean (List.map (fun o -> o.latency) replayed) -. mean latencies in
      (Layers.metrics layers ~requests:(List.length replayed) ~overhead, replayed)
    end
  in
  let all = List.map snd timed @ replayed in
  {
    latencies;
    wall = sum latencies;
    swaps_per_round = List.map (fun p -> List.fold_left (fun s x -> s + charged x) 0 p) passes;
    setups;
    attempted = List.length all;
    failed = List.length (List.filter (fun o -> o.swaps = None) all);
    layers;
  }

(* ---- serve-repeat --------------------------------------------------- *)

type serve_item = {
  s_line : string;
  s_request : Service.Protocol.request;
  s_original : Quantum.Circuit.t;
}

(* A closed-loop mix in the style of Loadgen.plan over a fixed pool of
   unique circuits (drawn once, from the pool's own seed).  Each circuit is
   asked for with three methods or engines, so a round has 18 distinct
   requests; each first appears as a fresh request, in an order drawn
   from the round seed, and every other request re-issues an earlier one,
   some under a random qubit renaming.  Every round thus pays the same 18
   misses, and the rest are request-cache hits. *)
let serve_inputs ~seed ~round spec =
  let pool_spec = field "pool" spec in
  let n_qubits = int "qubits" pool_spec in
  let pool =
    Array.init (int "circuits" pool_spec) (fun i ->
        Workloads.Generators.local_random
          (Rng.create ((int "draw_seed" pool_spec * 7919) + i))
          ~n:n_qubits ~gates:(int "two_qubit" pool_spec)
          ~locality:(num "locality" pool_spec))
  in
  let variants =
    [| (Service.Protocol.Sliced, "maxsat"); (Service.Protocol.Monolithic, "maxsat");
       (Service.Protocol.Sliced, "sabre") |]
  in
  let rng = Rng.create ((seed * 1000) + round) in
  let keys = Array.init (Array.length pool * Array.length variants) Fun.id in
  Rng.shuffle rng keys;
  let n = int "requests_per_round" spec in
  let chosen = Array.make n 0 and introduced = ref 0 in
  Array.init n (fun i ->
      let unseen = Array.length keys - !introduced in
      let fresh =
        unseen > 0 && (i = 0 || unseen >= n - i || Rng.float rng < num "fresh_frac" spec)
      in
      let key =
        if fresh then (incr introduced; keys.(!introduced - 1)) else chosen.(Rng.int rng i)
      in
      chosen.(i) <- key;
      let base = pool.(key mod Array.length pool) in
      let circuit =
        if Rng.float rng >= num "rename_frac" spec then base
        else begin
          let perm = Array.init n_qubits Fun.id in
          Rng.shuffle rng perm;
          Quantum.Circuit.relabel_qubits base (fun q -> perm.(q))
        end
      in
      let method_, engine = variants.(key / Array.length pool) in
      let request =
        {
          Service.Protocol.default_request with
          id = Printf.sprintf "r%d.%d" round i;
          qasm = Quantum.Qasm.to_string circuit;
          device = "tokyo";
          method_;
          engine;
          slice_size = Some (int "slice_size" spec);
          timeout = num "timeout_s" spec;
        }
      in
      {
        s_line = Service.Protocol.request_to_string request;
        s_request = request;
        s_original = circuit;
      })

type reply = { r_latency : float; r_line : string; r_pending : int }

(* One client connection: send, wait for the reply, send the next. *)
let client ~engine ~addr ~(items : serve_item array) ~replies idxs =
  let ic, oc = Serving.Server.connect addr in
  Unix.setsockopt_float (Unix.descr_of_in_channel ic) Unix.SO_RCVTIMEO 60.;
  (try
     List.iter
       (fun i ->
         let pending = Service.Pool.pending (Service.Engine.pool engine) in
         let t0 = now () in
         output_string oc items.(i).s_line;
         output_char oc '\n';
         flush oc;
         let line = input_line ic in
         replies.(i) <- Some { r_latency = now () -. t0; r_line = line; r_pending = pending })
       idxs
   with e -> check_failed "client: %s" (Printexc.to_string e));
  Serving.Server.disconnect (ic, oc)

(* Rebuild a reply into a routing and verify it against the request. *)
let check_reply ~device (item : serve_item) = function
  | None ->
    check_failed "%s: no reply" item.s_request.id;
    None
  | Some r -> (
    match Service.Protocol.parse_response r.r_line with
    | Ok (Service.Protocol.Ok_response p as response) ->
      let n_phys = Arch.Device.n_qubits device in
      let routed =
        Satmap.Routed.create ~device
          ~initial:(Satmap.Mapping.of_array ~n_phys p.ok_initial)
          ~final:(Satmap.Mapping.of_array ~n_phys p.ok_final)
          ~circuit:(Quantum.Qasm.of_string p.ok_qasm)
      in
      if not (verify ~name:p.ok_id ~original:item.s_original routed) then None
      else if Satmap.Routed.n_swaps routed <> p.ok_swaps then begin
        check_failed "%s: the reply claims %d swaps, its circuit has %d" p.ok_id
          p.ok_swaps (Satmap.Routed.n_swaps routed);
        None
      end
      else Some (p, routed, response)
    | Ok (Service.Protocol.Error_response e) ->
      prerr_endline
        (Printf.sprintf "%s: error reply %s: %s" e.id
           (Service.Protocol.error_code_name e.code) e.message);
      None
    | Ok (Service.Protocol.Progress_response _) | Error _ ->
      check_failed "%s: unexpected reply %S" item.s_request.id r.r_line;
      None)

(* Canonical twins -- duplicates and renamings of one request, in this
   round or an earlier one -- must get the same swap count.  Returns the
   round's SWAP total over its distinct routings, failures charged, which
   does not depend on how often the mix repeats each one. *)
let twin_swaps ~twins items checked =
  let distinct = Hashtbl.create 32 in
  Array.iteri
    (fun i c ->
      match Service.Engine.canonical_key items.(i).s_request with
      | Error _ -> check_failed "%s: no canonical key" items.(i).s_request.id
      | Ok key ->
        let swaps = Option.map (fun ((p : Service.Protocol.ok_payload), _, _) -> p.ok_swaps) c in
        Option.iter
          (fun s ->
            match Hashtbl.find_opt twins key with
            | Some (id, s') when s' <> s ->
              check_failed "%s: %d swaps, but its twin %s got %d" items.(i).s_request.id s id s'
            | Some _ -> ()
            | None -> Hashtbl.add twins key (items.(i).s_request.id, s))
          swaps;
        let charged =
          Stats.swaps_or_charge ~diameter:(Lazy.force diameter)
            ~two_qubit:(Quantum.Circuit.count_two_qubit items.(i).s_original)
            swaps
        in
        Hashtbl.replace distinct key
          (Option.fold ~none:charged ~some:(min charged) (Hashtbl.find_opt distinct key)))
    checked;
  Hashtbl.fold (fun _ s total -> total + s) distinct 0

(* The service functions the server calls internally, replayed on the
   same lines under bench spans: the server has no spans around them. *)
let replay_service items checked =
  Array.iteri
    (fun i item ->
      (match span "protocol.decode" (fun () -> Service.Protocol.parse_request item.s_line) with
      | Ok req -> ignore (span "service.prepare" (fun () -> Service.Engine.prepare req))
      | Error e -> check_failed "%s: replayed decode failed: %s" item.s_request.id e);
      let circuit = span "qasm.parse" (fun () -> Quantum.Qasm.of_string item.s_request.qasm) in
      ignore (span "canon.canonical" (fun () -> Service.Canon.canonical circuit));
      match checked.(i) with
      | Some ((p : Service.Protocol.ok_payload), routed, response) ->
        ignore (span "protocol.encode" (fun () -> Service.Protocol.response_to_string response));
        (* Only a solve prints its routing; a hit reuses the stored text. *)
        if not (p.ok_cache_hit || p.ok_coalesced) then
          ignore (span "qasm.print" (fun () -> Quantum.Qasm.to_string (Satmap.Routed.circuit routed)))
      | None -> ())
    items

type round = {
  setup : float;
  round_wall : float;
  latencies : float list;
  swaps : int;  (* failures charged *)
  sent : int;
  verified : int;
}

(* One round: a fresh engine and server (cold caches), the whole mix over
   [clients] closed-loop connections, then the checks.  [limit] cuts the
   mix short, for the warm-up. *)
let serve_round ?limit ~spec ~seed ~twins ~layers round =
  let t0 = now () in
  let device = tokyo () in
  let items = serve_inputs ~seed ~round spec in
  let items = match limit with Some k -> Array.sub items 0 k | None -> items in
  let engine =
    Service.Engine.create ~workers:(int "workers" spec) ~solver_jobs:1 ()
  in
  let path = Printf.sprintf "_build/perfbench-%d.sock" (Unix.getpid ()) in
  if Sys.file_exists path then Sys.remove path;
  let server = Serving.Server.start engine (Serving.Server.Unix_path path) in
  let addr = Serving.Server.address server in
  let setup = now () -. t0 in
  let replies = Array.make (Array.length items) None in
  (* No connection without a request to send.  Serving.Server closes a
     connection's descriptor twice, once per channel, in [disconnect] and
     in its handler.  A connection that opens and closes at once, as an
     idle second client of the one-request warm-up would, can have that
     second close hit the socket just accepted for the other client under
     the same number: EBADF in the handler, a broken pipe in the client.
     Timed rounds open both connections before either closes. *)
  let clients = min (int "clients" spec) (Array.length items) in
  let share c = List.filter (fun i -> i mod clients = c) (List.init (Array.length items) Fun.id) in
  let t1 = now () in
  List.init clients (fun c ->
      Thread.create (fun () -> client ~engine ~addr ~items ~replies (share c)) ())
  |> List.iter Thread.join;
  let round_wall = now () -. t1 in
  Serving.Server.stop server;
  Service.Engine.shutdown engine;
  if Sys.file_exists path then Sys.remove path;
  Option.iter Layers.drain layers;
  let checked = Array.mapi (fun i r -> check_reply ~device items.(i) r) replies in
  let swaps = twin_swaps ~twins items checked in
  Option.iter
    (fun (l : Layers.t) ->
      replay_service items checked;
      Layers.drain l;
      Array.iter (Option.iter (fun r -> l.pending <- r.r_pending :: l.pending)) replies)
    layers;
  (* The previous round's engine is garbage now; collecting it here, off
     the clock, keeps peak RSS a measure of one round's working set. *)
  Gc.full_major ();
  {
    setup;
    round_wall;
    latencies = List.filter_map (Option.map (fun r -> r.r_latency)) (Array.to_list replies);
    swaps;
    sent = Array.length items;
    verified = Array.fold_left (fun n c -> if c = None then n else n + 1) 0 checked;
  }

(* Rounds draw their mixes from (--seed, round), so one run averages over
   several orders of first appearances, which set what the misses cost. *)
let serve_workload ~spec ~seed ~seconds ~traced =
  let twins = Hashtbl.create 64 in
  ignore (serve_round ~limit:1 ~spec ~seed ~twins ~layers:None 0);
  let budget = if traced then seconds /. 2. else seconds in
  let tail = num "tail_percentile" spec in
  let rec timed acc spent =
    let requests = List.fold_left (fun n r -> n + r.sent) 0 acc in
    if enough ~budget ~traced ~tail ~spent ~requests then List.rev acc
    else
      let r = serve_round ~spec ~seed ~twins ~layers:None (List.length acc + 1) in
      timed (r :: acc) (spent +. r.round_wall)
  in
  let rounds = timed [] 0. in
  Printf.printf "round seconds (median latency ms): %s\n"
    (String.concat " "
       (List.map
          (fun r -> Printf.sprintf "%.3f (%.3f)" r.round_wall (1e3 *. Stats.percentile 50. r.latencies))
          rounds));
  let latencies = List.concat_map (fun r -> r.latencies) rounds in
  let layers, replayed =
    if not traced then ([], [])
    else begin
      let l = Layers.start () in
      let replayed =
        List.mapi (fun i _ -> serve_round ~spec ~seed ~twins ~layers:(Some l) (i + 1)) rounds
      in
      let overhead = mean (List.concat_map (fun r -> r.latencies) replayed) -. mean latencies in
      let requests = List.fold_left (fun n r -> n + r.sent) 0 replayed in
      (Layers.metrics l ~requests ~overhead, replayed)
    end
  in
  let all = rounds @ replayed in
  let attempted = List.fold_left (fun n r -> n + r.sent) 0 all in
  {
    latencies;
    wall = sum (List.map (fun r -> r.round_wall) rounds);
    swaps_per_round = List.map (fun r -> r.swaps) rounds;
    setups = List.map (fun r -> r.setup) rounds;
    attempted;
    failed = attempted - List.fold_left (fun n r -> n + r.verified) 0 all;
    layers;
  }

(* ---- output --------------------------------------------------------- *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | Some _ -> find ()
        | None -> die "no VmHWM in /proc/self/status"
      in
      find ())

let end_to_end ~spec (r : result) =
  let n = List.length r.latencies in
  let tail = num "tail_percentile" spec in
  Printf.printf "%d timed requests in %.3f s; tail p%g has %d beyond it\n" n r.wall
    tail (Stats.beyond tail n);
  if not (Stats.tail_allows tail n) then
    check_failed "the tail p%g leaves %d of %d requests beyond it, fewer than ten" tail
      (Stats.beyond tail n) n;
  [
    ("setup_s", Stats.percentile 50. r.setups, "s");
    ("latency_p50_s", Stats.percentile 50. r.latencies, "s");
    ("latency_tail_s", Stats.percentile tail r.latencies, "s");
    ("throughput_rps", float n /. r.wall, "1/s");
    ("swaps_total", Stats.percentile 50. (List.map float r.swaps_per_round), "count");
    ("routed_frac", float (r.attempted - r.failed) /. float r.attempted, "ratio");
    ("peak_rss_mb", peak_rss_mb (), "MB");
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " a workload of choices.json");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " time box of the measured requests");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let choices =
    let path = "perfbench/choices.json" in
    match Obs.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> die "%s: %s" path e
  in
  let spec =
    match Obs.Json.member !workload (field "workloads" choices) with
    | Some s -> s
    | None -> die "unknown workload %S" !workload
  in
  let traced = !trace = 1 in
  let r =
    match str "kind" spec with
    | "route" ->
      route_workload ~spec ~seed:!seed ~seconds:!seconds ~traced
    | "serve" -> serve_workload ~spec ~seed:!seed ~seconds:!seconds ~traced
    | k -> die "unknown workload kind %S" k
  in
  let metrics =
    if not traced then end_to_end ~spec r
    else begin
      let ran =
        List.sort_uniq compare
          (List.filter_map
             (fun (name, v, _) ->
               if v <> 0. && name <> "trace.overhead_s" then Some (Layers.layer name) else None)
             r.layers)
      in
      Printf.printf "layers that ran: %s\n" (String.concat " " ran);
      List.iter
        (fun (name, v, unit) ->
          if List.mem (Layers.layer name) ran || name = "trace.overhead_s" then
            Printf.printf "  %-24s %14.6g %s\n" name v unit)
        r.layers;
      r.layers
    end
  in
  (* Values print with every digit a double carries. *)
  let correct = !errors = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
          metrics));
  exit (if correct then 0 else 1)
