(* The serving layer: request-level cache + shared block cache + worker
   pool.  Requests are routed in canonical qubit space (first-use
   relabelling), so two renamed copies of one circuit share both cache
   levels and produce the same physical circuit text; only the
   initial/final maps are translated back per request. *)

type t = {
  pool : Pool.t;
  serve_cache : Protocol.ok_payload Cache.t;
  block_cache : Block_cache.t;
  warm : Warm.t;
  cache_file : string option;
  restored : int;
  solver_jobs : int;
}

let m_requests = Obs.Metrics.counter "service.requests"

let create ?workers ?(solver_jobs = 1) ?(cache_size = 256)
    ?(block_cache_size = 4096) ?(queue_capacity = 64) ?cache_file () =
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  (* A portfolio request's domains multiply per worker; cap the product
     at the machine's domain budget so a busy pool cannot oversubscribe. *)
  let solver_jobs =
    let budget =
      max 1 (Domain.recommended_domain_count () / max 1 workers)
    in
    min (max 1 solver_jobs) budget
  in
  let serve_cache = Cache.create ~name:"service.cache" ~capacity:cache_size () in
  let restored =
    match cache_file with
    | Some path when Sys.file_exists path -> (
      match Cache.load ~decode:Protocol.payload_of_json serve_cache path with
      | Ok n -> n
      | Error _ -> 0 (* stale schema or corrupt file: start cold *))
    | Some _ | None -> 0
  in
  {
    pool = Pool.create ~name:"service.pool" ~workers ~capacity:queue_capacity ();
    serve_cache;
    block_cache = Block_cache.create ~capacity:block_cache_size ();
    warm = Warm.create ();
    cache_file;
    restored;
    solver_jobs;
  }

let solver_jobs t = t.solver_jobs

let serve_cache t = t.serve_cache
let block_cache t = t.block_cache
let warm t = t.warm
let restored_entries t = t.restored
let pool t = t.pool
let shutdown t = Pool.shutdown t.pool

let save_cache t =
  Option.iter
    (Cache.save ~encode:Protocol.payload_to_json t.serve_cache)
    t.cache_file

(* ---- one request ------------------------------------------------- *)

let err id code message = Protocol.Error_response { id; code; message }

(* Everything the answer depends on beyond the canonical circuit.  The
   config digest covers the encoding knobs and the objective (which
   folds in the calibration under [noise]); timeout is included because
   request-level entries may hold non-optimal anytime results, whose
   quality the budget does change.  The engine name is part of the key —
   different engines produce different routings for one circuit, so a
   cached reply must never cross engines (the v1 -> v2 prefix bump
   retires pre-engine persisted entries wholesale rather than risking a
   collision with them).  The v2 -> v3 bump retires entries routed with a
   free slice 0, from before the QAP placement became the default.  The
   v3 -> v4 bump retires one-slice cyclic replies labelled not optimal,
   from before every single-block route was labelled alike. *)
let request_key (req : Protocol.request) config device canon_circuit =
  Canon.digest_parts
    [
      "satmap-serve/v4";
      "engine:" ^ req.engine;
      Canon.device_digest device;
      Canon.config_digest config;
      Canon.circuit_digest canon_circuit;
      (match req.method_ with
      | Sliced -> Printf.sprintf "sliced:%d" (Option.value req.slice_size ~default:25)
      | Monolithic -> "monolithic"
      | Cyclic -> (
        match req.slice_size with
        | Some s -> Printf.sprintf "cyclic:%d" s
        | None -> "cyclic")
      | Portfolio -> "portfolio");
      string_of_int req.n_swaps;
      Printf.sprintf "%.17g" req.timeout;
    ]

(* Everything request-level that can be computed without the engine:
   device resolution, QASM parsing, canonicalization, and the cache /
   single-flight key.  The socket server runs [prepare] on the
   connection thread (cheap, and the key decides shard ownership and
   single-flight membership before any pool slot is taken) and
   [handle_prepared] on a pool worker. *)
type prepared = {
  p_req : Protocol.request;
  p_device : Arch.Device.t;
  p_perm : int array;
  p_canon : Quantum.Circuit.t;
  p_key : string;
}

let objective_of (req : Protocol.request) device =
  if req.noise then Satmap.Encoding.Fidelity (Arch.Calibration.synthetic device)
  else Satmap.Encoding.Count_swaps

let prepare (req : Protocol.request) =
  if Engines.Catalog.find req.engine = None then
    Error
      (err req.id Protocol.Bad_request
         (Printf.sprintf "unknown engine %S (available: %s)" req.engine
            (String.concat ", " (Engines.Catalog.names ()))))
  else
  match Arch.Topologies.by_name req.device with
  | None ->
    Error
      (err req.id Protocol.Unknown_device
         (Printf.sprintf "unknown device %S (known: %s)" req.device
            (String.concat ", " Arch.Topologies.known_names)))
  | Some device -> (
    match Quantum.Qasm.of_string req.qasm with
    | exception e ->
      Error
        (err req.id Protocol.Parse_error
           (match e with Failure m -> m | e -> Printexc.to_string e))
    | circuit ->
      let perm, canon = Canon.canonical circuit in
      (* Only the digested config fields matter for the key (encoding
         knobs, objective, placement); timeout, parallelism and the cache
         hook are deliberately not part of it. *)
      let key_config =
        { Satmap.Router.default_config with objective = objective_of req device }
      in
      Ok
        {
          p_req = req;
          p_device = device;
          p_perm = perm;
          p_canon = canon;
          p_key = request_key req key_config device canon;
        })

let canonical_key req = Result.map (fun p -> p.p_key) (prepare req)
let prepared_key p = p.p_key
let prepared_request p = p.p_req

let finalize (p : prepared) (stored : Protocol.ok_payload) ~cache_hit
    ~coalesced ~time =
  {
    stored with
    Protocol.ok_id = p.p_req.Protocol.id;
    ok_initial = Canon.apply_perm p.p_perm stored.Protocol.ok_initial;
    ok_final = Canon.apply_perm p.p_perm stored.Protocol.ok_final;
    ok_cache_hit = cache_hit;
    ok_coalesced = coalesced;
    ok_time = time;
  }

(* The reply for a fresh routing, stored in canonical space with neutral
   identity/timing fields; [finalize] fills them per caller. *)
let canonical_payload routed ~blocks ~backtracks ~proved_optimal ~iterations
    ~solver_calls =
  {
    Protocol.ok_id = "";
    ok_qasm = Quantum.Qasm.to_string (Satmap.Routed.circuit routed);
    ok_initial = Satmap.Mapping.to_array (Satmap.Routed.initial routed);
    ok_final = Satmap.Mapping.to_array (Satmap.Routed.final routed);
    ok_swaps = Satmap.Routed.n_swaps routed;
    ok_added_cnots = Satmap.Routed.added_cnots routed;
    ok_depth = Satmap.Routed.depth routed;
    ok_blocks = blocks;
    ok_backtracks = backtracks;
    ok_proved_optimal = proved_optimal;
    ok_maxsat_iterations = iterations;
    ok_solver_calls = solver_calls;
    ok_cache_hit = false;
    ok_coalesced = false;
    ok_time = 0.;
  }

let route_canonical (req : Protocol.request) config device canon =
  match req.method_ with
  | Protocol.Monolithic -> Satmap.Router.route_monolithic ~config device canon
  | Protocol.Sliced ->
    Satmap.Router.route_sliced ~config
      ~slice_size:(Option.value req.slice_size ~default:25)
      device canon
  | Protocol.Cyclic ->
    Satmap.Router.route_cyclic ~config ?slice_size:req.slice_size device canon
  | Protocol.Portfolio ->
    fst (Satmap.Router.route_portfolio ~config device canon)

let handle_prepared ?deadline ?on_progress t (p : prepared) =
  let req = p.p_req in
  let start = Unix.gettimeofday () in
  let budget =
    match deadline with
    | Some d -> Float.min req.timeout (d -. start)
    | None -> req.timeout
  in
  if budget <= 0. then
    Error
      (err req.id Protocol.Deadline_exceeded
         "deadline passed before routing began")
  else begin
    let config =
      {
        Satmap.Router.default_config with
        timeout = budget;
        objective = objective_of req p.p_device;
        n_swaps = req.n_swaps;
        solver_parallelism = t.solver_jobs;
        block_cache =
          (if req.use_cache then Some (Block_cache.hook t.block_cache)
           else None);
        on_improvement = on_progress;
      }
    in
    let cached =
      if req.use_cache then
        Obs.Trace.with_span "service.cache_lookup"
          ~args:[ ("level", Obs.Trace.Str "request") ]
          (fun () -> Cache.find t.serve_cache p.p_key)
      else None
    in
    match cached with
    | Some stored -> Ok (stored, true)
    | None -> (
      let payload =
        if req.engine <> Protocol.default_request.engine then
          (* Non-default engines dispatch through the registry (which
             verifies the output).  Warm sessions and the block cache are
             MaxSAT internals, so they are skipped; the result still lands
             in the request cache under the engine-tagged key. *)
          Engines.Catalog.route ~engine:req.engine p.p_device p.p_canon
            {
              Engines.Registry.default_config with
              timeout = budget;
              n_swaps = req.n_swaps;
              slice_size = Option.value req.slice_size ~default:25;
              objective = objective_of req p.p_device;
            }
          |> Result.map (fun (routed, meta) ->
                 canonical_payload routed ~blocks:1 ~backtracks:0
                   ~proved_optimal:meta.Engines.Registry.m_optimal
                   ~iterations:0 ~solver_calls:0)
        else
          (* Warm the incremental session from the cross-request pool when
             this config would use one at all; the session is exclusively
             owned for the duration of the route and parked again after,
             solver state (skeleton clauses, learnt clauses, descent-bound
             selectors) intact for the next request of the same shape. *)
          let route config =
            match Satmap.Router.session_for config with
            | None -> route_canonical req config p.p_device p.p_canon
            | Some _ ->
              let wkey =
                Warm.key ~device:p.p_device ~config ~n_swaps:req.n_swaps
              in
              let session = Warm.acquire t.warm ~key:wkey in
              Fun.protect
                ~finally:(fun () -> Warm.release t.warm ~key:wkey session)
                (fun () ->
                  route_canonical req
                    { config with warm_session = Some session }
                    p.p_device p.p_canon)
          in
          match route config with
          | exception e -> Error (Printexc.to_string e)
          | Satmap.Router.Failed msg -> Error msg
          | Satmap.Router.Routed (routed, s) ->
            Ok
              (canonical_payload routed ~blocks:s.n_blocks
                 ~backtracks:s.n_backtracks ~proved_optimal:s.proved_optimal
                 ~iterations:s.maxsat_iterations ~solver_calls:s.solver_calls)
      in
      match payload with
      | Error msg -> Error (err req.id Protocol.Routing_failed msg)
      | Ok payload ->
        if req.use_cache then Cache.add t.serve_cache p.p_key payload;
        Ok (payload, false))
  end

let handle ?deadline ?on_progress t (req : Protocol.request) =
  Obs.Metrics.incr m_requests;
  Obs.Trace.with_span "service.request"
    ~args:[ ("id", Obs.Trace.Str req.id); ("device", Obs.Trace.Str req.device) ]
  @@ fun () ->
  let start = Unix.gettimeofday () in
  let budget =
    match deadline with
    | Some d -> Float.min req.timeout (d -. start)
    | None -> req.timeout
  in
  if budget <= 0. then
    err req.id Protocol.Deadline_exceeded "deadline passed before routing began"
  else
    match prepare req with
    | Error response -> response
    | Ok p -> (
      match handle_prepared ?deadline ?on_progress t p with
      | Error response -> response
      | Ok (stored, cache_hit) ->
        Protocol.Ok_response
          (finalize p stored ~cache_hit ~coalesced:false
             ~time:(Unix.gettimeofday () -. start)))

(* ---- the JSON-lines loop ------------------------------------------ *)

(* Best-effort id recovery for malformed requests, so the client can
   still correlate the error line. *)
let id_of_line line =
  match Obs.Json.parse line with
  | Ok json ->
    Option.value ~default:""
      (Option.bind (Obs.Json.member "id" json) Obs.Json.string_value)
  | Error _ -> ""

let serve ?(max_request_bytes = Protocol.default_max_request_bytes) t ic oc =
  let out_mutex = Mutex.create () in
  let respond response =
    let line = Protocol.response_to_string response in
    Mutex.lock out_mutex;
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Mutex.unlock out_mutex
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line when String.trim line = "" -> loop ()
    | line ->
      (match Protocol.parse_request ~max_bytes:max_request_bytes line with
      | Error msg -> respond (err (id_of_line line) Protocol.Bad_request msg)
      | Ok req -> (
        let deadline = Unix.gettimeofday () +. req.timeout in
        let on_progress =
          if not req.Protocol.stream then None
          else
            Some
              (fun ~block ~iteration ~cost ->
                respond
                  (Protocol.Progress_response
                     {
                       prog_id = req.Protocol.id;
                       prog_block = block;
                       prog_iteration = iteration;
                       prog_cost = cost;
                     }))
        in
        let job () =
          let response =
            if Unix.gettimeofday () > deadline then
              err req.id Protocol.Deadline_exceeded
                "request expired while queued"
            else
              try handle ~deadline ?on_progress t req
              with e ->
                err req.id Protocol.Routing_failed (Printexc.to_string e)
          in
          respond response
        in
        match Pool.submit t.pool job with
        | Pool.Accepted -> ()
        | Pool.Overloaded ->
          respond
            (err req.id Protocol.Overloaded
               (Printf.sprintf "queue full (capacity %d)"
                  (Pool.capacity t.pool)))));
      loop ()
  in
  loop ();
  shutdown t;
  save_cache t
