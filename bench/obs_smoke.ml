(* @obs-smoke: end-to-end validation of the observability pipeline.

   Routes a small random circuit through the slice-size portfolio on two
   domains with tracing enabled, then checks the emitted artefacts the
   way a consumer would: the Chrome trace JSON must re-parse with the
   zero-dependency parser, contain spans from all four instrumented
   layers (SAT solver, MaxSAT descent, router blocks, portfolio members),
   show the two members on two domain tracks at the same time, and the
   metrics export must re-parse and account for the work the route just
   did.
   Exit code 1 on any violation, so `dune runtest` fails. *)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("obs-smoke: " ^ msg);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let required_spans =
  [ "sat.solve"; "maxsat.iteration"; "router.block"; "router.portfolio_member" ]

let () =
  let device = Arch.Topologies.tokyo () in
  let rng = Rng.create 7 in
  let circuit =
    Workloads.Generators.local_random rng ~n:8 ~gates:24 ~locality:0.6
  in
  let config =
    {
      Satmap.Router.default_config with
      timeout = 20.0;
      solver_parallelism = 2;
    }
  in
  Obs.Metrics.reset ();
  Obs.Trace.enable ();
  let outcome, _ =
    Satmap.Router.route_portfolio ~config ~sizes:[ 5; 10 ] device circuit
  in
  (match outcome with
  | Satmap.Router.Routed _ -> ()
  | Satmap.Router.Failed msg -> fail "routing failed: %s" msg);
  let trace_path = "obs_smoke_trace.json" in
  Obs.Trace.write_chrome trace_path;
  Obs.Trace.disable ();

  (* The trace must survive a round trip through an ordinary JSON parser. *)
  let json =
    match Obs.Json.parse (read_file trace_path) with
    | Ok j -> j
    | Error e -> fail "trace JSON does not re-parse: %s" e
  in
  let events =
    match Obs.Json.member "traceEvents" json with
    | Some (Obs.Json.List l) -> l
    | Some _ | None -> fail "trace has no traceEvents array"
  in
  if events = [] then fail "trace recorded no events";
  let names =
    List.filter_map
      (fun ev -> Option.bind (Obs.Json.member "name" ev) Obs.Json.string_value)
      events
  in
  List.iter
    (fun span ->
      if not (List.mem span names) then
        fail "span %S missing from the trace (layers present: %s)" span
          (String.concat ", " (List.sort_uniq compare names)))
    required_spans;
  (* Parallel members must land on more than one thread track. *)
  let tids =
    List.sort_uniq compare
      (List.filter_map
         (fun ev -> Option.bind (Obs.Json.member "tid" ev) Obs.Json.number_value)
         events)
  in
  if List.length tids < 2 then
    fail "expected portfolio members on distinct domain tracks, got %d tid(s)"
      (List.length tids);
  (* ... and they must run at the same time, not one after the other. *)
  let members =
    List.filter_map
      (fun ev ->
        match
          ( Option.bind (Obs.Json.member "name" ev) Obs.Json.string_value,
            Option.bind (Obs.Json.member "ts" ev) Obs.Json.number_value,
            Option.bind (Obs.Json.member "dur" ev) Obs.Json.number_value )
        with
        | Some "router.portfolio_member", Some ts, Some dur ->
          Some (ts, ts +. dur)
        | _ -> None)
      events
  in
  (* Sorted by start, two spans overlap iff some span starts before its
     predecessor ends. *)
  let rec overlapping = function
    | (_, e0) :: ((s1, _) :: _ as rest) -> s1 < e0 || overlapping rest
    | [] | [ _ ] -> false
  in
  if not (overlapping (List.sort compare members)) then
    fail "no two of the %d portfolio member spans overlap in time"
      (List.length members);

  (* The metrics export must re-parse and count the route's work. *)
  let metrics_path = "obs_smoke_metrics.json" in
  Obs.Metrics.write_json metrics_path;
  let metrics =
    match Obs.Json.parse (read_file metrics_path) with
    | Ok j -> j
    | Error e -> fail "metrics JSON does not re-parse: %s" e
  in
  let metric name =
    match Option.bind (Obs.Json.member name metrics) Obs.Json.number_value with
    | Some x -> x
    | None -> fail "metric %S missing from %s" name metrics_path
  in
  List.iter
    (fun name ->
      if metric name <= 0.0 then fail "metric %S was never incremented" name)
    [ "sat.solves"; "sat.propagations"; "maxsat.iterations"; "router.blocks" ];
  Printf.printf
    "obs-smoke ok: %d trace events (%d dropped), %d domain tracks, \
     sat.solves=%.0f, router.blocks=%.0f\n"
    (List.length events) (Obs.Trace.dropped ()) (List.length tids)
    (metric "sat.solves") (metric "router.blocks")
