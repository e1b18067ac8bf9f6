(* The builtin engine catalogue and name table.

   Every routing path in the repo is wrapped behind the [Registry.t]
   contract: the MaxSAT reference router (sliced; a seed becomes
   [Router.config.placement = Fixed]), the three heuristic baselines, the
   hybrid MaxSAT-mapping + SABRE pipeline, [swap_strategy], and [qap]
   (SABRE from the {!Satmap.Placement} quadratic-assignment map).
   Callers go through [find]/[all]/[names]; [register] is the extension
   point. *)

let seeded placement cfg =
  match (cfg : Registry.config).initial with
  | Some a -> Array.copy a
  | None -> placement ()

let maxsat_route device circuit (cfg : Registry.config) =
  let config =
    {
      Satmap.Router.default_config with
      timeout = cfg.timeout;
      n_swaps = cfg.n_swaps;
      objective = cfg.objective;
      placement =
        (match cfg.initial with
        | Some a -> Satmap.Router.Fixed a
        | None -> Satmap.Router.default_config.placement);
      (* the registry wrapper verifies uniformly *)
      verify = false;
    }
  in
  match
    Satmap.Router.route_sliced ~config ~slice_size:cfg.slice_size device circuit
  with
  | Satmap.Router.Routed (routed, stats) ->
    Ok (routed, stats.Satmap.Router.proved_optimal)
  | Satmap.Router.Failed msg -> Error msg

let sabre_route device circuit (cfg : Registry.config) =
  let config = { Heuristics.Sabre.default_config with seed = cfg.seed } in
  let routed =
    match cfg.initial with
    | Some initial -> Heuristics.Sabre.route_from ~config ~initial device circuit
    | None -> Heuristics.Sabre.route ~config device circuit
  in
  Ok (routed, false)

let astar_route device circuit (cfg : Registry.config) =
  let config = { Heuristics.Astar_route.default_config with seed = cfg.seed } in
  Ok (Heuristics.Astar_route.route ~config ?initial:cfg.initial device circuit, false)

let tket_route device circuit (cfg : Registry.config) =
  let config = { Heuristics.Tket_route.default_config with seed = cfg.seed } in
  Ok (Heuristics.Tket_route.route ~config ?initial:cfg.initial device circuit, false)

let hybrid_route device circuit (cfg : Registry.config) =
  let config =
    {
      Heuristics.Hybrid.timeout = cfg.timeout;
      verify = false;
      sabre = { Heuristics.Sabre.default_config with seed = cfg.seed };
    }
  in
  Ok (Heuristics.Hybrid.route ~config device circuit, false)

let qap_place device circuit (cfg : Registry.config) =
  Satmap.Placement.place ~seed:cfg.seed device circuit

let qap_route device circuit (cfg : Registry.config) =
  let initial = seeded (fun () -> qap_place device circuit cfg) cfg in
  let config = { Heuristics.Sabre.default_config with seed = cfg.seed } in
  Ok (Heuristics.Sabre.route_from ~config ~initial device circuit, false)

let no_caps =
  {
    Registry.optimal = false;
    anytime = false;
    commuting_only = false;
    reorders_commuting = false;
    accepts_seed = false;
    places = false;
  }

let builtins : Registry.t list =
  [
    {
      name = "maxsat";
      description =
        "the paper's sliced MaxSAT router (locally optimal; globally \
         optimal when one block suffices)";
      caps = { no_caps with optimal = true; anytime = true; accepts_seed = true };
      route = maxsat_route;
      place = None;
    };
    {
      name = "sabre";
      description = "SABRE bidirectional heuristic mapping + routing";
      caps = { no_caps with accepts_seed = true };
      route = sabre_route;
      place = None;
    };
    {
      name = "astar";
      description = "MQT-style per-layer A* swap search";
      caps = { no_caps with accepts_seed = true };
      route = astar_route;
      place = None;
    };
    {
      name = "tket";
      description = "tket-style greedy placement + lookahead swap selection";
      caps = { no_caps with accepts_seed = true };
      route = tket_route;
      place = None;
    };
    {
      name = "hybrid";
      description = "MaxSAT optimal initial mapping + SABRE routing";
      caps = no_caps;
      route = hybrid_route;
      place = None;
    };
    {
      name = "swap_strategy";
      description =
        "SAT subgraph-isomorphism mapping + swap-strategy layers for \
         commuting (Cz/Rzz) circuits";
      caps =
        {
          no_caps with
          commuting_only = true;
          reorders_commuting = true;
          accepts_seed = true;
        };
      route = Swap_strategy.route;
      place = None;
    };
    {
      name = "qap";
      description =
        "quadratic-assignment placement with tabu search, routed by SABRE";
      caps = { no_caps with accepts_seed = true; places = true };
      route = qap_route;
      place = Some qap_place;
    };
  ]

let table : (string, Registry.t) Hashtbl.t = Hashtbl.create 16

let () = List.iter (fun e -> Hashtbl.replace table e.Registry.name e) builtins

let register e = Hashtbl.replace table e.Registry.name e
let find name = Hashtbl.find_opt table name

let all () =
  List.sort
    (fun a b -> compare a.Registry.name b.Registry.name)
    (Hashtbl.fold (fun _ e acc -> e :: acc) table [])

let names () = List.map (fun e -> e.Registry.name) (all ())

let route ~engine device circuit config =
  match find engine with
  | None ->
    Error
      (Printf.sprintf "unknown engine %S (available: %s)" engine
         (String.concat ", " (names ())))
  | Some e -> Registry.run e device circuit config
