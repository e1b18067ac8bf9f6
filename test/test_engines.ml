(* Engine-subsystem tests: QAOA graph generators, commuting-layer
   construction, the verifier's Z-diagonal commuting relaxation, QAP
   placement validity, the registry contract, and the cross-engine
   differential harness on a random instance corpus. *)

let rng_seed = 0xEA51

(* ------------------------------------------------------------------ *)
(* Qaoa.Graphs *)

let canonical_edges g =
  let edges = Qaoa.Graphs.edges g in
  let n = Qaoa.Graphs.n_vertices g in
  List.iter
    (fun (a, b) ->
      if not (0 <= a && a < b && b < n) then
        Alcotest.failf "edge (%d, %d) is not canonical for n = %d" a b n)
    edges;
  let sorted = List.sort_uniq compare edges in
  Alcotest.(check int) "edges deduplicated" (List.length edges)
    (List.length sorted)

let test_random_regular () =
  let rng = Rng.create rng_seed in
  List.iter
    (fun (n, degree) ->
      let g = Qaoa.Graphs.random_regular rng ~n ~degree in
      Alcotest.(check int) "vertex count" n (Qaoa.Graphs.n_vertices g);
      Alcotest.(check bool)
        (Printf.sprintf "%d-regular on %d vertices" degree n)
        true
        (Qaoa.Graphs.is_regular g degree);
      Alcotest.(check int) "edge count = n*d/2" (n * degree / 2)
        (Qaoa.Graphs.n_edges g);
      canonical_edges g)
    [ (4, 3); (6, 3); (8, 3); (10, 4); (6, 2) ]

let test_random_er () =
  let g0 = Qaoa.Graphs.random_er (Rng.create 7) ~n:8 ~p:0.4 in
  let g1 = Qaoa.Graphs.random_er (Rng.create 7) ~n:8 ~p:0.4 in
  Alcotest.(check bool) "equal seeds draw equal graphs" true
    (Qaoa.Graphs.edges g0 = Qaoa.Graphs.edges g1);
  canonical_edges g0;
  let full = Qaoa.Graphs.random_er (Rng.create 7) ~n:6 ~p:1.0 in
  Alcotest.(check int) "p = 1 gives the complete graph" 15
    (Qaoa.Graphs.n_edges full);
  Alcotest.(check bool) "complete graph is connected" true
    (Qaoa.Graphs.connected full);
  let empty = Qaoa.Graphs.random_er (Rng.create 7) ~n:6 ~p:0.0 in
  Alcotest.(check int) "p = 0 gives no edges" 0 (Qaoa.Graphs.n_edges empty);
  Alcotest.(check bool) "edgeless graph is disconnected" false
    (Qaoa.Graphs.connected empty)

let test_of_edges () =
  let g = Qaoa.Graphs.of_edges ~n:4 [ (1, 0); (0, 1); (2, 3); (3, 2) ] in
  Alcotest.(check (list (pair int int)))
    "canonicalised and deduplicated"
    [ (0, 1); (2, 3) ]
    (Qaoa.Graphs.edges g);
  Alcotest.(check bool) "two components" false (Qaoa.Graphs.connected g);
  let path = Qaoa.Graphs.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check bool) "path is connected" true (Qaoa.Graphs.connected path);
  Alcotest.check_raises "self-loop rejected"
    (Invalid_argument "Graphs.of_edges: self-loop") (fun () ->
      ignore (Qaoa.Graphs.of_edges ~n:4 [ (2, 2) ]));
  (match Qaoa.Graphs.of_edges ~n:3 [ (0, 5) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range endpoint accepted")

(* ------------------------------------------------------------------ *)
(* Build.commuting_layers *)

let check_layering g =
  let layers = Qaoa.Build.commuting_layers g in
  let flat = List.concat layers in
  Alcotest.(check (list (pair int int)))
    "every edge appears exactly once"
    (List.sort compare (Qaoa.Graphs.edges g))
    (List.sort compare flat);
  List.iter
    (fun layer ->
      let touched = List.concat_map (fun (a, b) -> [ a; b ]) layer in
      Alcotest.(check int) "layer is a matching"
        (List.length touched)
        (List.length (List.sort_uniq compare touched)))
    layers

let test_commuting_layers () =
  let rng = Rng.create rng_seed in
  check_layering (Qaoa.Graphs.random_3_regular rng 8);
  check_layering (Qaoa.Graphs.random_er rng ~n:9 ~p:0.5);
  check_layering (Qaoa.Graphs.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ]);
  Alcotest.(check (list (list (pair int int))))
    "edgeless graph has no layers" []
    (Qaoa.Build.commuting_layers (Qaoa.Graphs.of_edges ~n:4 []))

(* ------------------------------------------------------------------ *)
(* Verifier: Z-diagonal commuting relaxation *)

let routed_on_linear3 gates =
  let device = Arch.Topologies.linear 3 in
  let identity = Satmap.Mapping.identity ~n_log:3 ~n_phys:3 in
  Satmap.Routed.create ~device ~initial:identity ~final:identity
    ~circuit:(Quantum.Circuit.create ~n_qubits:3 gates)

let test_verifier_commuting_reorder () =
  let rzz a b = Quantum.Gate.two (Quantum.Gate.Rzz 0.5) a b in
  let original = Quantum.Circuit.create ~n_qubits:3 [ rzz 0 1; rzz 1 2 ] in
  (* Reordered Rzz gates sharing qubit 1: accepted, they commute. *)
  Alcotest.(check bool) "reordered Rzz verifies" true
    (Satmap.Verifier.is_valid ~original (routed_on_linear3 [ rzz 1 2; rzz 0 1 ]));
  (* Program order still verifies too. *)
  Alcotest.(check bool) "in-order Rzz verifies" true
    (Satmap.Verifier.is_valid ~original (routed_on_linear3 [ rzz 0 1; rzz 1 2 ]))

let test_verifier_cx_reorder_rejected () =
  let cx a b = Quantum.Gate.two Quantum.Gate.Cx a b in
  let original = Quantum.Circuit.create ~n_qubits:3 [ cx 0 1; cx 1 2 ] in
  Alcotest.(check bool) "reordered CX is rejected" false
    (Satmap.Verifier.is_valid ~original (routed_on_linear3 [ cx 1 2; cx 0 1 ]));
  (* A Z-diagonal gate may not jump over a pending non-diagonal one. *)
  let rzz a b = Quantum.Gate.two (Quantum.Gate.Rzz 0.5) a b in
  let mixed = Quantum.Circuit.create ~n_qubits:3 [ cx 0 1; rzz 1 2 ] in
  Alcotest.(check bool) "Rzz cannot jump a pending CX" false
    (Satmap.Verifier.is_valid ~original:mixed
       (routed_on_linear3 [ rzz 1 2; cx 0 1 ]))

(* ------------------------------------------------------------------ *)
(* QAP placement *)

let test_qap_place_valid () =
  let rng = Rng.create rng_seed in
  for seed = 1 to 10 do
    let n = 3 + Rng.int rng 3 in
    let circuit =
      Workloads.Generators.local_random rng ~n ~gates:(4 + Rng.int rng 8)
        ~locality:0.7
    in
    let device = Arch.Topologies.grid ~rows:2 ~cols:3 in
    let placement = Satmap.Placement.place ~seed device circuit in
    Alcotest.(check int) "one slot per logical qubit" n
      (Array.length placement);
    Array.iter
      (fun p ->
        if p < 0 || p >= Arch.Device.n_qubits device then
          Alcotest.failf "placement slot %d out of range" p)
      placement;
    let sorted = List.sort_uniq compare (Array.to_list placement) in
    Alcotest.(check int) "placement is injective" n (List.length sorted)
  done

(* ------------------------------------------------------------------ *)
(* Registry contract *)

let test_registry_catalogue () =
  let names = Engines.Catalog.names () in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "catalogue lists %s" expected)
        true (List.mem expected names))
    [ "maxsat"; "sabre"; "astar"; "tket"; "hybrid"; "swap_strategy"; "qap" ];
  Alcotest.(check bool) "names are sorted" true
    (names = List.sort compare names);
  Alcotest.(check bool) "unknown engine is absent" true
    (Engines.Catalog.find "bogus" = None);
  let device = Arch.Topologies.linear 4 in
  let circuit = Workloads.Generators.ghz 3 in
  match
    Engines.Catalog.route ~engine:"bogus" device circuit
      Engines.Registry.default_config
  with
  | Ok _ -> Alcotest.fail "unknown engine routed"
  | Error msg ->
    Alcotest.(check bool) "error lists the catalogue" true
      (List.for_all
         (fun n ->
           let nl = String.length n and ml = String.length msg in
           let rec scan i =
             i + nl <= ml && (String.sub msg i nl = n || scan (i + 1))
           in
           scan 0)
         names)

(* ------------------------------------------------------------------ *)
(* Differential corpus: >= 100 random instances, every engine, every
   output verified (Differential.run forces verify = true). *)

let test_differential_corpus () =
  let rng = Rng.create 4242 in
  let violations = ref [] in
  let swap_strategy_solved = ref 0 in
  let maxsat_solved = ref 0 in
  for i = 1 to 108 do
    let device =
      if i mod 3 = 0 then Arch.Topologies.grid ~rows:2 ~cols:3
      else Arch.Topologies.linear 6
    in
    let circuit =
      if i mod 2 = 0 then
        (* Commuting family: QAOA over a random ER graph, so the
           swap_strategy engine participates. *)
        let g = Qaoa.Graphs.random_er rng ~n:(3 + Rng.int rng 3) ~p:0.6 in
        Qaoa.Build.circuit ~cycles:1 g
      else
        Workloads.Generators.local_random rng ~n:(3 + Rng.int rng 3)
          ~gates:(4 + Rng.int rng 8) ~locality:0.7
    in
    let report = Engines.Differential.run device circuit in
    violations := report.violations @ !violations;
    List.iter
      (fun (r : Engines.Differential.row) ->
        match (r.r_engine, r.r_result) with
        | "swap_strategy", Ok _ -> incr swap_strategy_solved
        | "maxsat", Ok _ -> incr maxsat_solved
        | _ -> ())
      report.rows
  done;
  Alcotest.(check (list string)) "no cross-engine violations" [] !violations;
  Alcotest.(check bool) "maxsat solved most of the corpus" true
    (!maxsat_solved > 90);
  Alcotest.(check bool) "swap_strategy solved the commuting family" true
    (!swap_strategy_solved > 40)

let () =
  Alcotest.run "engines"
    [
      ( "graphs",
        [
          Alcotest.test_case "random_regular invariants" `Quick
            test_random_regular;
          Alcotest.test_case "random_er invariants" `Quick test_random_er;
          Alcotest.test_case "of_edges canonicalisation" `Quick test_of_edges;
        ] );
      ( "layers",
        [
          Alcotest.test_case "commuting layers partition the edges" `Quick
            test_commuting_layers;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "commuting reorder accepted" `Quick
            test_verifier_commuting_reorder;
          Alcotest.test_case "non-commuting reorder rejected" `Quick
            test_verifier_cx_reorder_rejected;
        ] );
      ( "qap",
        [ Alcotest.test_case "placement validity" `Quick test_qap_place_valid ] );
      ( "registry",
        [ Alcotest.test_case "catalogue contract" `Quick test_registry_catalogue ] );
      ( "differential",
        [
          Alcotest.test_case "108-instance corpus" `Quick
            test_differential_corpus;
        ] );
    ]
