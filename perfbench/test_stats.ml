(* Tests for the benchmark's metric helpers: percentiles and the tail
   rule, the failed-request SWAP charge, and span self time. *)

let ev ?(tid = 0) name ts dur : Obs.Trace.event =
  { name; ph = `Complete; ts_us = ts; dur_us = dur; tid; args = [] }

let close = Alcotest.float 1e-9

let test_percentile () =
  let xs = List.init 100 (fun i -> float (100 - i)) in
  Alcotest.check close "p50 of 1..100" 50. (Stats.percentile 50. xs);
  Alcotest.check close "p90 of 1..100" 90. (Stats.percentile 90. xs);
  Alcotest.check close "p100 is the max" 100. (Stats.percentile 100. xs);
  Alcotest.check close "single sample" 7. (Stats.percentile 99. [ 7. ]);
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentile 50. []))

let test_tail_percentile () =
  let tail n = Stats.tail_percentile n in
  Alcotest.(check (option (float 0.))) "19 samples: no tail" None (tail 19);
  Alcotest.(check (option (float 0.))) "20 samples: median" (Some 50.) (tail 20);
  Alcotest.(check (option (float 0.))) "39 samples: p70" (Some 70.) (tail 39);
  Alcotest.(check (option (float 0.))) "52 samples: p80" (Some 80.) (tail 52);
  Alcotest.(check (option (float 0.))) "72 samples: p85" (Some 85.) (tail 72);
  Alcotest.(check (option (float 0.))) "100 samples: p90" (Some 90.) (tail 100);
  Alcotest.(check (option (float 0.))) "1000 samples: p99" (Some 99.) (tail 1000);
  Alcotest.(check (option (float 0.))) "10000 samples: p99.9" (Some 99.9)
    (tail 10000);
  (* The chosen level always leaves at least ten samples beyond it, and
     the next level up never does. *)
  for n = 20 to 3000 do
    match tail n with
    | None -> Alcotest.fail "tail missing"
    | Some p ->
      if Stats.beyond p n < 10 then Alcotest.failf "n=%d p=%g" n p;
      List.iter
        (fun q -> if q > p && Stats.beyond q n >= 10 then Alcotest.failf "n=%d" n)
        Stats.ladder
  done

let test_tail_allows () =
  let allows p n = Stats.tail_allows p n in
  Alcotest.(check bool) "p85 at 72 samples: 10 beyond" true (allows 85. 72);
  Alcotest.(check bool) "p85 at 63 samples: 9 beyond" false (allows 85. 63);
  Alcotest.(check bool) "p99 at 1200 samples: 12 beyond" true (allows 99. 1200);
  Alcotest.(check bool) "p99 at 900 samples: 9 beyond" false (allows 99. 900);
  Alcotest.(check bool) "too few samples for any tail" false (allows 50. 19);
  (* Agrees with counting the samples beyond, at every ladder level. *)
  for n = 1 to 3000 do
    List.iter
      (fun p ->
        if allows p n <> (Stats.beyond p n >= 10) then
          Alcotest.failf "n=%d p=%g" n p)
      Stats.ladder
  done

let test_failure_charge () =
  Alcotest.(check int) "tokyo: 3 per gate" 300
    (Stats.failure_charge ~diameter:4 ~two_qubit:100);
  Alcotest.(check int) "routed: its own swaps" 12
    (Stats.swaps_or_charge ~diameter:4 ~two_qubit:100 (Some 12));
  Alcotest.(check int) "failed: the charge" 300
    (Stats.swaps_or_charge ~diameter:4 ~two_qubit:100 None);
  (* Any routing of a circuit is cheaper than its charge, so a fix that
     turns a failure into a routing lowers the total. *)
  Alcotest.(check bool) "charge exceeds a real routing" true
    (Stats.failure_charge ~diameter:4 ~two_qubit:10 > 0)

let find name totals =
  match List.assoc_opt name totals with
  | Some t -> t
  | None -> Alcotest.failf "no span %s" name

let test_self_times () =
  (* route [0,100] > block [10,60] > solve [20,50]; block [60,90] on
     the same domain; a solve on another domain overlapping in time is
     not a child. *)
  let events =
    [
      ev "route" 0. 100.;
      ev "block" 10. 50.;
      ev "solve" 20. 30.;
      ev "block" 60. 30.;
      ev ~tid:1 "solve" 0. 95.;
      { (ev "mark" 15. 0.) with ph = `Instant };
    ]
  in
  let t = Stats.self_times events in
  let route = find "route" t and block = find "block" t and solve = find "solve" t in
  Alcotest.check close "route self" 20e-6 route.self_s;
  Alcotest.check close "block total" 80e-6 block.total_s;
  Alcotest.check close "block self" 50e-6 block.self_s;
  Alcotest.(check int) "block count" 2 block.count;
  Alcotest.check close "solve self is its duration" 125e-6 solve.self_s;
  Alcotest.(check bool) "instants ignored" false (List.mem_assoc "mark" t)

let test_self_times_siblings () =
  (* Back-to-back siblings sharing an end/start instant stay siblings. *)
  let t = Stats.self_times [ ev "a" 0. 10.; ev "b" 0. 5.; ev "b" 5. 5. ] in
  Alcotest.check close "parent self" 0. (find "a" t).self_s;
  Alcotest.check close "children self" 10e-6 (find "b" t).self_s

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail percentile" `Quick test_tail_percentile;
          Alcotest.test_case "tail allows" `Quick test_tail_allows;
          Alcotest.test_case "failure charge" `Quick test_failure_charge;
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "self times siblings" `Quick
            test_self_times_siblings;
        ] );
    ]
