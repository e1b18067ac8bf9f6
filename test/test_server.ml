(* lib/server: consistent-hash sharding, the single-flight table,
   admission control, and the socket server end-to-end over an
   ephemeral Unix-domain socket. *)

module P = Service.Protocol

(* ------------------------------------------------------------------ *)
(* Shard *)

let test_shard_deterministic () =
  let a = Serving.Shard.create 4 in
  let b = Serving.Shard.create 4 in
  for i = 0 to 99 do
    let key = Printf.sprintf "key-%d" i in
    Alcotest.(check int)
      "same owner from two rings" (Serving.Shard.owner a key)
      (Serving.Shard.owner b key)
  done

let test_shard_single_ring_owns_all () =
  let ring = Serving.Shard.create 1 in
  for i = 0 to 49 do
    Alcotest.(check int)
      "1-shard ring owns everything" 0
      (Serving.Shard.owner ring (Printf.sprintf "k%d" i))
  done

let test_shard_owners_in_range_and_spread () =
  let n = 3 in
  let ring = Serving.Shard.create n in
  let counts = Array.make n 0 in
  for i = 0 to 299 do
    let o = Serving.Shard.owner ring (Printf.sprintf "key-%d" i) in
    Alcotest.(check bool) "owner in range" true (o >= 0 && o < n);
    counts.(o) <- counts.(o) + 1
  done;
  (* 64 vnodes/shard: no shard should be starved on 300 random keys. *)
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d got some keys" i)
        true (c > 0))
    counts

let test_shard_parse_spec () =
  (match Serving.Shard.parse_spec "0/2" with
  | Ok (0, 2) -> ()
  | Ok (i, n) -> Alcotest.fail (Printf.sprintf "parsed 0/2 as %d/%d" i n)
  | Error e -> Alcotest.fail e);
  (match Serving.Shard.parse_spec "3/4" with
  | Ok (3, 4) -> ()
  | _ -> Alcotest.fail "3/4 should parse");
  (* The degenerate single-shard deployment is legal... *)
  (match Serving.Shard.parse_spec "0/1" with
  | Ok (0, 1) -> ()
  | _ -> Alcotest.fail "0/1 should parse");
  (* ...but an index must stay strictly below the count. *)
  List.iter
    (fun bad ->
      match Serving.Shard.parse_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should be rejected" bad))
    [
      "2/2"; "1/1"; "4/4"; "-1/2"; "-1/4"; "0/0"; "x/2"; "abc/2"; "1"; "1/";
      "2/"; "/2"; "/4"; "1/2/3"; "";
    ]

let test_shard_invalid_count () =
  match Serving.Shard.create 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "create 0 should raise"

(* ------------------------------------------------------------------ *)
(* Single_flight *)

let test_single_flight_roles () =
  let t = Serving.Single_flight.create () in
  let results : (Serving.Single_flight.role * int) list ref = ref [] in
  let cb role v = results := (role, v) :: !results in
  Alcotest.(check bool)
    "first join leads" true
    (Serving.Single_flight.join t "k" cb = Serving.Single_flight.Leader);
  Alcotest.(check bool)
    "second join follows" true
    (Serving.Single_flight.join t "k" cb = Serving.Single_flight.Follower);
  Alcotest.(check bool)
    "distinct key leads independently" true
    (Serving.Single_flight.join t "other" cb = Serving.Single_flight.Leader);
  Alcotest.(check int) "two keys in flight" 2 (Serving.Single_flight.in_flight t);
  Alcotest.(check int) "two callbacks served" 2
    (Serving.Single_flight.publish t "k" 7);
  Alcotest.(check int) "one key left" 1 (Serving.Single_flight.in_flight t);
  (* Join order: leader's callback first. *)
  (match List.rev !results with
  | [ (Serving.Single_flight.Leader, 7); (Serving.Single_flight.Follower, 7) ]
    -> ()
  | _ -> Alcotest.fail "callbacks fired in the wrong order or roles");
  (* Publishing an unjoined key is a harmless no-op. *)
  Alcotest.(check int) "unjoined publish serves 0" 0
    (Serving.Single_flight.publish t "k" 8);
  (* A key published and re-joined elects a fresh leader. *)
  Alcotest.(check bool)
    "re-join after publish leads again" true
    (Serving.Single_flight.join t "k" cb = Serving.Single_flight.Leader)

let test_single_flight_progress () =
  let t = Serving.Single_flight.create () in
  let seen = ref [] in
  let _ =
    Serving.Single_flight.join t "k"
      ~on_progress:(fun ev -> seen := ev :: !seen)
      (fun _ _ -> ())
  in
  let _ = Serving.Single_flight.join t "k" (fun _ _ -> ()) in
  Serving.Single_flight.progress t "k" (0, 1, 5);
  Serving.Single_flight.progress t "k" (0, 2, 3);
  (* Only the subscribed joiner sees events. *)
  Alcotest.(check (list (triple int int int)))
    "events in order" [ (0, 1, 5); (0, 2, 3) ] (List.rev !seen);
  ignore (Serving.Single_flight.publish t "k" 0);
  Serving.Single_flight.progress t "k" (1, 1, 1);
  Alcotest.(check int) "no events after publish" 2 (List.length !seen)

(* ------------------------------------------------------------------ *)
(* Admission *)

let test_admission_cold_admits () =
  let pool = Service.Pool.create ~name:"test.adm_a" ~workers:1 ~capacity:4 () in
  let adm = Serving.Admission.create () in
  (match
     Serving.Admission.check adm ~pool ~now:100.0 ~deadline:100.5
   with
  | Serving.Admission.Admit -> ()
  | Serving.Admission.Reject _ -> Alcotest.fail "cold server rejected");
  Service.Pool.shutdown pool

let test_admission_expired_rejected () =
  let pool = Service.Pool.create ~name:"test.adm_b" ~workers:1 ~capacity:4 () in
  let adm = Serving.Admission.create () in
  (match Serving.Admission.check adm ~pool ~now:101.0 ~deadline:100.0 with
  | Serving.Admission.Reject (P.Deadline_exceeded, _) -> ()
  | Serving.Admission.Reject (code, _) ->
    Alcotest.fail ("wrong code: " ^ P.error_code_name code)
  | Serving.Admission.Admit -> Alcotest.fail "expired request admitted");
  Service.Pool.shutdown pool

let test_admission_predicted_late_rejected () =
  (* Park the single worker and queue a job so [pending] > 0, then make
     the EWMA say each job takes 10s: a 1s-away deadline cannot be met. *)
  let pool = Service.Pool.create ~name:"test.adm_c" ~workers:1 ~capacity:8 () in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let started = Atomic.make false in
  (match
     Service.Pool.submit pool (fun () ->
         Atomic.set started true;
         Mutex.lock gate;
         Mutex.unlock gate)
   with
  | Service.Pool.Accepted -> ()
  | Service.Pool.Overloaded -> Alcotest.fail "empty pool rejected");
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  (match Service.Pool.submit pool (fun () -> ()) with
  | Service.Pool.Accepted -> ()
  | Service.Pool.Overloaded -> Alcotest.fail "second job rejected");
  let adm = Serving.Admission.create ~alpha:1.0 () in
  Serving.Admission.observe adm 10.0;
  Alcotest.(check (float 0.001)) "estimate tracks" 10.0
    (Serving.Admission.estimate adm);
  let now = Unix.gettimeofday () in
  (match Serving.Admission.check adm ~pool ~now ~deadline:(now +. 1.0) with
  | Serving.Admission.Reject (P.Overloaded, _) -> ()
  | Serving.Admission.Reject (code, _) ->
    Alcotest.fail ("wrong code: " ^ P.error_code_name code)
  | Serving.Admission.Admit -> Alcotest.fail "hopeless request admitted");
  (* A generous deadline is still admitted under the same load. *)
  (match Serving.Admission.check adm ~pool ~now ~deadline:(now +. 120.0) with
  | Serving.Admission.Admit -> ()
  | Serving.Admission.Reject _ -> Alcotest.fail "feasible request rejected");
  Mutex.unlock gate;
  Service.Pool.shutdown pool

let test_admission_ewma_and_queue_full () =
  (* The EWMA blends with factor alpha and starts cold at 0; queue-full
     rejections from the pool are folded into the admission counters via
     [note_queue_full]. *)
  let adm = Serving.Admission.create ~alpha:0.5 () in
  Alcotest.(check (float 1e-9)) "cold estimate is 0" 0.0
    (Serving.Admission.estimate adm);
  Serving.Admission.observe adm 4.0;
  Alcotest.(check (float 1e-9)) "first observation seeds the EWMA" 4.0
    (Serving.Admission.estimate adm);
  Serving.Admission.observe adm 2.0;
  Alcotest.(check (float 1e-9)) "later observations blend by alpha" 3.0
    (Serving.Admission.estimate adm);
  let c = Obs.Metrics.counter "server.admission.rejected_queue_full" in
  let before = Obs.Metrics.value c in
  Serving.Admission.note_queue_full adm;
  Serving.Admission.note_queue_full adm;
  Alcotest.(check int) "queue-full rejections counted" (before + 2)
    (Obs.Metrics.value c)

(* ------------------------------------------------------------------ *)
(* Server end-to-end over an ephemeral Unix socket *)

let with_server f =
  let engine = Service.Engine.create ~workers:1 () in
  let path = Filename.temp_file "test_server" ".sock" in
  Sys.remove path;
  let server =
    Serving.Server.start engine (Serving.Server.Unix_path path)
  in
  Fun.protect
    ~finally:(fun () ->
      Serving.Server.stop server;
      Service.Engine.shutdown engine)
    (fun () -> f server)

let send oc req =
  output_string oc (P.request_to_string req);
  output_char oc '\n';
  flush oc

let recv ic =
  match P.parse_response (input_line ic) with
  | Ok r -> r
  | Error e -> Alcotest.fail ("response does not parse: " ^ e)
  | exception End_of_file -> Alcotest.fail "connection closed unexpectedly"

let test_server_roundtrip () =
  with_server (fun server ->
      let conn = Serving.Server.connect (Serving.Server.address server) in
      let req =
        {
          P.default_request with
          id = "e2e";
          qasm = "OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[1];\ncx q[1],q[2];";
          device = "linear-4";
          timeout = 30.0;
        }
      in
      send (snd conn) req;
      (match recv (fst conn) with
      | P.Ok_response p ->
        Alcotest.(check string) "id echoed" "e2e" p.P.ok_id;
        Alcotest.(check bool) "not coalesced" false p.P.ok_coalesced
      | P.Error_response { code; message; _ } ->
        Alcotest.fail (P.error_code_name code ^ ": " ^ message)
      | P.Progress_response _ -> Alcotest.fail "unsolicited progress line");
      (* Same circuit again on the same connection: cache hit. *)
      send (snd conn) { req with id = "e2e-2" };
      (match recv (fst conn) with
      | P.Ok_response p ->
        Alcotest.(check bool) "second request hits" true p.P.ok_cache_hit
      | _ -> Alcotest.fail "second request failed");
      Serving.Server.disconnect conn)

let test_server_bad_request_keeps_connection () =
  with_server (fun server ->
      let conn = Serving.Server.connect (Serving.Server.address server) in
      let ic, oc = conn in
      output_string oc "this is not json\n";
      flush oc;
      (match recv ic with
      | P.Error_response { code = P.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "garbage line not answered with bad_request");
      send oc
        {
          P.default_request with
          id = "after-garbage";
          qasm = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];";
          device = "linear-4";
          timeout = 30.0;
        };
      (match recv ic with
      | P.Ok_response p ->
        Alcotest.(check string) "still serving" "after-garbage" p.P.ok_id
      | _ -> Alcotest.fail "connection unusable after a garbage line");
      Serving.Server.disconnect conn)

(* Regression for the acceptor-shutdown fix: [stop] flips an atomic
   stopping flag with [exchange], so a second stop — here the explicit
   one plus [with_server]'s finally — is a no-op instead of a double
   close/join. *)
let test_server_stop_idempotent () =
  with_server (fun server ->
      let conn = Serving.Server.connect (Serving.Server.address server) in
      Serving.Server.disconnect conn;
      Serving.Server.stop server;
      Serving.Server.stop server)

(* Connections that open and close at once, from a second thread, next to
   a busy one in the same process.  Each descriptor must be closed exactly
   once: a second close, by the server's handler or by [disconnect], can
   land on a number the kernel has just handed to another socket here,
   and the busy connection then fails with EBADF or loses its peer. *)
let test_server_idle_connections_close_once () =
  with_server (fun server ->
      let addr = Serving.Server.address server in
      let busy = Serving.Server.connect addr in
      let stop_idle = Atomic.make false in
      let idle_error = Atomic.make None in
      let idle =
        Thread.create
          (fun () ->
            try
              while not (Atomic.get stop_idle) do
                Serving.Server.disconnect (Serving.Server.connect addr)
              done
            with e -> Atomic.set idle_error (Some (Printexc.to_string e)))
          ()
      in
      let req =
        {
          P.default_request with
          qasm = "OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[1];\ncx q[1],q[2];";
          device = "linear-4";
          timeout = 30.0;
        }
      in
      let busy_result =
        try
          for i = 1 to 200 do
            let id = Printf.sprintf "busy-%d" i in
            send (snd busy) { req with id };
            match recv (fst busy) with
            | P.Ok_response p -> Alcotest.(check string) "id echoed" id p.P.ok_id
            | _ -> Alcotest.fail "busy request failed"
          done;
          None
        with Sys_error msg | Unix.Unix_error (_, msg, _) -> Some msg
      in
      Atomic.set stop_idle true;
      Thread.join idle;
      Serving.Server.disconnect busy;
      Alcotest.(check (option string)) "busy connection intact" None busy_result;
      Alcotest.(check (option string)) "idle connections intact" None
        (Atomic.get idle_error))

let () =
  Alcotest.run "server"
    [
      ( "shard",
        [
          Alcotest.test_case "ownership is deterministic" `Quick
            test_shard_deterministic;
          Alcotest.test_case "1-shard ring owns all keys" `Quick
            test_shard_single_ring_owns_all;
          Alcotest.test_case "owners in range, all shards used" `Quick
            test_shard_owners_in_range_and_spread;
          Alcotest.test_case "parse_spec" `Quick test_shard_parse_spec;
          Alcotest.test_case "invalid shard count" `Quick
            test_shard_invalid_count;
        ] );
      ( "single-flight",
        [
          Alcotest.test_case "leader/follower roles and publish" `Quick
            test_single_flight_roles;
          Alcotest.test_case "progress fan-out" `Quick
            test_single_flight_progress;
        ] );
      ( "admission",
        [
          Alcotest.test_case "cold server admits" `Quick
            test_admission_cold_admits;
          Alcotest.test_case "expired deadline rejected" `Quick
            test_admission_expired_rejected;
          Alcotest.test_case "predicted-late rejected" `Quick
            test_admission_predicted_late_rejected;
          Alcotest.test_case "EWMA blending and queue-full counter" `Quick
            test_admission_ewma_and_queue_full;
        ] );
      ( "server",
        [
          Alcotest.test_case "socket round-trip and cache hit" `Quick
            test_server_roundtrip;
          Alcotest.test_case "bad request keeps the connection" `Quick
            test_server_bad_request_keeps_connection;
          Alcotest.test_case "stop is idempotent" `Quick
            test_server_stop_idempotent;
          Alcotest.test_case "idle connections close once" `Quick
            test_server_idle_connections_close_once;
        ] );
    ]
