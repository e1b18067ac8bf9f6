(* The socket serving tier: an acceptor thread plus one handler thread
   per connection, all feeding the engine's worker pool.  Threads (not
   domains) carry connections because connection handling is I/O-bound
   line shuffling; the CPU-bound solves stay on the pool's domains.

   Request lifecycle on the handler thread:

     read line -> parse -> Engine.prepare (key!) -> shard check ->
     admission check -> Single_flight.join ->
       Leader:   submit solve to the pool; publish the canonical result
       Follower: nothing — the leader's publish fans our callback in

   Every reply is translated from canonical qubit space per caller
   ([Engine.finalize]), which is what makes coalescing sound: the
   stored payload is caller-agnostic (DESIGN.md §14).

   Shared lifecycle state goes through [Race.Sync] / [Race.Cell]: the
   acceptor used to read a plain [mutable stopping] flag that [stop]
   wrote from another thread with no synchronisation — it is now an
   atomic, and [stop] claims shutdown with a single [exchange] so two
   concurrent stops cannot both run the teardown sequence.  The socket
   threads themselves only get passive (happens-before) coverage: they
   block in real I/O, so they are never run under the controlled
   explorer (DESIGN.md §15). *)

module RA = Race.Sync.Atomic
module RM = Race.Sync.Mutex
module RC = Race.Cell

type address = Unix_path of string | Tcp of string * int

let address_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* One in-flight solve's outcome, in canonical space: payload + whether
   the leader was answered from the request cache. *)
type flight_result =
  (Service.Protocol.ok_payload * bool,
   Service.Protocol.error_code * string)
  result

type t = {
  engine : Service.Engine.t;
  listen_fd : Unix.file_descr;
  bound : address;
  max_request_bytes : int;
  shard : (Shard.t * int) option;
  admission : Admission.t option;
  flights : flight_result Single_flight.t;
  lock : RM.t;
  conns : (Unix.file_descr * Race.Sync.Thread_.t) list RC.t;
  stopping : bool RA.t;
  mutable acceptor : Race.Sync.Thread_.t option;
}

let m_connections = Obs.Metrics.counter "server.connections"
let m_requests = Obs.Metrics.counter "server.requests"
let m_responses = Obs.Metrics.counter "server.responses"
let m_progress = Obs.Metrics.counter "server.progress_events"
let m_wrong_shard = Obs.Metrics.counter "server.wrong_shard"

let err id code message =
  Service.Protocol.Error_response { id; code; message }

let id_of_line line =
  match Obs.Json.parse line with
  | Ok json ->
    Option.value ~default:""
      (Option.bind (Obs.Json.member "id" json) Obs.Json.string_value)
  | Error _ -> ""

(* ---- line framing -------------------------------------------------- *)

(* Like [input_line] but bounded: once the line exceeds [max_bytes] the
   rest is drained and discarded, so one oversized request costs an
   error response, not an unbounded buffer.  A final unterminated
   fragment is still a line (mid-line EOF gets a response before the
   connection closes). *)
let read_line_bounded ic ~max_bytes =
  let buf = Buffer.create 256 in
  let rec go overflowed =
    match input_char ic with
    | exception End_of_file ->
      if overflowed then `Oversized
      else if Buffer.length buf = 0 then `Eof
      else `Line (Buffer.contents buf)
    | '\n' -> if overflowed then `Oversized else `Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= max_bytes then go true
      else begin
        Buffer.add_char buf c;
        go false
      end
  in
  go false

(* ---- one request --------------------------------------------------- *)

let process t ~respond line =
  Obs.Metrics.incr m_requests;
  match Service.Protocol.parse_request ~max_bytes:t.max_request_bytes line with
  | Error msg ->
    respond (err (id_of_line line) Service.Protocol.Bad_request msg)
  | Ok req -> (
    match Service.Engine.prepare req with
    | Error response -> respond response
    | Ok prepared -> (
      let key = Service.Engine.prepared_key prepared in
      let wrong_shard =
        match t.shard with
        | Some (ring, me) ->
          let owner = Shard.owner ring key in
          if owner <> me then Some owner else None
        | None -> None
      in
      match wrong_shard with
      | Some owner ->
        Obs.Metrics.incr m_wrong_shard;
        respond
          (err req.Service.Protocol.id Service.Protocol.Bad_request
             (Printf.sprintf
                "wrong shard: key %s… belongs to shard %d (this is shard %d \
                 of %d)"
                (String.sub key 0 (min 8 (String.length key)))
                owner
                (snd (Option.get t.shard))
                (Shard.n_shards (fst (Option.get t.shard)))))
      | None -> (
        let received = Unix.gettimeofday () in
        let deadline = received +. req.Service.Protocol.timeout in
        let admission_verdict =
          match t.admission with
          | None -> Admission.Admit
          | Some adm ->
            Admission.check adm ~pool:(Service.Engine.pool t.engine)
              ~now:received ~deadline
        in
        match admission_verdict with
        | Admission.Reject (code, message) ->
          respond (err req.Service.Protocol.id code message)
        | Admission.Admit -> (
          (* Per-caller completion: translate the shared canonical
             payload with *this* request's permutation and id.
             [cache_hit] reports whether a solver run was avoided via
             the request cache (the leader's verdict, shared by its
             followers); [coalesced] whether this particular caller
             piggybacked on an in-flight solve. *)
          let on_result role (outcome : flight_result) =
            let response =
              match outcome with
              | Ok (payload, leader_cache_hit) ->
                Service.Protocol.Ok_response
                  (Service.Engine.finalize prepared payload
                     ~cache_hit:leader_cache_hit
                     ~coalesced:(role = Single_flight.Follower)
                     ~time:(Unix.gettimeofday () -. received))
              | Error (code, message) ->
                err req.Service.Protocol.id code message
            in
            respond response
          in
          let on_progress =
            if not req.Service.Protocol.stream then None
            else
              Some
                (fun (block, iteration, cost) ->
                  Obs.Metrics.incr m_progress;
                  respond
                    (Service.Protocol.Progress_response
                       {
                         prog_id = req.Service.Protocol.id;
                         prog_block = block;
                         prog_iteration = iteration;
                         prog_cost = cost;
                       }))
          in
          match Single_flight.join t.flights key ?on_progress on_result with
          | Single_flight.Follower -> ()
          | Single_flight.Leader -> (
            let job () =
              let t0 = Unix.gettimeofday () in
              let outcome : flight_result =
                if t0 > deadline then
                  Error
                    ( Service.Protocol.Deadline_exceeded,
                      "request expired while queued" )
                else
                  try
                    match
                      Service.Engine.handle_prepared ~deadline
                        ~on_progress:(fun ~block ~iteration ~cost ->
                          Single_flight.progress t.flights key
                            (block, iteration, cost))
                        t.engine prepared
                    with
                    | Ok (payload, hit) -> Ok (payload, hit)
                    | Error (Service.Protocol.Error_response e) ->
                      Error (e.code, e.message)
                    | Error _ ->
                      Error
                        ( Service.Protocol.Routing_failed,
                          "unexpected non-error response" )
                  with e ->
                    Error
                      (Service.Protocol.Routing_failed, Printexc.to_string e)
              in
              Option.iter
                (fun adm -> Admission.observe adm (Unix.gettimeofday () -. t0))
                t.admission;
              ignore (Single_flight.publish t.flights key outcome)
            in
            match Service.Pool.submit (Service.Engine.pool t.engine) job with
            | Service.Pool.Accepted -> ()
            | Service.Pool.Overloaded ->
              Option.iter Admission.note_queue_full t.admission;
              ignore
                (Single_flight.publish t.flights key
                   (Error
                      ( Service.Protocol.Overloaded,
                        Printf.sprintf "queue full (capacity %d)"
                          (Service.Pool.capacity
                             (Service.Engine.pool t.engine)) )
                     : flight_result)))))))

(* ---- connections --------------------------------------------------- *)

let handle_connection t fd =
  Obs.Metrics.incr m_connections;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let out_lock = RM.create ~name:"server.out_lock" () in
  (* Serialise writers (handler thread, pool workers publishing results,
     solver domains streaming progress) and swallow write failures: a
     client that hung up mid-solve must not kill the publisher. *)
  let respond response =
    let line = Service.Protocol.response_to_string response in
    RM.lock out_lock;
    (try
       output_string oc line;
       output_char oc '\n';
       flush oc;
       Obs.Metrics.incr m_responses
     with Sys_error _ | Unix.Unix_error _ -> ());
    RM.unlock out_lock
  in
  let rec loop () =
    match read_line_bounded ic ~max_bytes:t.max_request_bytes with
    | exception Sys_error _ -> ()
    | exception Unix.Unix_error _ -> ()
    | `Eof -> ()
    | `Oversized ->
      respond
        (err "" Service.Protocol.Bad_request
           (Printf.sprintf "request exceeds the maximum size (%d bytes)"
              t.max_request_bytes));
      loop ()
    | `Line line when String.trim line = "" -> loop ()
    | `Line line ->
      process t ~respond line;
      loop ()
  in
  loop ();
  (* Leave [t.conns] before the descriptor is closed: [stop] shuts down
     every descriptor it finds there, and once closed this number may
     already belong to a newer socket. *)
  RM.lock t.lock;
  RC.set t.conns (List.filter (fun (fd', _) -> fd' <> fd) (RC.get t.conns));
  RM.unlock t.lock;
  (* Close the descriptor once, through [oc] (which shares it with [ic]),
     under the writers' lock: a publisher arriving later gets [Sys_error]
     from the closed channel instead of writing to a reused number. *)
  RM.lock out_lock;
  close_out_noerr oc;
  RM.unlock out_lock

let accept_loop t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> ()
    | exception Unix.Unix_error _ -> if RA.get t.stopping then () else go ()
    | fd, _ ->
      if RA.get t.stopping then (Unix.close fd; go ())
      else begin
        (* Register under the lock the handler must take to leave, so a
           connection that closes at once cannot leave before it is in. *)
        RM.lock t.lock;
        let thread =
          Race.Sync.Thread_.create (fun () -> handle_connection t fd) ()
        in
        RC.set t.conns ((fd, thread) :: RC.get t.conns);
        RM.unlock t.lock;
        go ()
      end
  in
  go ()

(* ---- lifecycle ----------------------------------------------------- *)

let start ?(max_request_bytes = Service.Protocol.default_max_request_bytes)
    ?shard ?(admission = true) ?(backlog = 64) engine address =
  (* A client closing mid-reply must surface as EPIPE, not kill the
     process. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let domain, sockaddr =
    match address with
    | Unix_path path ->
      if Sys.file_exists path then Sys.remove path;
      (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  let listen_fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match address with
  | Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | Unix_path _ -> ());
  (try
     Unix.bind listen_fd sockaddr;
     Unix.listen listen_fd backlog
   with e ->
     Unix.close listen_fd;
     raise e);
  let bound =
    (* Port 0 asks the kernel for an ephemeral port; report the real one. *)
    match (address, Unix.getsockname listen_fd) with
    | Tcp (host, _), Unix.ADDR_INET (_, port) -> Tcp (host, port)
    | _ -> address
  in
  let t =
    {
      engine;
      listen_fd;
      bound;
      max_request_bytes;
      shard = Option.map (fun (i, n) -> (Shard.create n, i)) shard;
      admission = (if admission then Some (Admission.create ()) else None);
      flights = Single_flight.create ();
      lock = RM.create ~name:"server.lock" ();
      conns = RC.make ~name:"server.conns" [];
      stopping = RA.make false;
      acceptor = None;
    }
  in
  t.acceptor <- Some (Race.Sync.Thread_.create (fun () -> accept_loop t) ());
  t

let address t = t.bound
let engine t = t.engine
let in_flight t = Single_flight.in_flight t.flights

let stop t =
  (* Claim shutdown atomically: of two concurrent [stop]s exactly one
     runs the teardown (the plain check-then-set this replaces let both
     through, double-joining the same threads). *)
  if not (RA.exchange t.stopping true) then begin
    (* [shutdown] first: on Linux, closing a listening fd does NOT wake
       a thread blocked in [accept] — shutting the socket down does
       (the pending accept fails with EINVAL). *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Option.iter Race.Sync.Thread_.join t.acceptor;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* Half-close: handlers see EOF, finish their replies, exit.  Under
       the lock, so no listed handler can close its descriptor first. *)
    let conns =
      RM.lock t.lock;
      let c = RC.get t.conns in
      RC.set t.conns [];
      List.iter
        (fun (fd, _) ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        c;
      RM.unlock t.lock;
      c
    in
    List.iter (fun (_, thread) -> Race.Sync.Thread_.join thread) conns;
    match t.bound with
    | Unix_path path -> (try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ()
  end

(* ---- client helper ------------------------------------------------- *)

let connect address =
  let domain, sockaddr =
    match address with
    | Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with e ->
     Unix.close fd;
     raise e);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

(* [ic] and [oc] share one descriptor: closing [oc] closes it.  Closing
   [ic] as well would close the number a second time, by which point it
   may name another socket of this process. *)
let disconnect (_ic, oc) = close_out_noerr oc
