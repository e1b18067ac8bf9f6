(* Thin shard router: terminates client connections, computes each
   request's canonical key, and forwards the raw request line to the
   owning backend shard; backend response lines are relayed to the
   client verbatim.

   Because the canonical key is a pure function of the request and ring
   ownership a pure function of (key, shard count), the router and
   every [satmap serve --shard i/N] process agree on ownership without
   coordination — and because lines are relayed untouched, a client
   cannot distinguish N shards behind a router from one unsharded
   server (byte-identical responses; only interleaving may differ).

   Requests the backends would reject without routing (bad JSON, bad
   QASM, unknown device) are answered directly: the error response is a
   deterministic function of the request, so the bytes match what a
   backend would have sent. *)

type t = {
  listen_fd : Unix.file_descr;
  bound : Server.address;
  backends : Server.address array;
  ring : Shard.t;
  max_request_bytes : int;
  lock : Mutex.t;
  mutable conns : (Unix.file_descr * Thread.t) list;
  mutable stopping : bool;
  mutable acceptor : Thread.t option;
}

let m_forwarded = Obs.Metrics.counter "shard_router.forwarded"
let m_answered_locally = Obs.Metrics.counter "shard_router.answered_locally"

let err id code message =
  Service.Protocol.Error_response { id; code; message }

let id_of_line line =
  match Obs.Json.parse line with
  | Ok json ->
    Option.value ~default:""
      (Option.bind (Obs.Json.member "id" json) Obs.Json.string_value)
  | Error _ -> ""

(* One client connection: a lazily-opened upstream connection per
   backend, each with a pump thread relaying its response lines into
   the client's (mutex-serialised) output. *)
let handle_client t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let out_lock = Mutex.create () in
  let send_line line =
    Mutex.lock out_lock;
    (try
       output_string oc line;
       output_char oc '\n';
       flush oc
     with Sys_error _ | Unix.Unix_error _ -> ());
    Mutex.unlock out_lock
  in
  let respond response =
    Obs.Metrics.incr m_answered_locally;
    send_line (Service.Protocol.response_to_string response)
  in
  let upstreams =
    Array.make (Array.length t.backends) (None : (in_channel * out_channel * Thread.t) option)
  in
  let upstream_for i =
    match upstreams.(i) with
    | Some (_, boc, _) -> boc
    | None ->
      let bic, boc = Server.connect t.backends.(i) in
      let pump =
        Thread.create
          (fun () ->
            let rec go () =
              match input_line bic with
              | exception (End_of_file | Sys_error _) -> ()
              | line ->
                send_line line;
                go ()
            in
            go ())
          ()
      in
      upstreams.(i) <- Some (bic, boc, pump);
      boc
  in
  let forward line req =
    match Service.Engine.canonical_key req with
    | Error response -> respond response
    | Ok key -> (
      let owner = Shard.owner t.ring key in
      match upstream_for owner with
      | exception e ->
        respond
          (err req.Service.Protocol.id Service.Protocol.Overloaded
             (Printf.sprintf "shard %d unreachable: %s" owner
                (Printexc.to_string e)))
      | boc -> (
        try
          output_string boc line;
          output_char boc '\n';
          flush boc;
          Obs.Metrics.incr m_forwarded
        with Sys_error _ | Unix.Unix_error _ ->
          respond
            (err req.Service.Protocol.id Service.Protocol.Overloaded
               (Printf.sprintf "shard %d connection lost" owner))))
  in
  let rec loop () =
    match Server.read_line_bounded ic ~max_bytes:t.max_request_bytes with
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
      (match
         Service.Protocol.parse_request ~max_bytes:t.max_request_bytes line
       with
      | Error msg -> respond (err (id_of_line line) Service.Protocol.Bad_request msg)
      | Ok req -> forward line req);
      loop ()
  in
  loop ();
  (* Client is gone: signal EOF upstream, let the backends close, join
     the pumps, then tear the channels down. *)
  Array.iter
    (function
      | None -> ()
      | Some (bic, _, _) -> (
        try Unix.shutdown (Unix.descr_of_in_channel bic) Unix.SHUTDOWN_SEND
        with Unix.Unix_error _ -> ()))
    upstreams;
  Array.iter
    (function
      | None -> ()
      | Some (bic, boc, pump) ->
        Thread.join pump;
        Server.disconnect (bic, boc))
    upstreams;
  (* As in [Server]: leave [t.conns] first, then close the descriptor
     once, through [oc]. *)
  Mutex.lock t.lock;
  t.conns <- List.filter (fun (fd', _) -> fd' <> fd) t.conns;
  Mutex.unlock t.lock;
  Mutex.lock out_lock;
  close_out_noerr oc;
  Mutex.unlock out_lock

let accept_loop t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> ()
    | exception Unix.Unix_error _ -> if t.stopping then () else go ()
    | fd, _ ->
      if t.stopping then (Unix.close fd; go ())
      else begin
        Mutex.lock t.lock;
        let thread = Thread.create (fun () -> handle_client t fd) () in
        t.conns <- (fd, thread) :: t.conns;
        Mutex.unlock t.lock;
        go ()
      end
  in
  go ()

let start ?(max_request_bytes = Service.Protocol.default_max_request_bytes)
    ?(backlog = 64) ~backends address =
  if backends = [] then invalid_arg "Shard_router.start: no backends";
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let domain, sockaddr =
    match address with
    | Server.Unix_path path ->
      if Sys.file_exists path then Sys.remove path;
      (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Server.Tcp (host, port) ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  let listen_fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match address with
  | Server.Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | Server.Unix_path _ -> ());
  (try
     Unix.bind listen_fd sockaddr;
     Unix.listen listen_fd backlog
   with e ->
     Unix.close listen_fd;
     raise e);
  let bound =
    match (address, Unix.getsockname listen_fd) with
    | Server.Tcp (host, _), Unix.ADDR_INET (_, port) -> Server.Tcp (host, port)
    | _ -> address
  in
  let t =
    {
      listen_fd;
      bound;
      backends = Array.of_list backends;
      ring = Shard.create (List.length backends);
      max_request_bytes;
      lock = Mutex.create ();
      conns = [];
      stopping = false;
      acceptor = None;
    }
  in
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let address t = t.bound

let stop t =
  if not t.stopping then begin
    t.stopping <- true;
    (* [shutdown] first: closing a listening fd does not wake a thread
       blocked in [accept]; shutting the socket down does. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.acceptor;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    let conns =
      Mutex.lock t.lock;
      let c = t.conns in
      t.conns <- [];
      List.iter
        (fun (fd, _) ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        c;
      Mutex.unlock t.lock;
      c
    in
    List.iter (fun (_, thread) -> Thread.join thread) conns;
    match t.bound with
    | Server.Unix_path path -> (try Sys.remove path with Sys_error _ -> ())
    | Server.Tcp _ -> ()
  end
