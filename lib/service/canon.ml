(* Canonical fingerprints: relabel logical qubits by first-use order,
   then digest the gate stream together with everything else the solver's
   answer depends on (device, calibration, encoding knobs, seam
   constraints).  Digests are MD5 over length-prefixed parts — cheap,
   deterministic across runs (unlike Hashtbl.hash on floats), and the
   length prefixes keep distinct part lists from colliding by
   concatenation. *)

let permutation circuit =
  let n = Quantum.Circuit.n_qubits circuit in
  let perm = Array.make n (-1) in
  let next = ref 0 in
  let touch q =
    if perm.(q) < 0 then begin
      perm.(q) <- !next;
      incr next
    end
  in
  List.iter
    (fun g -> List.iter touch (Quantum.Gate.qubits g))
    (Quantum.Circuit.gates circuit);
  Array.iteri
    (fun q v ->
      if v < 0 then begin
        perm.(q) <- !next;
        incr next
      end)
    perm;
  perm

let canonical circuit =
  let perm = permutation circuit in
  (perm, Quantum.Circuit.relabel_qubits circuit (fun q -> perm.(q)))

let apply_perm perm canon =
  Array.init (Array.length perm) (fun q -> canon.(perm.(q)))

let unapply_perm perm orig =
  let out = Array.make (Array.length perm) 0 in
  Array.iteri (fun q c -> out.(c) <- orig.(q)) perm;
  out

let digest_parts parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Full-precision gate serialisation: Gate.pp prints parameters with %g
   (6 significant digits), which would alias distinct rotation angles
   into one key. *)
let add_gate buf (g : Quantum.Gate.t) =
  let f x = Buffer.add_string buf (Printf.sprintf "%.17g" x) in
  (match g with
  | One { kind; target } ->
    Buffer.add_string buf (Quantum.Gate.kind1_name kind);
    (match kind with
    | Rx a | Ry a | Rz a | P a ->
      Buffer.add_char buf '(';
      f a;
      Buffer.add_char buf ')'
    | U (a, b, c) ->
      Buffer.add_char buf '(';
      f a;
      Buffer.add_char buf ',';
      f b;
      Buffer.add_char buf ',';
      f c;
      Buffer.add_char buf ')'
    | H | X | Y | Z | S | Sdg | T | Tdg | Id -> ());
    Buffer.add_string buf (Printf.sprintf " %d" target)
  | Two { kind; control; target } ->
    Buffer.add_string buf (Quantum.Gate.kind2_name kind);
    (match kind with
    | Rzz a ->
      Buffer.add_char buf '(';
      f a;
      Buffer.add_char buf ')'
    | Cx | Cz | Swap -> ());
    Buffer.add_string buf (Printf.sprintf " %d,%d" control target)
  | Measure { qubit; clbit } ->
    Buffer.add_string buf (Printf.sprintf "measure %d->%d" qubit clbit)
  | Barrier qs ->
    Buffer.add_string buf "barrier";
    List.iter (fun q -> Buffer.add_string buf (Printf.sprintf " %d" q)) qs);
  Buffer.add_char buf ';'

let circuit_digest circuit =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "q%d c%d|" (Quantum.Circuit.n_qubits circuit)
       (Quantum.Circuit.n_clbits circuit));
  List.iter (add_gate buf) (Quantum.Circuit.gates circuit);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let device_digest device =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Arch.Device.name device);
  Buffer.add_string buf (Printf.sprintf "|%d|" (Arch.Device.n_qubits device));
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "%d-%d;" a b))
    (Arch.Device.edges device);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let calibration_digest cal =
  let device = Arch.Calibration.device cal in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (device_digest device);
  List.iter
    (fun edge ->
      Buffer.add_string buf
        (Printf.sprintf "|%.17g" (Arch.Calibration.two_qubit_error cal edge)))
    (Arch.Device.edges device);
  for q = 0 to Arch.Device.n_qubits device - 1 do
    Buffer.add_string buf
      (Printf.sprintf "|%.17g,%.17g"
         (Arch.Calibration.one_qubit_error cal q)
         (Arch.Calibration.readout_error cal q))
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let objective_digest = function
  | Satmap.Encoding.Count_swaps -> "count_swaps"
  | Satmap.Encoding.Fidelity cal -> "fidelity:" ^ calibration_digest cal

let amo_name = function
  | Sat.Card.Pairwise -> "pairwise"
  | Sat.Card.Sequential -> "sequential"
  | Sat.Card.Commander -> "commander"

let int_array_part a =
  String.concat "," (List.map string_of_int (Array.to_list a))

(* The placement decides slice 0's initial map, so a routing found under
   one placement must never answer a request made under another. *)
let placement_part = function
  | Satmap.Router.Free -> "placement:free"
  | Satmap.Router.Qap -> "placement:qap"
  | Satmap.Router.Fixed a -> "placement:fixed:" ^ int_array_part a

let config_digest (config : Satmap.Router.config) =
  digest_parts
    [
      amo_name config.amo;
      string_of_bool config.coalesce;
      string_of_bool config.inject_all_gate_layers;
      string_of_bool config.mobility;
      objective_digest config.objective;
      placement_part config.placement;
    ]

let block_key (config : Satmap.Router.config)
    (q : Satmap.Router.block_query) =
  let perm, canon_slice = canonical q.bq_slice in
  let seam label = function
    | None -> label ^ ":none"
    | Some a -> label ^ ":" ^ int_array_part (unapply_perm perm a)
  in
  let blocked =
    (* A set to the solver: normalise away the accumulation order. *)
    List.sort compare
      (List.map (fun a -> int_array_part (unapply_perm perm a))
         q.bq_blocked_finals)
  in
  let key =
    digest_parts
      ([
         device_digest q.bq_device;
         config_digest config;
         circuit_digest canon_slice;
         string_of_int q.bq_n_swaps;
         string_of_int q.bq_post_slots;
         string_of_bool q.bq_cyclic;
         seam "initial" q.bq_fixed_initial;
         seam "final" q.bq_fixed_final;
       ]
      @ blocked)
  in
  (key, perm)
