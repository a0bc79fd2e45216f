(* Socket-side load driver: ordinary simulator [Client.t]s running in
   the supervisor process, wired to the fleet through an endpoint. The
   clients are byte-for-byte the ones the simulator uses — they sign,
   broadcast, collect N-f replies, and verify receipts; only the wiring
   (gateway out, inject in) differs. Latency numbers are therefore real
   end-to-end wall-clock measurements through the kernel's sockets. *)

module Sched = Iaccf_sim.Sched
module Network = Iaccf_sim.Network
module Latency = Iaccf_sim.Latency
module Obs = Iaccf_obs.Obs
module Rng = Iaccf_util.Rng
module Cluster = Iaccf_core.Cluster
module Client = Iaccf_core.Client
module Replica = Iaccf_core.Replica
module Wire = Iaccf_core.Wire
module Smallbank = Iaccf_app.Smallbank
module Pump = Iaccf_load.Pump

type harness = {
  h_sched : Sched.t;
  h_network : Wire.t Network.t;
  h_endpoint : Endpoint.t;
  h_obs : Obs.t;
  h_wall_ms : unit -> float;
  h_clients : Client.t array;
}

let connect ?obs ?(clients = 4) ?(verify_receipts = true) (m : Manifest.t) =
  let obs = match obs with Some o -> o | None -> Obs.create ~metrics:true () in
  let t0 = Unix.gettimeofday () in
  let wall_ms () = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let sched = Sched.create () in
  Obs.set_clock obs (fun () -> Sched.now sched);
  let network = Network.create ~sched ~latency:(Latency.constant 0.0) ~obs () in
  Network.set_flow_classifier network Wire.flow_of;
  let endpoint = Endpoint.create ~obs () in
  List.iter
    (fun (r : Manifest.replica_entry) ->
      Endpoint.add_peer endpoint ~id:r.Manifest.id r.Manifest.addr)
    m.Manifest.replicas;
  ignore (Transport.attach ~obs ~network ~endpoint ());
  let genesis =
    Cluster.standalone_genesis ~seed:m.Manifest.seed ~n:(Manifest.n m)
      ~n_members:m.Manifest.n_members ()
  in
  let cs =
    Array.init clients (fun i ->
        let address = Cluster.client_base + i in
        (* retry_ms: on this backend the virtual clock tracks the wall,
           so the simulator's 300 ms retransmit is a real-time trigger;
           under CPU contention it fires during honest progress and the
           duplicate requests cost the replicas signature verification —
           a feedback loop. One second keeps retransmission a recovery
           path, not a load amplifier. *)
        Client.create ~address
          ~seed:
            (Printf.sprintf "cluster-%d-client-%d" m.Manifest.seed address)
          ~genesis ~pipeline:Replica.default_params.Replica.pipeline
          ~retry_ms:1_000.0 ~sched ~network ~verify_receipts ~obs ())
  in
  {
    h_sched = sched;
    h_network = network;
    h_endpoint = endpoint;
    h_obs = obs;
    h_wall_ms = wall_ms;
    h_clients = cs;
  }

let step h =
  Sched.advance_to h.h_sched (h.h_wall_ms ());
  let timeout =
    match Sched.next_due h.h_sched with
    | Some due -> Float.min 10.0 (Float.max 0.0 (due -. h.h_wall_ms ()))
    | None -> 10.0
  in
  Endpoint.poll h.h_endpoint ~timeout_ms:timeout;
  Sched.advance_to h.h_sched (h.h_wall_ms ())

let run_until ?(timeout_ms = 120_000.0) h pred =
  let deadline = h.h_wall_ms () +. timeout_ms in
  let rec go () =
    if pred () then true
    else if h.h_wall_ms () > deadline then false
    else begin
      step h;
      go ()
    end
  in
  go ()

let close h = Endpoint.close h.h_endpoint
let obs h = h.h_obs
let clients h = h.h_clients

type result = {
  r_total : int;
  r_completed : int;
  r_setup : int;
  r_setup_s : float;  (* set-up phase wall clock *)
  r_wall_s : float;  (* measured-phase wall clock, setup excluded *)
  r_tx_s : float;
  r_latencies_ms : float list;
}

let latencies h =
  Array.to_list h.h_clients |> List.concat_map Client.latencies_ms

(* Deterministic SmallBank load: setup the accounts through one client,
   then a closed-loop pump across all clients. The op stream is drawn
   from the manifest seed in submission order, so two runs against the
   same fleet replay the same workload. *)
let run_smallbank ?(concurrency = 16) ?(accounts = 20)
    ?(setup_timeout_ms = 30_000.0) ?(timeout_ms = 120_000.0) ~total h
    ~seed () =
  let nclients = Array.length h.h_clients in
  if nclients = 0 then invalid_arg "Driver.run_smallbank: no clients";
  (* setup: account creation, one at a time (kept off the measurement,
     timed on its own) *)
  let t_setup = h.h_wall_ms () in
  let setup = Smallbank.setup_ops ~accounts ~initial_balance:1_000 in
  let setup_done = ref 0 in
  let rec submit_setup = function
    | [] -> ()
    | (op : Smallbank.op) :: rest ->
        Client.submit h.h_clients.(0) ~proc:op.Smallbank.op_proc
          ~args:op.Smallbank.op_args
          ~on_complete:(fun _ ->
            incr setup_done;
            submit_setup rest)
          ()
  in
  submit_setup setup;
  let n_setup = List.length setup in
  if
    not
      (run_until ~timeout_ms:setup_timeout_ms h (fun () ->
           !setup_done >= n_setup))
  then Error (Printf.sprintf "setup stalled at %d/%d accounts" !setup_done n_setup)
  else begin
    let rng = Rng.create seed in
    let t_start = h.h_wall_ms () in
    let setup_s = (t_start -. t_setup) /. 1000.0 in
    let _submitted, completed =
      Pump.closed_loop ~total ~concurrency
        ~submit:(fun ~seq ~on_complete ->
          let op = Smallbank.random_op rng ~accounts in
          Client.submit
            h.h_clients.(seq mod nclients)
            ~proc:op.Smallbank.op_proc ~args:op.Smallbank.op_args
            ~on_complete:(fun _ -> on_complete ())
            ())
        ()
    in
    let finished = run_until ~timeout_ms h (fun () -> !completed >= total) in
    let wall_s = (h.h_wall_ms () -. t_start) /. 1000.0 in
    if not finished then
      Error
        (Printf.sprintf "load stalled at %d/%d after %.1fs" !completed total
           wall_s)
    else
      Ok
        {
          r_total = total;
          r_completed = !completed;
          r_setup = n_setup;
          r_setup_s = setup_s;
          r_wall_s = wall_s;
          r_tx_s = (if wall_s > 0.0 then float_of_int !completed /. wall_s else 0.0);
          r_latencies_ms = latencies h;
        }
  end
