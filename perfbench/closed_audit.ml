(* closed-audit: four signing clients, 64 requests in flight, uniform
   SmallBank over 1,000 accounts on a 4-replica simulated cluster. The
   accounts are created through the ledger, so the auditor replays from
   genesis. Clients keep their receipts and verify none inside the timed
   loop. After the window, replica 0's ledger goes through a package
   file to a fresh auditor, every receipt is checked with
   Receipt.verify, backup 3 misses a short burst and catches up, and a
   quorum-signed copy with one tampered transaction must be blamed on at
   least f+1 replicas. *)

open Iaccf_core
module C = Common
module Obs = Iaccf_obs.Obs
module Profile = Iaccf_crypto.Profile
module Sched = Iaccf_sim.Sched
module Latency = Iaccf_sim.Latency
module Rng = Iaccf_util.Rng
module Smallbank = Iaccf_app.Smallbank
module Ledger = Iaccf_ledger.Ledger
module Entry = Iaccf_ledger.Entry
module D = Iaccf_crypto.Digest32
module Bitmap = Iaccf_util.Bitmap

let accounts = 1_000
let n_clients = 4
let per_client = 16
let stopped_backup = 3

type deployment = {
  cluster : Cluster.t;
  clients : Client.t array;
  obs : Obs.t;
  profile : Profile.t;
}

let deploy ~seed ~traced ~speed =
  let obs =
    if traced then Obs.create ~metrics:true ~tracing:true () else Obs.passive ()
  in
  let profile = Profile.create ~enabled:traced ~wall:Unix.gettimeofday () in
  let cluster =
    Cluster.make ~seed ~n:4 ~latency:Latency.dedicated_cluster
      ~app:(Smallbank.app ()) ~obs ~profile ()
  in
  let clients =
    Array.init n_clients (fun _ -> Cluster.add_client cluster ~verify_receipts:false ())
  in
  C.create_accounts
    ~run_until:(fun pred ->
      Cluster.run_until cluster ~timeout_ms:600_000.0 (fun () ->
          Speed.tick speed;
          pred ()))
    ~clients ~per_client ~accounts;
  { cluster; clients; obs; profile }

(* Requests per budgeted second: the work is a fixed function of
   --seconds, so a faster build shows as a shorter window. *)
let requests_per_second = 500

(* After the window: backup 3 stops, a burst of [burst] requests
   commits without it, and it restarts while the clients keep
   submitting. Catch-up as in {!Common.run_catchup}. Costs little wall
   time: the simulator's timers are free. *)
let backup_catchup d ~burst =
  let cluster = d.cluster and sched = Cluster.sched d.cluster in
  let backup = Cluster.replica cluster stopped_backup in
  let done_ = ref 0 and i = ref 0 and stop_submitting = ref false in
  let rec submit c =
    if not !stop_submitting then begin
      incr i;
      Client.submit c ~proc:"sb/balance"
        ~args:(Smallbank.balance_args ~account:(!i mod accounts))
        ~on_complete:(fun _ ->
          incr done_;
          submit c)
        ()
    end
  in
  Replica.stop backup;
  Array.iter (fun c -> submit c) d.clients;
  if not (Cluster.run_until cluster ~timeout_ms:600_000.0 (fun () -> !done_ >= burst))
  then failwith "closed-audit: catch-up burst did not commit";
  let restart = Sched.now sched in
  Replica.start backup;
  let others = List.filter (fun r -> r != backup) (Cluster.replicas cluster) in
  let catchup =
    C.run_catchup cluster ~replica:backup ~restart ~target:(C.committed_prefix others)
      ~timeout_ms:600_000.0
  in
  stop_submitting := true;
  ignore (Cluster.run_until cluster ~timeout_ms:600_000.0 (fun () ->
      Array.for_all (fun c -> Client.in_flight c = 0) d.clients));
  catchup

(* A copy of the run's first transactions, re-signed by a colluding
   quorum (replicas 0-2) with one output tampered. The audit must blame
   at least f+1 replicas for it. *)
let tamper_check d ledger =
  let cluster = d.cluster in
  let params = Cluster.params cluster in
  let forge =
    Forge.create ~genesis:(Cluster.genesis cluster)
      ~sks:(List.map (fun id -> (id, Cluster.replica_sk cluster id)) [ 0; 1; 2 ])
      ~app:(Cluster.app cluster) ~pipeline:params.Replica.pipeline
      ~checkpoint_interval:params.Replica.checkpoint_interval
  in
  let requests =
    List.filter_map
      (fun (_, e) ->
        match e with Entry.Tx tx -> Some tx.Iaccf_types.Batch.request | _ -> None)
      (Ledger.entries ledger ~until:200 ())
    |> List.filteri (fun i _ -> i < 8)
  in
  let victim = List.nth requests 3 in
  ignore
    (Forge.add_batch forge
       ~execute_override:(fun req _ ->
         if req == victim then
           Some (App.output_ok "tampered", D.of_string "tampered-write-set")
         else None)
       requests);
  let auditor =
    Audit.create ~genesis:(Cluster.genesis cluster) ~app:(Cluster.app cluster)
      ~pipeline:params.Replica.pipeline
      ~checkpoint_interval:params.Replica.checkpoint_interval
  in
  match Audit.audit auditor ~receipts:[] ~ledger:(Forge.ledger forge) ~responder:0 () with
  | Ok () -> false
  | Error v -> Bitmap.cardinal v.Audit.v_blamed_replicas >= 2

let measure opts ~traced =
  let d, setup_s =
    C.repeated_setup ~k:(if traced then 1 else 3) (fun ~last ~speed ->
        deploy ~seed:opts.C.seed ~traced:(traced && last) ~speed)
  in
  let cluster = d.cluster in
  let genesis = Cluster.genesis cluster in
  let params = Cluster.params cluster in
  let spans = Spans.create ~enabled:traced () in
  let wire = if traced then Layers.capture_wire cluster ~cap:20_000 else fun () -> [] in
  let c = Layers.since d.obs in
  Profile.reset d.profile;
  let sched = Cluster.sched cluster in
  let start_v = Sched.now sched in
  let w =
    C.closed_loop ~spans ~span:"client.submit" ~clients:d.clients ~per_client
      ~total:(int_of_float (float_of_int requests_per_second *. opts.C.seconds))
      ~rng:(Rng.create ((opts.C.seed * 7919) + 17))
      ~accounts ~now:(fun () -> Sched.now sched)
      ~drive:(fun pred ->
        Spans.wrap spans "sim.run" (fun () ->
            Cluster.run_until cluster ~timeout_ms:3_600_000.0 pred))
  in
  let stop_v = Sched.now sched in
  let in_run =
    if not traced then []
    else
      Layers.in_run ~profile:d.profile ~obs:d.obs ~c ~spans ~replicas:(Cluster.replicas cluster)
        ~committed:w.C.w_committed ~raw_window_s:(w.C.w_wall_s /. w.C.w_speed)
  in
  let dir = C.scratch_dir opts "closed-audit" in
  let auditor =
    Audit.create ~genesis ~app:(Cluster.app cluster) ~pipeline:params.Replica.pipeline
      ~checkpoint_interval:params.Replica.checkpoint_interval
  in
  let ledger, verdict, audit_s =
    C.package_audit ~spans ~file:(Filename.concat dir "replica-0.iapkg") ~auditor ~responder:0
      (Replica.ledger (Cluster.replica cluster 0))
  in
  let bad_receipts, verify_us = C.verify_receipts ~spans ~genesis w.C.w_receipts in
  let catchup = Spans.wrap spans "catchup.probe" (fun () -> backup_catchup d ~burst:64) in
  let tamper_ok = Spans.wrap spans "audit.tampered" (fun () -> tamper_check d ledger) in
  let correct =
    C.report_checks
      [
        ("every request committed", w.C.w_committed = w.C.w_attempted);
        ("honest package audits Ok", verdict = Ok ());
        ("every receipt verifies", bad_receipts = 0);
        ("tampered copy blames >= f+1", tamper_ok);
        ("restarted backup caught up", catchup <> None);
      ]
  in
  if correct then C.rm_rf dir;
  let failed = Stats.failed ~attempted:w.C.w_attempted ~committed:w.C.w_committed ~check_ok:correct in
  let metrics =
    C.end_to_end ~name:"closed-audit" ~wall_s:w.C.w_wall_s ~speed:w.C.w_speed
      ~committed:w.C.w_committed ~attempted:w.C.w_attempted ~failed ~latencies:w.C.w_latencies
      ~unavailable_ms:(Stats.longest_gap ~start:start_v ~stop:stop_v w.C.w_done_at)
      ~catchup_ms:(Option.value catchup ~default:0.0)
      ~audit_tx_s:(Stats.ratio (float_of_int (C.ledger_txs ledger)) audit_s)
      ~verify_us ~setup_s ~rss_mib:(C.peak_rss_mib ())
  in
  let layers, net_ok =
    if not traced then ([], true)
    else begin
      let after = Layers.after_run ~spans ~genesis ~ledger ~receipts:w.C.w_receipts ~wire:(wire ()) in
      let net, net_ok = Socket_leg.run ~opts ~spans in
      C.write_trace opts spans ~workload:"closed-audit";
      (in_run @ after @ net, net_ok)
    end
  in
  let correct = correct && net_ok in
  {
    C.result = { C.correct; attempted = w.C.w_attempted; failed; metrics };
    window_s = w.C.w_wall_s;
    committed = w.C.w_committed;
    layers;
  }
