module Batch = Iaccf_types.Batch
module Ledger = Iaccf_ledger.Ledger
module Store = Iaccf_storage.Store
module Obs = Iaccf_obs.Obs
open Iaccf_core
open Scenario

(* --- core suite: crash, partition, and loss faults the protocol masks --- *)

let crash_restart =
  live ~name:"crash-restart" ~suite:Core
    [
      at 150.0 "crash backup 2" (crash_replica 2);
      at 1_500.0 "restart backup 2" (restart_replica 2);
    ]

let primary_crash =
  live ~name:"primary-crash" ~suite:Core
    [ at 150.0 "crash the view-0 primary" (crash_replica 0) ]

let partition_heal =
  live ~name:"partition-heal" ~suite:Core
    [
      at 100.0 "split 2-2 (no quorum on either side)" (partition [ 0; 1 ] [ 2; 3 ]);
      at 2_000.0 "heal" heal;
    ]

let oneway_partition =
  live ~name:"oneway-partition" ~suite:Core
    [
      at 100.0 "mute replica 3 towards the rest"
        (partition_oneway [ 3 ] [ 0; 1; 2 ]);
      at 2_500.0 "heal 3<->0" (heal_pair 3 0);
      at 2_500.0 "heal 3<->1" (heal_pair 3 1);
      at 2_500.0 "heal 3<->2" (heal_pair 3 2);
    ]

let loss_ramp =
  live ~name:"loss-ramp" ~suite:Core ~requests:10
    [
      at 0.0 "5% loss" (set_loss 0.05);
      at 500.0 "15% loss" (set_loss 0.15);
      at 1_200.0 "30% loss" (set_loss 0.30);
      at 3_000.0 "loss off" (set_loss 0.0);
    ]

(* --- byzantine suite, below threshold: one scripted replica (f = 1) --- *)

let equivocating_primary =
  live ~name:"equivocating-primary" ~suite:Byzantine
    [
      at 50.0 "primary equivocates pre-prepares"
        (byzantine 0 Byz.Equivocate_pre_prepares);
    ]

let tampered_replyx =
  live ~name:"tampered-replyx" ~suite:Byzantine
    [
      at 0.0 "replica 0 tampers execution results sent to clients"
        (byzantine 0 Byz.Tamper_replyx);
    ]

let nonce_withholder =
  live ~name:"nonce-withholder" ~suite:Byzantine
    [
      at 0.0 "replica 3 withholds every nonce reveal"
        (byzantine 3 Byz.Withhold_nonces);
    ]

let nonce_equivocator =
  live ~name:"nonce-equivocator" ~suite:Byzantine
    [
      at 0.0 "replica 1 reveals its real nonce only to replica 0"
        (byzantine 1 Byz.Equivocate_nonces);
    ]

let corrupt_view_change =
  live ~name:"corrupt-view-change" ~suite:Byzantine
    [
      at 0.0 "replica 3's view changes carry broken signatures"
        (byzantine 3 Byz.Corrupt_view_changes);
      at 300.0 "replica 3 cries wolf" (suspect_primary 3);
      at 900.0 "again" (suspect_primary 3);
    ]

let padded_new_view =
  live ~name:"padded-new-view" ~suite:Byzantine
    [
      at 0.0 "replica 1 pads its new views with its own view change"
        (byzantine 1 Byz.Pad_new_view);
      at 100.0 "replica 1, the next primary, cries wolf" (suspect_primary 1);
    ]

(* --- byzantine suite, above threshold: a colluding quorum {0,1,2} forges
   evidence offline with its real keys; the audit must blame only them --- *)

let colluding_quorum = [ 0; 1; 2 ]

let collusion_wrong_execution =
  forged ~name:"collusion-wrong-execution" ~culprits:colluding_quorum (fun co ->
      let forge = co.co_forge () in
      let s =
        Forge.add_batch forge
          ~execute_override:(fun _ _ ->
            Some
              ( App.output_ok "1000000",
                Iaccf_crypto.Digest32.of_string "forged-write-set" ))
          [ co.co_request "counter/add" "5" ]
      in
      {
        fg_receipts = [ Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) ];
        fg_gov_receipts = [];
        fg_ledger = Forge.ledger forge;
      })

let collusion_history_rewrite =
  forged ~name:"collusion-history-rewrite" ~culprits:colluding_quorum (fun co ->
      let forge_a = co.co_forge () in
      let s =
        Forge.add_batch forge_a [ co.co_request ~client_seqno:0 "counter/add" "5" ]
      in
      let receipt = Forge.make_receipt forge_a ~seqno:s ~tx_position:(Some 0) in
      (* The colluders then serve a rewritten history without that tx. *)
      let forge_b = co.co_forge () in
      ignore
        (Forge.add_batch forge_b [ co.co_request ~client_seqno:9 "counter/add" "1" ]);
      {
        fg_receipts = [ receipt ];
        fg_gov_receipts = [];
        fg_ledger = Forge.ledger forge_b;
      })

let collusion_viewchange_erasure =
  forged ~name:"collusion-viewchange-erasure" ~culprits:colluding_quorum
    (fun co ->
      let forge_a = co.co_forge () in
      let s =
        Forge.add_batch forge_a [ co.co_request ~client_seqno:0 "counter/add" "5" ]
      in
      let receipt = Forge.make_receipt forge_a ~seqno:s ~tx_position:(Some 0) in
      (* Erase it with a forged view change that denies preparing anything,
         then rebuild different history in the next view (Lemma 5). *)
      let forge_b = co.co_forge () in
      Forge.add_view_change forge_b;
      ignore
        (Forge.add_batch forge_b [ co.co_request ~client_seqno:7 "counter/add" "9" ]);
      {
        fg_receipts = [ receipt ];
        fg_gov_receipts = [];
        fg_ledger = Forge.ledger forge_b;
      })

let collusion_tied_receipts =
  forged ~name:"collusion-tied-receipts" ~culprits:colluding_quorum (fun co ->
      let forge_a = co.co_forge () in
      let forge_b = co.co_forge () in
      let sa =
        Forge.add_batch forge_a [ co.co_request ~client_seqno:0 "counter/add" "5" ]
      in
      let sb =
        Forge.add_batch forge_b [ co.co_request ~client_seqno:1 "counter/add" "6" ]
      in
      {
        fg_receipts =
          [
            Forge.make_receipt forge_a ~seqno:sa ~tx_position:(Some 0);
            Forge.make_receipt forge_b ~seqno:sb ~tx_position:(Some 0);
          ];
        fg_gov_receipts = [];
        fg_ledger = Forge.ledger forge_a;
      })

let collusion_governance_fork =
  forged ~name:"collusion-governance-fork" ~culprits:colluding_quorum (fun co ->
      let forge_a = co.co_forge () in
      let forge_b = co.co_forge () in
      ignore
        (Forge.add_batch forge_a [ co.co_request ~client_seqno:0 "counter/add" "1" ]);
      ignore
        (Forge.add_batch forge_b [ co.co_request ~client_seqno:5 "counter/add" "9" ]);
      let sa =
        Forge.add_special_batch forge_a
          (Batch.End_of_config
             { phase = 2; committed_root = Ledger.m_root (Forge.ledger forge_a) })
      in
      let sb =
        Forge.add_special_batch forge_b
          (Batch.End_of_config
             { phase = 2; committed_root = Ledger.m_root (Forge.ledger forge_b) })
      in
      {
        fg_receipts = [];
        fg_gov_receipts =
          [
            Forge.make_receipt forge_a ~seqno:sa ~tx_position:None;
            Forge.make_receipt forge_b ~seqno:sb ~tx_position:None;
          ];
        fg_ledger = Forge.ledger forge_a;
      })

(* --- recovery suite: durable stores across process lifetimes (PR 1) --- *)

let persisted_cluster ~seed ~scratch =
  let dir = Filename.concat scratch "store" in
  let obs = Obs.create ~metrics:true ~tracing:false () in
  let cluster =
    Cluster.make ~seed ~n:4 ~persist:(Store.default_config ~dir) ~obs ()
  in
  (cluster, obs)

let finish ~(cluster : Cluster.t) ~obs ~receipts ~submitted ~completed
    ~lincheck_closed =
  let responder = pick_responder cluster in
  {
    oc_genesis = Cluster.genesis cluster;
    oc_params = Cluster.params cluster;
    oc_receipts = receipts;
    oc_gov_receipts = [];
    oc_ledger = Replica.ledger responder;
    oc_checkpoint = None;
    oc_responder = Replica.id responder;
    oc_submitted = submitted;
    oc_completed = completed;
    oc_lincheck_closed = lincheck_closed;
    oc_obs = obs;
  }

let cold_restart =
  custom ~name:"cold-restart" ~suite:Recovery (fun ~seed ~scratch ->
      let cluster, _ = persisted_cluster ~seed ~scratch in
      let client = Cluster.add_client cluster () in
      let r1, c1 = workload ~timeout_ms:600_000.0 cluster client 6 in
      Cluster.close_storage cluster;
      (* A fresh process: same service identity, same directories; every
         replica replays its persisted ledger before serving again. *)
      let cluster2, obs2 = persisted_cluster ~seed ~scratch in
      let client2 = Cluster.add_client cluster2 () in
      let r2, c2 =
        workload ~timeout_ms:600_000.0
          ~args:(fun i -> string_of_int (100 + i))
          cluster2 client2 6
      in
      finish ~cluster:cluster2 ~obs:obs2 ~receipts:(r1 @ r2) ~submitted:12
        ~completed:(c1 + c2) ~lincheck_closed:true)

let storage_crash =
  custom ~name:"storage-crash" ~suite:Recovery (fun ~seed ~scratch ->
      let cluster, _ = persisted_cluster ~seed ~scratch in
      let client = Cluster.add_client cluster () in
      let _, c1 = workload ~timeout_ms:600_000.0 cluster client 6 in
      (* Kill the process mid-run: fsync-lagged suffixes may legally be
         lost, so phase-1 receipts are out of scope for the oracle; the
         recovered service must still be live, auditable, and linearizable
         over what it serves next. *)
      Cluster.crash_storage cluster;
      let cluster2, obs2 = persisted_cluster ~seed ~scratch in
      let client2 = Cluster.add_client cluster2 () in
      let r2, c2 =
        workload ~timeout_ms:600_000.0 ~proc:"noop"
          ~args:(fun _ -> "")
          cluster2 client2 4
      in
      finish ~cluster:cluster2 ~obs:obs2 ~receipts:r2 ~submitted:(6 + 4)
        ~completed:(c1 + c2) ~lincheck_closed:true)

let double_restart =
  custom ~name:"double-restart" ~suite:Recovery (fun ~seed ~scratch ->
      let phase offset =
        let cluster, obs = persisted_cluster ~seed ~scratch in
        let client = Cluster.add_client cluster () in
        let r, c =
          workload ~timeout_ms:600_000.0
            ~args:(fun i -> string_of_int (offset + i))
            cluster client 4
        in
        (cluster, obs, r, c)
      in
      let c1, _, r1, n1 = phase 0 in
      Cluster.close_storage c1;
      let c2, _, r2, n2 = phase 100 in
      Cluster.close_storage c2;
      let c3, obs3, r3, n3 = phase 200 in
      finish ~cluster:c3 ~obs:obs3 ~receipts:(r1 @ r2 @ r3) ~submitted:12
        ~completed:(n1 + n2 + n3) ~lincheck_closed:true)

(* --- state-sync scenarios: snapshots, catch-up, and compaction (§3.4) --- *)

(* Frequent checkpoints and small segments so a short workload crosses
   several snapshot boundaries and pruning has whole segments to drop. *)
let snapshot_params =
  {
    Replica.default_params with
    checkpoint_interval = 10;
    max_batch = 4;
    snapshot_interval = 10;
  }

let snapshot_cluster ~seed ~scratch =
  let dir = Filename.concat scratch "store" in
  let obs = Obs.create ~metrics:true ~tracing:false () in
  let cluster =
    Cluster.make ~seed ~n:4 ~params:snapshot_params
      ~persist:{ (Store.default_config ~dir) with Store.segment_bytes = 4096 }
      ~obs ()
  in
  (cluster, obs)

let require label cond = if not cond then failwith ("assertion failed: " ^ label)

let snapshot_cold_restart =
  custom ~name:"snapshot-cold-restart" ~suite:Recovery (fun ~seed ~scratch ->
      let cluster, obs = snapshot_cluster ~seed ~scratch in
      let client = Cluster.add_client cluster () in
      let r1, c1 = workload ~timeout_ms:600_000.0 cluster client 45 in
      require "advanced at least 3 checkpoints"
        ((Replica.stats (Cluster.replica cluster 0)).Replica.checkpoints_taken >= 3);
      require "durable snapshots written"
        (Obs.counter_value obs "statesync.snapshots_written" > 0);
      Cluster.close_storage cluster;
      (* A fresh process: every replica must resume from its newest durable
         snapshot, adopting the suffix without re-execution — a cold start
         that replays from genesis is a regression. *)
      let cluster2, obs2 = snapshot_cluster ~seed ~scratch in
      require "every replica cold-started from a snapshot"
        (Obs.counter_value obs2 "statesync.cold.snapshot_restore" = 4);
      require "no replica replayed from genesis"
        (Obs.counter_value obs2 "statesync.cold.genesis_replay" = 0);
      let client2 = Cluster.add_client cluster2 () in
      let r2, c2 =
        workload ~timeout_ms:600_000.0
          ~args:(fun i -> string_of_int (100 + i))
          cluster2 client2 6
      in
      finish ~cluster:cluster2 ~obs:obs2 ~receipts:(r1 @ r2) ~submitted:51
        ~completed:(c1 + c2) ~lincheck_closed:true)

let prune_stale_rejoin =
  custom ~name:"prune-stale-rejoin" ~suite:Recovery (fun ~seed ~scratch ->
      let cluster, obs = snapshot_cluster ~seed ~scratch in
      let client = Cluster.add_client cluster () in
      let r1, c1 = workload ~timeout_ms:600_000.0 cluster client 5 in
      (* Replica 3 goes dark holding only the earliest history. *)
      Replica.stop (Cluster.replica cluster 3);
      let r2, c2 =
        workload ~timeout_ms:600_000.0
          ~args:(fun i -> string_of_int (10 + i))
          cluster client 45
      in
      require "advanced at least 3 checkpoints while replica 3 was down"
        ((Replica.stats (Cluster.replica cluster 0)).Replica.checkpoints_taken >= 3);
      (* Compact the primary's on-disk prefix behind its newest snapshot. *)
      let dropped = Replica.prune (Cluster.replica cluster 0) in
      require "prune dropped whole segments" (dropped > 0);
      require "prune recorded in metrics"
        (Obs.counter_value obs "statesync.prune.entries" >= dropped);
      (* The stale replica rejoins: far behind (and behind the primary's
         pruned prefix), it must catch up through a digest-verified
         snapshot and adopt the suffix without re-executing it. *)
      Replica.start (Cluster.replica cluster 3);
      let r3, c3 =
        workload ~timeout_ms:600_000.0
          ~args:(fun i -> string_of_int (200 + i))
          cluster client 6
      in
      Cluster.run cluster ~ms:10_000.0;
      require "stale replica installed a snapshot"
        (Obs.counter_value obs "statesync.installs" >= 1);
      require "suffix adopted without re-execution"
        (Obs.counter_value obs "statesync.entries_skipped" > 0);
      require "stale replica caught up"
        (Replica.last_committed (Cluster.replica cluster 3)
        >= Replica.last_committed (Cluster.replica cluster 0)
           - snapshot_params.Replica.checkpoint_interval);
      finish ~cluster ~obs ~receipts:(r1 @ r2 @ r3) ~submitted:56
        ~completed:(c1 + c2 + c3) ~lincheck_closed:true)

(* --- observer scenarios: the read tier is untrusted (lib/observer) ---

   Observers sit outside the replica fault threshold, so a stale or lying
   observer must be caught by the client-side verification in
   {!Iaccf_observer.Reader}, with the consensus tier — and hence the
   accountability oracle — unaffected. *)

module Observer = Iaccf_observer.Observer
module Reader = Iaccf_observer.Reader
module Network = Iaccf_sim.Network

(* Small batches so the stable horizon (pipeline batches behind commit)
   passes the workload's writes and observer reads can carry receipts. *)
let observer_params = { Replica.default_params with max_batch = 2 }

let observer_setup ~seed ~requests =
  let obs = Obs.create ~metrics:true ~tracing:false () in
  let cluster = Cluster.make ~seed ~n:4 ~params:observer_params ~obs () in
  let client = Cluster.add_client cluster () in
  let r1, c1 = workload ~timeout_ms:600_000.0 cluster client requests in
  (* A few no-op batches push the pipeline past the last counter write, so
     its commit evidence is in the ledger and observer reads of "counter"
     can carry a receipt. *)
  let r2, c2 =
    workload ~timeout_ms:600_000.0 ~proc:"noop" ~args:(fun _ -> "") cluster
      client 6
  in
  let receipts, completed = (r1 @ r2, c1 + c2) in
  let observer = Observer.spawn cluster ~addr:Observer.default_base () in
  require "observer caught up"
    (Cluster.run_until cluster ~timeout_ms:60_000.0 (fun () ->
         Observer.synced_upto observer
         >= Replica.last_committed (Cluster.replica cluster 0)));
  let reader =
    Reader.create ~address:300 ~genesis:(Cluster.genesis cluster)
      ~pipeline:observer_params.Replica.pipeline ~sched:(Cluster.sched cluster)
      ~network:(Cluster.network cluster) ~obs ()
  in
  (obs, cluster, client, observer, reader, receipts, completed)

let read_counter cluster reader ~min_index =
  let result = ref None in
  Reader.read reader ~observer:Observer.default_base ~key:"counter" ~min_index
    (fun r -> result := Some r);
  require "observer answered the read"
    (Cluster.run_until cluster ~timeout_ms:60_000.0 (fun () -> !result <> None));
  Option.get !result

let observer_stale_reads =
  custom ~name:"observer-stale-reads" ~suite:Byzantine (fun ~seed ~scratch:_ ->
      let obs, cluster, client, observer, reader, r1, c1 =
        observer_setup ~seed ~requests:8
      in
      (* Freeze the observer's tail, then move the service on: the frozen
         observer keeps serving its old state with perfectly valid (old)
         receipts. Only the reader's freshness floor can catch it. *)
      Observer.stop_tailing observer;
      let r2, c2 =
        workload ~timeout_ms:600_000.0
          ~args:(fun i -> string_of_int (10 + i))
          cluster client 6
      in
      let r = read_counter cluster reader ~min_index:(Client.min_index client) in
      require "stale answer not accepted as verified" (not r.Reader.rd_verified);
      require "staleness detected by the freshness floor"
        (Reader.stale_detected reader >= 1);
      finish ~cluster ~obs ~receipts:(r1 @ r2) ~submitted:20 ~completed:(c1 + c2)
        ~lincheck_closed:true)

let observer_forged_answer =
  custom ~name:"observer-forged-answer" ~suite:Byzantine (fun ~seed ~scratch:_ ->
      let obs, cluster, _client, _observer, reader, receipts, completed =
        observer_setup ~seed ~requests:8
      in
      (* Establish an honest status baseline for a committed transaction. *)
      let txid =
        match receipts with
        | rc :: _ -> { Status.view = Receipt.view rc; seqno = Receipt.seqno rc }
        | [] -> failwith "no receipts"
      in
      Reader.poll_status reader ~observer:Observer.default_base ~txid;
      Cluster.run cluster ~ms:1_000.0;
      require "baseline status is committed"
        (Status.equal (Reader.last_status reader ~txid) Status.Committed);
      (* Now the observer turns Byzantine: its read answers carry a forged
         value (the genuine receipt cannot cover it) and its status answers
         flip terminal verdicts. *)
      Network.set_intercept (Cluster.network cluster) Observer.default_base
        (fun ~dst msg ->
          match msg with
          | Wire.Read_answer
              { ra_key; ra_nonce; ra_value = _; ra_seqno; ra_tx_position;
                ra_write_set; ra_receipt } ->
              [
                ( dst,
                  Wire.Read_answer
                    { ra_key; ra_nonce; ra_value = Some "999999"; ra_seqno;
                      ra_tx_position; ra_write_set; ra_receipt } );
              ]
          | Wire.Status_info { si_view; si_seqno; si_status; si_committed }
            when Status.equal si_status Status.Committed ->
              [
                ( dst,
                  Wire.Status_info
                    { si_view; si_seqno; si_status = Status.Invalid; si_committed } );
              ]
          | m -> [ (dst, m) ]);
      let r = read_counter cluster reader ~min_index:0 in
      require "forged value not accepted as verified" (not r.Reader.rd_verified);
      require "forged value rejected by receipt verification"
        (Reader.failed_verifications reader >= 1);
      Reader.poll_status reader ~observer:Observer.default_base ~txid;
      Cluster.run cluster ~ms:1_000.0;
      require "status flip caught by the transition tracker"
        (Reader.status_violations reader >= 1);
      finish ~cluster ~obs ~receipts ~submitted:14 ~completed ~lincheck_closed:true)

(* --- overload scenarios: open-loop traffic past the admission knee ---

   An open-loop generator (lib/load) offers more than the capacity-limited
   cluster can commit, so the primary's bounded admission queue must shed
   load with Busy rejections while faults land mid-overload. The oracle's
   verdict is over a receipt-tracked foreground client; the generator's
   own accounting must close — offered = committed once drained — so every
   rejection was retried to commit, never silently dropped. *)

module Sched = Iaccf_sim.Sched
module Latency = Iaccf_sim.Latency
module Gen = Iaccf_load.Gen
module Arrival = Iaccf_load.Arrival
module Mix = Iaccf_load.Mix

(* Capacity-limited: pipeline 1 over 5 ms links commits a two-tx batch
   every ~15 ms (~130 tx/s), so a 300/s offered rate overloads the
   16-deep admission queue within a few batches. *)
let overload_params =
  {
    Replica.default_params with
    pipeline = 1;
    max_batch = 2;
    batch_delay_ms = 4.0;
    admission_queue = 16;
  }

let overload_setup ~seed =
  let obs = Obs.create ~metrics:true ~tracing:false () in
  let cluster =
    Cluster.make ~seed ~n:4 ~params:overload_params
      ~latency:(fun _ -> Latency.constant 5.0)
      ~obs ()
  in
  (* No-op background traffic keeps the foreground counter receipts
     lincheck-closed. *)
  let gen =
    Gen.create ~cluster ~sessions:128 ~seed ~mix:Mix.noop
      ~arrival:(Arrival.Poisson 300.0) ()
  in
  (obs, cluster, gen)

let overload_finish ~cluster ~obs ~gen ~drained ~receipts ~submitted ~completed
    =
  let s = Gen.stats gen in
  require "generator drained (no request silently dropped)" drained;
  require "admission control shed load"
    (Obs.counter_value obs "load.rejected" > 0 && s.Gen.ls_rejected > 0);
  require "generator accounting closed: offered = committed + outstanding"
    (s.Gen.ls_offered = s.Gen.ls_committed + s.Gen.ls_outstanding);
  require "every offered request eventually committed"
    (s.Gen.ls_offered = s.Gen.ls_committed);
  finish ~cluster ~obs ~receipts ~submitted ~completed ~lincheck_closed:true

let overload_loss_ramp =
  custom ~name:"overload-loss-ramp" ~suite:Core (fun ~seed ~scratch:_ ->
      let obs, cluster, gen = overload_setup ~seed in
      let sched = Cluster.sched cluster in
      (* Ramp message loss while the generator stays in overload; loss off
         at the end so the drain terminates via the retransmit sweep. *)
      List.iter
        (fun (ms, p) ->
          ignore
            (Sched.schedule sched ~delay:ms (fun () ->
                 Network.set_drop_probability (Cluster.network cluster) p)))
        [ (0.0, 0.05); (150.0, 0.15); (300.0, 0.30); (600.0, 0.0) ];
      Gen.start gen ~duration_ms:500.0;
      let client = Cluster.add_client cluster () in
      let receipts, completed =
        workload ~timeout_ms:600_000.0 cluster client 6
      in
      let drained = Gen.drain gen () in
      overload_finish ~cluster ~obs ~gen ~drained ~receipts ~submitted:6
        ~completed)

let overload_primary_crash =
  custom ~name:"overload-primary-crash" ~suite:Core (fun ~seed ~scratch:_ ->
      let obs, cluster, gen = overload_setup ~seed in
      let sched = Cluster.sched cluster in
      (* Kill the view-0 primary mid-burst: its admission queue dies with
         it, so the generator's sweep must re-offer the backlog to the
         view-1 primary (which sheds again under the same watermark). *)
      ignore
        (Sched.schedule sched ~delay:250.0 (fun () ->
             Replica.stop (Cluster.replica cluster 0)));
      Gen.start gen ~duration_ms:500.0;
      let client = Cluster.add_client cluster () in
      let receipts, completed =
        workload ~timeout_ms:600_000.0 cluster client 6
      in
      let drained = Gen.drain gen () in
      overload_finish ~cluster ~obs ~gen ~drained ~receipts ~submitted:6
        ~completed)

(* --- registry --- *)

let core =
  [
    crash_restart;
    primary_crash;
    partition_heal;
    oneway_partition;
    loss_ramp;
    overload_loss_ramp;
    overload_primary_crash;
  ]

let byzantine =
  [
    equivocating_primary;
    tampered_replyx;
    nonce_withholder;
    nonce_equivocator;
    corrupt_view_change;
    padded_new_view;
    collusion_wrong_execution;
    collusion_history_rewrite;
    collusion_viewchange_erasure;
    collusion_tied_receipts;
    collusion_governance_fork;
    observer_stale_reads;
    observer_forged_answer;
  ]

let recovery =
  [ cold_restart; storage_crash; double_restart; snapshot_cold_restart; prune_stale_rejoin ]

let all = core @ byzantine @ recovery

let suite = function
  | Core -> core
  | Byzantine -> byzantine
  | Recovery -> recovery

(* Fast cross-section for the default test run: one scenario per suite,
   plus the state-sync pair (snapshot catch-up and compaction are load-
   bearing for recovery, so they stay in the default run) and the primary
   crash (the view-change path, whose same-seed determinism the smoke
   driver asserts). *)
let smoke =
  [
    crash_restart;
    primary_crash;
    collusion_wrong_execution;
    cold_restart;
    snapshot_cold_restart;
    prune_stale_rejoin;
    observer_stale_reads;
    observer_forged_answer;
    overload_loss_ramp;
    overload_primary_crash;
  ]

let find name = List.find_opt (fun sc -> sc.sc_name = name) all
