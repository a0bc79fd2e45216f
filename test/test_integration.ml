(* Whole-system integration under adverse conditions: lossy networks,
   partitions, crash faults, an equivocating primary, live enforcement,
   and receipts surviving view changes. *)

open Iaccf_core
module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module Request = Iaccf_types.Request
module Nonce = Iaccf_crypto.Nonce
module D = Iaccf_crypto.Digest32
module Bitmap = Iaccf_util.Bitmap
module Network = Iaccf_sim.Network

let check = Alcotest.check

let drive cluster client n ~timeout_ms =
  let completed = ref 0 in
  let receipts = ref [] in
  for i = 1 to n do
    Client.submit client ~proc:"counter/add" ~args:(string_of_int i)
      ~on_complete:(fun oc ->
        receipts := oc.Client.oc_receipt :: !receipts;
        incr completed)
      ()
  done;
  let ok = Cluster.run_until cluster ~timeout_ms (fun () -> !completed >= n) in
  (ok, List.rev !receipts)

let test_lossy_network () =
  (* 10% message loss: retransmission and state transfer keep the service
     live, and the final ledgers still agree. *)
  let cluster = Cluster.make ~n:4 () in
  Network.set_drop_probability (Cluster.network cluster) 0.10;
  let client = Cluster.add_client cluster () in
  let ok, _ = drive cluster client 20 ~timeout_ms:600_000.0 in
  check Alcotest.bool "completed under loss" true ok;
  Network.set_drop_probability (Cluster.network cluster) 0.0;
  Cluster.run cluster ~ms:5000.0;
  let kv = Replica.store (Cluster.replica cluster 0) in
  check
    Alcotest.(option string)
    "state correct" (Some "210")
    (Iaccf_kv.State.find_opt "counter" (Iaccf_kv.Store.map kv))

let test_partition_heals () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let ok, _ = drive cluster client 5 ~timeout_ms:60_000.0 in
  check Alcotest.bool "warmup" true ok;
  (* Cut off a backup; quorum of 3 continues. *)
  Network.partition (Cluster.network cluster) [ 2 ] [ 0; 1; 3; 100 ];
  let ok, _ = drive cluster client 5 ~timeout_ms:120_000.0 in
  check Alcotest.bool "progress with 3 of 4" true ok;
  Network.heal (Cluster.network cluster);
  let ok, _ = drive cluster client 5 ~timeout_ms:120_000.0 in
  check Alcotest.bool "progress after heal" true ok;
  let target = Replica.last_committed (Cluster.replica cluster 0) - 1 in
  let caught =
    Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () ->
        Replica.last_committed (Cluster.replica cluster 2) >= target)
  in
  check Alcotest.bool "partitioned replica catches up" true caught

let test_two_view_changes () =
  (* Kill two primaries in a row (N=7, f=2 tolerates both). *)
  let cluster = Cluster.make ~n:7 () in
  let client = Cluster.add_client cluster () in
  let ok, _ = drive cluster client 5 ~timeout_ms:60_000.0 in
  check Alcotest.bool "warmup" true ok;
  Replica.stop (Cluster.replica cluster 0);
  let ok, _ = drive cluster client 3 ~timeout_ms:300_000.0 in
  check Alcotest.bool "after first view change" true ok;
  Replica.stop (Cluster.replica cluster 1);
  let ok, _ = drive cluster client 3 ~timeout_ms:600_000.0 in
  check Alcotest.bool "after second view change" true ok;
  check Alcotest.bool "view advanced twice" true
    (Replica.view (Cluster.replica cluster 2) >= 2)

let test_restarted_primary_rejoins () =
  (* The view-0 primary stops, the backups move to view 1 without it, and
     it restarts only after its next progress tick, long after the
     new-view message went out. It must catch up from the replicas already
     in view 1 rather than escalate view changes nobody else joins. *)
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let ok, _ = drive cluster client 5 ~timeout_ms:60_000.0 in
  check Alcotest.bool "warmup" true ok;
  let r0 = Cluster.replica cluster 0 in
  Replica.stop r0;
  let ok, _ = drive cluster client 5 ~timeout_ms:300_000.0 in
  check Alcotest.bool "view 1 serves" true ok;
  Cluster.run cluster
    ~ms:(2.0 *. (Cluster.params cluster).Replica.vc_timeout_ms);
  Replica.start r0;
  let target = Replica.last_committed (Cluster.replica cluster 1) in
  (* Keep the service busy, one request every 50 ms, until the restarted
     primary has caught up (or 5 s have passed). *)
  let rec caught_up rounds =
    if Replica.last_committed r0 >= target then true
    else if rounds = 0 || not (fst (drive cluster client 1 ~timeout_ms:60_000.0))
    then false
    else begin
      Cluster.run cluster ~ms:50.0;
      caught_up (rounds - 1)
    end
  in
  let caught = caught_up 100 in
  check Alcotest.bool "restarted primary caught up" true caught;
  List.iter
    (fun r ->
      check Alcotest.int
        (Printf.sprintf "replica %d: one view change" (Replica.id r))
        1 (Replica.view r))
    (Cluster.replicas cluster)

let test_receipts_survive_view_change_audit () =
  (* Regression: receipts issued before a view change must stay compatible
     with the post-view-change ledger (re-proposed batches keep their
     transaction entries; Alg. 2). *)
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let ok, receipts_before = drive cluster client 8 ~timeout_ms:60_000.0 in
  check Alcotest.bool "warmup" true ok;
  Replica.stop (Cluster.replica cluster 0);
  let ok, receipts_after = drive cluster client 4 ~timeout_ms:300_000.0 in
  check Alcotest.bool "after view change" true ok;
  let auditor =
    Audit.create ~genesis:(Cluster.genesis cluster)
      ~app:(App.create Cluster.counter_app_procs)
      ~pipeline:(Cluster.params cluster).Replica.pipeline
      ~checkpoint_interval:(Cluster.params cluster).Replica.checkpoint_interval
  in
  match
    Audit.audit auditor
      ~receipts:(receipts_before @ receipts_after)
      ~ledger:(Replica.ledger (Cluster.replica cluster 1))
      ~responder:1 ()
  with
  | Ok () -> ()
  | Error v -> Alcotest.failf "audit failed: %s" (Format.asprintf "%a" Audit.pp_verdict v)

let test_equivocating_primary_cannot_commit_both () =
  (* A Byzantine primary sends two different batches for the same (view,
     seqno) to disjoint backup sets. At most one can gather a quorum; the
     ledgers never diverge on committed state. *)
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let ok, _ = drive cluster client 3 ~timeout_ms:60_000.0 in
  check Alcotest.bool "warmup" true ok;
  Cluster.run cluster ~ms:1000.0;
  (* Forge two conflicting pre-prepares for the next seqno with replica 0's
     key and inject them. *)
  let genesis = Cluster.genesis cluster in
  let sk0 = Cluster.replica_sk cluster 0 in
  let r1 = Cluster.replica cluster 1 in
  let seqno = Replica.next_seqno r1 in
  let csk, cpk = Iaccf_crypto.Schnorr.keypair_of_seed "equivocator-client" in
  let mk_pp tag =
    let req =
      Request.make ~sk:csk ~client_pk:cpk ~service:(Genesis.hash genesis)
        ~client_seqno:(Hashtbl.hash tag) ~proc:"counter/add" ~args:tag ()
    in
    let nonce = Nonce.derive ~key:("eq" ^ tag) ~view:0 ~seqno in
    (* The equivocator cannot know the honest backups' ledger roots exactly,
       but same-view equivocation is already rejected on g/m-root
       mismatch — the point is that no conflicting batch commits. *)
    let ledger = Replica.ledger r1 in
    let m_root = Iaccf_ledger.Ledger.m_root ledger in
    let g_root = D.of_string ("forged-g-" ^ tag) in
    let payload =
      Message.pre_prepare_payload ~view:0 ~seqno ~m_root ~g_root
        ~nonce_com:(Nonce.commit nonce) ~ev_bitmap:Bitmap.empty ~gov_index:0
        ~cp_digest:D.zero ~kind:Batch.Regular ~primary:0
    in
    ( {
        Message.view = 0;
        seqno;
        m_root;
        g_root;
        nonce_com = Nonce.commit nonce;
        ev_bitmap = Bitmap.empty;
        gov_index = 0;
        cp_digest = D.zero;
        kind = Batch.Regular;
        primary = 0;
        signature = Iaccf_crypto.Schnorr.sign sk0 (D.to_raw payload);
      },
      req )
  in
  let pp_a, req_a = mk_pp "111" in
  let pp_b, req_b = mk_pp "222" in
  let net = Cluster.network cluster in
  Network.send net ~src:100 ~dst:1 (Wire.Request_msg req_a);
  Network.send net ~src:100 ~dst:2 (Wire.Request_msg req_b);
  Cluster.run cluster ~ms:50.0;
  Network.send net ~src:0 ~dst:1 (Wire.Pre_prepare_msg { pp = pp_a; batch = [ Request.hash req_a ] });
  Network.send net ~src:0 ~dst:2 (Wire.Pre_prepare_msg { pp = pp_b; batch = [ Request.hash req_b ] });
  Cluster.run cluster ~ms:5000.0;
  ignore seqno;
  (* Neither forged batch can gather a quorum under the forged roots: the
     backups reject on root mismatch and, if the equivocation stalls
     progress, a view change re-proposes the requests honestly. Either
     way, committed prefixes never diverge. *)
  let l1 = Replica.ledger (Cluster.replica cluster 1) in
  let l2 = Replica.ledger (Cluster.replica cluster 2) in
  let n = min (Iaccf_ledger.Ledger.length l1) (Iaccf_ledger.Ledger.length l2) in
  check Alcotest.bool "common prefix identical" true
    (D.equal (Iaccf_ledger.Ledger.m_root_at l1 n) (Iaccf_ledger.Ledger.m_root_at l2 n));
  (* The service stays live. *)
  let ok, _ = drive cluster client 2 ~timeout_ms:300_000.0 in
  check Alcotest.bool "still live" true ok

let test_live_enforcement_flow () =
  (* End-to-end §4.2 with live replicas: the enforcer collects ledgers from
     the replicas that signed the receipts; honest ledgers audit clean. *)
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let ok, receipts = drive cluster client 6 ~timeout_ms:60_000.0 in
  check Alcotest.bool "ran" true ok;
  Cluster.run cluster ~ms:1000.0;
  let enforcer =
    Enforcer.create ~genesis:(Cluster.genesis cluster)
      ~app:(App.create Cluster.counter_app_procs)
      ~pipeline:(Cluster.params cluster).Replica.pipeline
      ~checkpoint_interval:(Cluster.params cluster).Replica.checkpoint_interval
  in
  let provider rid =
    Some
      {
        Enforcer.resp_ledger = Replica.ledger (Cluster.replica cluster rid);
        resp_checkpoint = None;
      }
  in
  (match Enforcer.investigate enforcer ~receipts ~gov_receipts:[] ~provider with
  | Enforcer.No_misbehavior -> ()
  | outcome ->
      Alcotest.failf "unexpected outcome: %s"
        (match outcome with
        | Enforcer.Members_punished { punished; _ } ->
            "punished " ^ String.concat "," punished
        | Enforcer.Unresponsive_punished _ -> "unresponsive"
        | Enforcer.Auditor_punished _ -> "auditor punished"
        | Enforcer.Receipt_refused { reason } -> "receipt refused: " ^ reason
        | Enforcer.No_misbehavior -> "clean"));
  (* Same flow with an unresponsive quorum: members get punished. *)
  match Enforcer.investigate enforcer ~receipts ~gov_receipts:[] ~provider:(fun _ -> None) with
  | Enforcer.Unresponsive_punished { punished; _ } ->
      check Alcotest.bool "members punished" true (punished <> [])
  | _ -> Alcotest.fail "expected unresponsive punishment"

let test_checkpoint_based_audit_of_live_ledger () =
  (* Long-ish run with small checkpoint interval; audit from a replica's
     retained checkpoint rather than genesis. *)
  let params =
    { Replica.default_params with checkpoint_interval = 10; max_batch = 2 }
  in
  let cluster = Cluster.make ~n:4 ~params () in
  let client = Cluster.add_client cluster () in
  let ok, receipts = drive cluster client 40 ~timeout_ms:120_000.0 in
  check Alcotest.bool "ran" true ok;
  Cluster.run cluster ~ms:1000.0;
  let r0 = Cluster.replica cluster 0 in
  (* Use a checkpoint old enough that a later checkpoint transaction in the
     ledger records its digest (recorded at cp_seqno + C). *)
  let cp =
    let rec find s = if s <= 0 then None else
      match Replica.checkpoint_at r0 s with
      | Some cp -> Some cp
      | None -> find (s - 1)
    in
    find (Replica.last_committed r0 - params.Replica.checkpoint_interval - 1)
  in
  match cp with
  | None -> Alcotest.fail "no checkpoint retained"
  | Some cp ->
      check Alcotest.bool "nontrivial checkpoint" true (cp.Iaccf_kv.Checkpoint.seqno > 0);
      let auditor =
        Audit.create ~genesis:(Cluster.genesis cluster)
          ~app:(App.create Cluster.counter_app_procs) ~pipeline:params.Replica.pipeline
          ~checkpoint_interval:params.Replica.checkpoint_interval
      in
      (* Only receipts at or after the checkpoint can be audited from it. *)
      let late = List.filter (fun r -> Receipt.seqno r > cp.Iaccf_kv.Checkpoint.seqno) receipts in
      (match
         Audit.audit auditor ~receipts:late ~ledger:(Replica.ledger r0)
           ~checkpoint:cp ~responder:0 ()
       with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "checkpoint audit failed: %s"
            (Format.asprintf "%a" Audit.pp_verdict v))

let test_snapshot_bootstrap () =
  (* §3.4: a fresh replica bootstraps from a checkpoint, skipping
     re-execution of the prefix, and matches the cluster's ledger. *)
  let params =
    { Replica.default_params with checkpoint_interval = 10; max_batch = 2 }
  in
  let cluster = Cluster.make ~n:4 ~params () in
  let client = Cluster.add_client cluster () in
  let ok, _ = drive cluster client 40 ~timeout_ms:120_000.0 in
  check Alcotest.bool "workload ran" true ok;
  Cluster.run cluster ~ms:1000.0;
  let r0 = Cluster.replica cluster 0 in
  let r4 = Cluster.spawn_replica cluster ~id:4 in
  Replica.join_snapshot r4 ~from:0;
  Cluster.run cluster ~ms:2000.0;
  (* The joiner reconstructed the committed history (the serving replica
     may have view-changed meanwhile, re-signing recent batches, so ledger
     bytes can differ in the tail — content equality is what matters)... *)
  let l4 = Replica.ledger r4 in
  check Alcotest.bool "ledger long" true (Iaccf_ledger.Ledger.length l4 > 40);
  check Alcotest.bool "committed the whole workload" true
    (Replica.last_committed r4 >= 20);
  (* ...including the same application state... *)
  check
    Alcotest.(option string)
    "kv state matches"
    (Iaccf_kv.State.find_opt "counter" (Iaccf_kv.Store.map (Replica.store r0)))
    (Iaccf_kv.State.find_opt "counter" (Iaccf_kv.Store.map (Replica.store r4)));
  (* ...while having executed only the tail beyond the checkpoint. *)
  let executed r = (Replica.stats r).Replica.txs_executed in
  check Alcotest.bool
    (Printf.sprintf "executed only the tail (%d vs %d txs)" (executed r4) (executed r0))
    true
    (executed r4 < (executed r0 * 3) / 4)

let test_snapshot_rejects_unrecorded_checkpoint () =
  let params =
    { Replica.default_params with checkpoint_interval = 10; max_batch = 2 }
  in
  let cluster = Cluster.make ~n:4 ~params () in
  let client = Cluster.add_client cluster () in
  let ok, _ = drive cluster client 30 ~timeout_ms:120_000.0 in
  check Alcotest.bool "ran" true ok;
  Cluster.run cluster ~ms:1000.0;
  let r0 = Cluster.replica cluster 0 in
  let r5 = Cluster.spawn_replica cluster ~id:5 in
  (* Offer a snapshot whose bytes decode to a checkpoint no committed
     checkpoint batch records, then deliver its chunks. The joiner
     assembles it, fails digest verification at install time, and must
     never adopt the forged key-value state. *)
  (* seqno 7 is never a checkpoint (interval 10), so no committed batch can
     seal it and the serving replicas never answer chunk requests for it —
     the only bytes the joiner sees are the forged ones below. *)
  let bogus = Iaccf_kv.Checkpoint.make ~seqno:7 (Iaccf_kv.State.of_list [ ("evil", "1") ]) in
  let payload = Iaccf_kv.Checkpoint.serialize bogus in
  let chunks = Iaccf_statesync.Chunk.split ~chunk_bytes:4096 payload in
  let net = Cluster.network cluster in
  Network.send net ~src:0 ~dst:5
    (Wire.Snapshot_offer
       {
         so_cp_seqno = 7;
         so_total = List.length chunks;
         so_bytes = String.length payload;
         so_upto = Iaccf_ledger.Ledger.length (Replica.ledger r0);
         so_view = 0;
       });
  Cluster.run cluster ~ms:50.0;
  List.iteri
    (fun i c ->
      Network.send net ~src:0 ~dst:5
        (Wire.Snapshot_chunk
           {
             sc_cp_seqno = 7;
             sc_index = i;
             sc_total = List.length chunks;
             sc_data = c;
           }))
    chunks;
  Cluster.run cluster ~ms:3000.0;
  check Alcotest.bool "forged snapshot rejected at install" true
    (Iaccf_obs.Obs.counter_value (Replica.obs r5) "statesync.verify_fail" >= 1);
  check Alcotest.(option string) "forged state never installed" None
    (Iaccf_kv.State.find_opt "evil" (Iaccf_kv.Store.map (Replica.store r5)))


let () =
  Alcotest.run "iaccf_integration"
    [
      ( "adversity",
        [
          Alcotest.test_case "lossy network" `Slow test_lossy_network;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "two view changes" `Quick test_two_view_changes;
          Alcotest.test_case "restarted primary rejoins" `Quick
            test_restarted_primary_rejoins;
          Alcotest.test_case "equivocating primary" `Quick
            test_equivocating_primary_cannot_commit_both;
        ] );
      ( "accountability",
        [
          Alcotest.test_case "receipts survive view change" `Quick
            test_receipts_survive_view_change_audit;
          Alcotest.test_case "live enforcement" `Quick test_live_enforcement_flow;
          Alcotest.test_case "checkpoint audit" `Quick
            test_checkpoint_based_audit_of_live_ledger;
        ] );
      ( "snapshot bootstrap",
        [
          Alcotest.test_case "fast join" `Quick test_snapshot_bootstrap;
          Alcotest.test_case "rejects unrecorded checkpoint" `Quick
            test_snapshot_rejects_unrecorded_checkpoint;
        ] );
    ]
