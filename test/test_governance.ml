(* Reconfiguration tests (§5): referenda through gov/propose + gov/vote,
   end/start-of-configuration batches, replica addition and removal, the
   governance sub-ledger, and receipt verification across configurations. *)

open Iaccf_core
open Govtest
module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Batch = Iaccf_types.Batch
module Message = Iaccf_types.Message
module Ledger = Iaccf_ledger.Ledger
module Entry = Iaccf_ledger.Entry
module Request = Iaccf_types.Request
module D = Iaccf_crypto.Digest32

let check = Alcotest.check

let test_remove_replica () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  (* Some pre-referendum traffic. *)
  ignore (submit cluster client "counter/add" "5");
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let next = Cluster.make_next_config cluster ~remove_replicas:[ 3 ] ~base () in
  ignore (pass_referendum cluster next);
  let ok = wait_config cluster ~config_no:1 ~on:[ 0; 1; 2 ] in
  check Alcotest.bool "survivors reach config 1" true ok;
  check Alcotest.int "N is now 3" 3
    (Config.n_replicas (Replica.config (Cluster.replica cluster 0)));
  (* Retired replica is no longer active. *)
  Cluster.run cluster ~ms:1000.0;
  check Alcotest.bool "replica 3 retired" false
    (Replica.active (Cluster.replica cluster 3));
  (* Service keeps working in the new configuration. *)
  let oc = submit cluster client "counter/add" "7" in
  check Alcotest.(result string string) "post-reconfig tx" (Ok "12") oc.Client.oc_output

let test_add_replica () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit cluster client "counter/add" "1");
  (* Spawn the future replica now; it stays passive. *)
  let r4 = Cluster.spawn_replica cluster ~id:4 in
  check Alcotest.bool "not yet active" false (Replica.active r4);
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let next = Cluster.make_next_config cluster ~add_replicas:[ 4 ] ~base () in
  ignore (pass_referendum cluster next);
  let ok = wait_config cluster ~config_no:1 ~on:[ 0; 1; 2; 3 ] in
  check Alcotest.bool "old replicas reach config 1" true ok;
  (* The new replica fetches the ledger and joins (§5.1). *)
  Replica.join r4 ~from:0;
  let caught_up =
    Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () ->
        Replica.active r4
        && Replica.last_committed r4 >= Replica.last_committed (Cluster.replica cluster 0) - 4)
  in
  (if not caught_up then begin
     let r0 = Cluster.replica cluster 0 in
     Alcotest.failf "join failed: r4 act=%b s=%d lc=%d cfg=%d v=%d | r0 s=%d lc=%d v=%d act=%b"
       (Replica.active r4) (Replica.next_seqno r4) (Replica.last_committed r4)
       (Replica.config r4).Config.config_no (Replica.view r4)
       (Replica.next_seqno r0) (Replica.last_committed r0) (Replica.view r0)
       (Replica.active r0)
   end);
  check Alcotest.bool "new replica joined" true caught_up;
  check Alcotest.int "new replica in config 1" 1
    (Replica.config r4).Config.config_no;
  (* And the service now needs 5-replica quorums; traffic still flows. *)
  let oc = submit cluster client "counter/add" "2" in
  check Alcotest.(result string string) "post-add tx" (Ok "3") oc.Client.oc_output

let test_ledger_records_config_batches () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit cluster client "counter/add" "1");
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let next = Cluster.make_next_config cluster ~remove_replicas:[ 3 ] ~base () in
  ignore (pass_referendum cluster next);
  ignore (wait_config cluster ~config_no:1 ~on:[ 0; 1; 2 ]);
  ignore (submit cluster client "counter/add" "1");
  let p = (Cluster.params cluster).Replica.pipeline in
  let eoc = ref 0 and soc = ref 0 and cps = ref 0 in
  Ledger.iteri
    (fun _ e ->
      match e with
      | Entry.Pre_prepare pp -> (
          match pp.Message.kind with
          | Batch.End_of_config _ -> incr eoc
          | Batch.Start_of_config _ -> incr soc
          | Batch.Checkpoint _ -> incr cps
          | Batch.Regular -> ())
      | _ -> ())
    (Replica.ledger (Cluster.replica cluster 0));
  check Alcotest.int "2P end-of-config batches" (2 * p) !eoc;
  check Alcotest.int "P start-of-config batches" p !soc;
  check Alcotest.bool "config-start checkpoint recorded" true (!cps >= 1)

let test_gov_receipts_collected () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit cluster client "counter/add" "1");
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let next = Cluster.make_next_config cluster ~remove_replicas:[ 3 ] ~base () in
  ignore (pass_referendum cluster next);
  ignore (wait_config cluster ~config_no:1 ~on:[ 0; 1; 2 ]);
  Cluster.run cluster ~ms:2000.0;
  let receipts = Replica.gov_receipts (Cluster.replica cluster 0) in
  (* propose + 3 votes + P-th end-of-config batch. *)
  check Alcotest.bool
    (Printf.sprintf "at least 5 governance receipts (got %d)" (List.length receipts))
    true
    (List.length receipts >= 5);
  (* The chain verifies from genesis and yields the new configuration. *)
  let chain =
    Govchain.create (Cluster.genesis cluster)
      ~pipeline:(Cluster.params cluster).Replica.pipeline
  in
  (match Govchain.sync_from chain receipts with
  | Ok () -> ()
  | Error e -> Alcotest.failf "gov chain rejected: %s" e);
  check Alcotest.int "chain reaches config 1" 1
    (Govchain.latest_config chain).Config.config_no

let test_client_verifies_across_reconfig () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit cluster client "counter/add" "1");
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let next = Cluster.make_next_config cluster ~remove_replicas:[ 3 ] ~base () in
  ignore (pass_referendum cluster next);
  ignore (wait_config cluster ~config_no:1 ~on:[ 0; 1; 2 ]);
  (* A *fresh* client (knowing only the genesis) submits after the change:
     verification requires fetching the governance sub-ledger (§5.2). *)
  let fresh = Cluster.add_client cluster () in
  let result = ref None in
  Client.submit fresh ~proc:"counter/add" ~args:"10"
    ~on_complete:(fun oc -> result := Some oc)
    ();
  let ok = Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () -> !result <> None) in
  check Alcotest.bool "fresh client completed" true ok;
  check Alcotest.int "its chain reached config 1" 1
    (Govchain.latest_config (Client.govchain fresh)).Config.config_no;
  check Alcotest.int "no failed verifications" 0 (Client.failed_verifications fresh)

let test_non_member_cannot_govern () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let next = Cluster.make_next_config cluster ~remove_replicas:[ 3 ] ~base () in
  let oc = submit cluster client "gov/propose" (Config.serialize next) in
  check Alcotest.bool "rejected" true (Result.is_error oc.Client.oc_output)

let test_vote_bookkeeping () =
  let cluster = Cluster.make ~n:4 () in
  let members = Cluster.members cluster in
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let next = Cluster.make_next_config cluster ~remove_replicas:[ 3 ] ~base () in
  let m0 = Cluster.add_member_client cluster (List.nth members 0) in
  let m1 = Cluster.add_member_client cluster (List.nth members 1) in
  let oc = submit cluster m0 "gov/propose" (Config.serialize next) in
  let id = Result.get_ok oc.Client.oc_output in
  (* Double vote rejected; double proposal votes counted once. *)
  let v1 = submit cluster m1 "gov/vote" id in
  check Alcotest.(result string string) "first vote" (Ok "voted:1/3") v1.Client.oc_output;
  let v2 = submit cluster m1 "gov/vote" id in
  check Alcotest.bool "double vote rejected" true (Result.is_error v2.Client.oc_output);
  let v3 = submit cluster m1 "gov/vote" "no-such-proposal" in
  check Alcotest.bool "unknown proposal rejected" true (Result.is_error v3.Client.oc_output)


let test_remove_primary () =
  (* Removing the view-0 primary: the new configuration's primary mapping
     changes (ids are stable, so view 0 of config 1 maps to replica 1). *)
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit cluster client "counter/add" "3");
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let next = Cluster.make_next_config cluster ~remove_replicas:[ 0 ] ~base () in
  ignore (pass_referendum cluster next);
  let ok = wait_config cluster ~config_no:1 ~on:[ 1; 2; 3 ] in
  check Alcotest.bool "survivors reach config 1" true ok;
  Cluster.run cluster ~ms:2000.0;
  check Alcotest.bool "old primary retired" false
    (Replica.active (Cluster.replica cluster 0));
  (* Service continues under the new primary set. *)
  let oc = submit cluster client "counter/add" "4" in
  check Alcotest.(result string string) "tx under new primaries" (Ok "7")
    oc.Client.oc_output

(* Removing replica 0 hands each surviving replica id to another member
   (Cluster.make_next_config gives operators by list position). With no
   signer answering, the enforcer punishes the operators that the
   receipt's own configuration names, not the genesis ones. *)
let test_enforcer_punishes_current_operators () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit cluster client "counter/add" "3");
  let genesis = Cluster.genesis cluster and params = Cluster.params cluster in
  let base = genesis.Genesis.initial_config in
  let next = Cluster.make_next_config cluster ~remove_replicas:[ 0 ] ~base () in
  ignore (pass_referendum cluster next);
  check Alcotest.bool "survivors reach config 1" true
    (wait_config cluster ~config_no:1 ~on:[ 1; 2; 3 ]);
  let receipt = (submit cluster client "counter/add" "4").Client.oc_receipt in
  let signers = Iaccf_util.Bitmap.to_list (Receipt.signers receipt) in
  let operators config =
    List.sort_uniq compare (List.filter_map (Config.operator_of_replica config) signers)
  in
  check Alcotest.bool "the signers changed hands" true (operators next <> operators base);
  let enforcer =
    Enforcer.create ~genesis ~app:(Cluster.app cluster) ~pipeline:params.Replica.pipeline
      ~checkpoint_interval:params.Replica.checkpoint_interval
  in
  match
    Enforcer.investigate enforcer ~receipts:[ receipt ]
      ~gov_receipts:(Replica.gov_receipts (Cluster.replica cluster 1))
      ~provider:(fun _ -> None)
  with
  | Enforcer.Unresponsive_punished { punished; _ } ->
      check Alcotest.(list string) "the receipt's configuration's operators"
        (operators next) punished
  | _ -> Alcotest.fail "expected unresponsive punishment"

(* The seqno of the last start-of-configuration batch in a ledger. *)
let last_start_seqno ledger ~pipeline =
  let found = ref None in
  Ledger.iteri
    (fun _ e ->
      match e with
      | Entry.Pre_prepare { Message.kind = Batch.Start_of_config { phase }; seqno; _ }
        when phase = pipeline ->
          found := Some seqno
      | _ -> ())
    ledger;
  !found

let test_removed_primary_retires_after_commit () =
  (* The old primary signs the activation batch; it must still prepare and
     reveal its nonce for it, or the new primary finds no commitment
     evidence for that batch and the survivors change view. *)
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit cluster client "counter/add" "3");
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let next = Cluster.make_next_config cluster ~remove_replicas:[ 0 ] ~base () in
  ignore (pass_referendum cluster next);
  let pipeline = (Cluster.params cluster).Replica.pipeline in
  let survivors = List.map (Cluster.replica cluster) [ 1; 2; 3 ] in
  let started r =
    match last_start_seqno (Replica.ledger r) ~pipeline with
    | Some s -> Replica.last_committed r >= s
    | None -> false
  in
  let ok = Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () -> List.for_all started survivors) in
  check Alcotest.bool "start-of-configuration batches commit" true ok;
  List.iter
    (fun r -> check Alcotest.int (Printf.sprintf "replica %d in view 0" (Replica.id r)) 0 (Replica.view r))
    survivors;
  Cluster.run cluster ~ms:1000.0;
  check Alcotest.bool "old primary retired" false (Replica.active (Cluster.replica cluster 0))

(* The audit checks prepares against keys that a vote installs during
   the scan: replica 4 replaces replica 1, and with replica 2 stopped
   every quorum of the new configuration needs replica 4's prepare. The
   ledger audits clean at widths 1 and 2. *)
let test_audit_plans_installed_keys () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit cluster client "counter/add" "1");
  let r4 = Cluster.spawn_replica cluster ~id:4 in
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let cfg1 =
    Cluster.make_next_config cluster ~add_replicas:[ 4 ] ~remove_replicas:[ 1 ] ~base ()
  in
  ignore (pass_referendum cluster cfg1);
  check Alcotest.bool "config 1" true (wait_config cluster ~config_no:1 ~on:[ 0; 2; 3 ]);
  Replica.join r4 ~from:0;
  check Alcotest.bool "replica 4 joined" true
    (Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () -> Replica.active r4));
  Replica.stop (Cluster.replica cluster 2);
  for i = 2 to 6 do
    ignore (submit cluster client "counter/add" (string_of_int i))
  done;
  let ledger = Replica.ledger (Cluster.replica cluster 0) in
  let prepared_by_4 =
    List.exists
      (fun (_, e) ->
        match e with
        | Entry.Prepare_evidence { pe_prepares; _ } ->
            List.exists (fun (p : Message.prepare) -> p.Message.p_replica = 4) pe_prepares
        | _ -> false)
      (Ledger.entries ledger ())
  in
  check Alcotest.bool "replica 4 signs prepare evidence" true prepared_by_4;
  let auditor =
    Audit.create ~genesis:(Cluster.genesis cluster) ~app:(App.create Cluster.counter_app_procs)
      ~pipeline:(Cluster.params cluster).Replica.pipeline
      ~checkpoint_interval:(Cluster.params cluster).Replica.checkpoint_interval
  in
  List.iter
    (fun width ->
      match Audit.audit_at_width ~width auditor ~receipts:[] ~ledger ~responder:0 () with
      | Ok () -> ()
      | Error v -> Alcotest.failf "audit at width %d: %a" width Audit.pp_verdict v)
    [ 1; 2 ]

(* Adding replica 4 to four replicas raises the quorum from 3 to 4. The
   evidence of configuration 0's last batches, recorded after the new
   configuration is active, and the receipts of its batches must still
   have configuration 0's size: replica 0's ledger audits clean, and
   every batch of configuration 0 has a receipt that verifies. *)
let test_quorum_change_keeps_batch_quorum () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit cluster client "counter/add" "1");
  let r4 = Cluster.spawn_replica cluster ~id:4 in
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let next = Cluster.make_next_config cluster ~add_replicas:[ 4 ] ~base () in
  check Alcotest.(pair int int) "quorum 3 -> 4" (3, 4) (Config.quorum base, Config.quorum next);
  ignore (pass_referendum cluster next);
  check Alcotest.bool "config 1" true (wait_config cluster ~config_no:1 ~on:[ 0; 1; 2; 3 ]);
  Replica.join r4 ~from:0;
  check Alcotest.bool "replica 4 joined" true
    (Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () -> Replica.active r4));
  ignore (submit cluster client "counter/add" "2");
  let r0 = Cluster.replica cluster 0 in
  let pipeline = (Cluster.params cluster).Replica.pipeline in
  let auditor =
    Audit.create ~genesis:(Cluster.genesis cluster) ~app:(App.create Cluster.counter_app_procs)
      ~pipeline ~checkpoint_interval:(Cluster.params cluster).Replica.checkpoint_interval
  in
  List.iter
    (fun width ->
      match
        Audit.audit_at_width ~width auditor ~receipts:[] ~ledger:(Replica.ledger r0)
          ~responder:0 ()
      with
      | Ok () -> ()
      | Error v -> Alcotest.failf "audit at width %d: %a" width Audit.pp_verdict v)
    [ 1; 2 ];
  let chain = Govchain.create (Cluster.genesis cluster) ~pipeline in
  (match Govchain.sync_from chain (Replica.gov_receipts r0) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "gov chain rejected: %s" e);
  let old_batches =
    List.filter
      (fun s -> (Govchain.config_for_seqno chain s).Config.config_no = 0)
      (List.init (Replica.last_committed r0) (fun s -> s + 1))
  in
  check Alcotest.bool "configuration 0 ran batches" true (old_batches <> []);
  List.iter
    (fun s ->
      (* A transaction receipt, or a batch receipt for an empty batch. *)
      let receipt =
        match Replica.build_receipt r0 ~seqno:s ~tx_position:(Some 0) with
        | Some r -> Some r
        | None -> Replica.build_receipt r0 ~seqno:s ~tx_position:None
      in
      match receipt with
      | None -> Alcotest.failf "no receipt for batch %d" s
      | Some r -> (
          match Govchain.verify_receipt chain r with
          | Ok () -> ()
          | Error e -> Alcotest.failf "receipt for batch %d: %s" s e))
    old_batches

let test_two_reconfigurations () =
  (* 4 -> 5 (add replica 4) -> 4 (remove replica 1): the governance
     sub-ledger chains two configuration changes and a fresh client still
     verifies end-to-end. *)
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit cluster client "counter/add" "1");
  let r4 = Cluster.spawn_replica cluster ~id:4 in
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let cfg1 = Cluster.make_next_config cluster ~add_replicas:[ 4 ] ~base () in
  ignore (pass_referendum cluster cfg1);
  let ok = wait_config cluster ~config_no:1 ~on:[ 0; 1; 2; 3 ] in
  check Alcotest.bool "config 1" true ok;
  Replica.join r4 ~from:0;
  let ok =
    Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () -> Replica.active r4)
  in
  check Alcotest.bool "replica 4 joined" true ok;
  (* Second referendum on top of configuration 1. *)
  let cfg2 = Cluster.make_next_config cluster ~remove_replicas:[ 1 ] ~base:cfg1 () in
  ignore (pass_referendum cluster cfg2);
  let ok = wait_config cluster ~config_no:2 ~on:[ 0; 2; 3; 4 ] in
  check Alcotest.bool "config 2" true ok;
  Cluster.run cluster ~ms:2000.0;
  check Alcotest.bool "replica 1 retired" false
    (Replica.active (Cluster.replica cluster 1));
  (* Fresh client: must chain receipts across BOTH reconfigurations. *)
  let fresh = Cluster.add_client cluster () in
  let oc = submit cluster fresh "counter/add" "10" in
  check Alcotest.bool "tx verified" true (Result.is_ok oc.Client.oc_output);
  check Alcotest.int "fresh chain reaches config 2" 2
    (Govchain.latest_config (Client.govchain fresh)).Config.config_no;
  check Alcotest.int "no failed verifications" 0 (Client.failed_verifications fresh)

(* --- the shared schedule ------------------------------------------------ *)

(* One identity for every case: a 4-replica genesis, its members, and the
   configuration that removes replica 3. *)
let sched_cluster = lazy (Cluster.make ~n:4 ())

(* A forged history whose batch at the returned seqno passes a referendum
   installing [next]: the governance chain learns its configurations from
   the propose and passed-vote receipts, as a client does. *)
let govchain_after_vote ~pipeline ~interval ~padding next =
  let cluster = Lazy.force sched_cluster in
  let genesis = Cluster.genesis cluster in
  let forge =
    Forge.create ~genesis
      ~sks:(List.init 4 (fun i -> (i, Cluster.replica_sk cluster i)))
      ~app:(App.create Cluster.counter_app_procs) ~pipeline ~checkpoint_interval:interval
  in
  let service = Genesis.hash genesis in
  let request ?(seqno = 0) (m : Cluster.member_identity) proc args =
    Request.make ~sk:m.Cluster.mi_sk ~client_pk:m.Cluster.mi_pk ~service ~client_seqno:seqno
      ~proc ~args ()
  in
  let members = Cluster.members cluster in
  let m0 = List.hd members in
  for i = 1 to padding do
    ignore (Forge.add_batch forge [ request ~seqno:(100 + i) m0 "counter/add" "1" ])
  done;
  let proposal = Config.serialize next in
  let id = D.to_hex (D.of_string proposal) in
  let vote_seqno =
    Forge.add_batch forge
      (request m0 "gov/propose" proposal
      :: List.filteri (fun i _ -> i < 3) (List.mapi (fun i m -> request ~seqno:(1 + i) m "gov/vote" id) members))
  in
  let chain = Govchain.create genesis ~pipeline in
  List.iter
    (fun tx_position ->
      match
        Govchain.add_receipt chain (Forge.make_receipt forge ~seqno:vote_seqno ~tx_position:(Some tx_position))
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "governance chain rejected a receipt: %s" e)
    [ 0; 3 ];
  (vote_seqno, chain)

(* Every kind a faulty primary might put at seqno [s], around the right one. *)
let candidate_kinds ~s ~vote_seqno ~latest_cp ~digest ~root =
  let around x = [ x - 1; x; x + 1 ] in
  let other = D.of_string "other" in
  (Batch.Regular
  :: List.concat_map
       (fun cp_seqno ->
         Batch.Checkpoint { cp_seqno; cp_digest = other }
         :: Option.to_list
              (Option.map (fun cp_digest -> Batch.Checkpoint { cp_seqno; cp_digest }) (digest cp_seqno)))
       [ latest_cp; s - 1; s - 2; 0 ])
  @ List.concat_map
      (fun phase ->
        [
          Batch.End_of_config { phase; committed_root = root };
          Batch.End_of_config { phase; committed_root = other };
        ])
      (around (s - vote_seqno))
  @ List.map (fun phase -> Batch.Start_of_config { phase }) (around (s - latest_cp - 1))

let prop_one_schedule =
  QCheck.Test.make ~count:40 ~name:"primary, backup, auditor and govchain share one schedule"
    QCheck.(quad (int_range 1 3) (int_range 1 8) (int_range 0 20) bool)
    (fun (pipeline, gap, padding, checkpoints) ->
      let interval = pipeline + gap in
      let rule = { Schedule.pipeline; interval; checkpoints } in
      let cluster = Lazy.force sched_cluster in
      let c0 = (Cluster.genesis cluster).Genesis.initial_config in
      let c1 = Cluster.make_next_config cluster ~remove_replicas:[ 3 ] ~base:c0 () in
      let vote_seqno, chain = govchain_after_vote ~pipeline ~interval ~padding c1 in
      let activation = Schedule.activation ~pipeline ~vote_seqno in
      let timeline = Schedule.extend (Schedule.timeline c0) ~pipeline ~vote_seqno c1 in
      let root = D.of_string "root after the vote" in
      (* The replica: plan or check each seqno, then step past it. *)
      let digests = Hashtbl.create 8 in
      Hashtbl.replace digests 0 (D.of_string "cp 0");
      let digest = Hashtbl.find_opt digests in
      let phase = ref Schedule.Normal and latest_cp = ref 0 and cfg = ref c0 in
      for s = 1 to activation + 1 + pipeline + interval do
        let slot = Schedule.slot rule !phase ~latest_cp:!latest_cp ~digest s in
        let planned =
          match slot with
          | Schedule.Regular -> Batch.Regular
          | Schedule.Fixed kind -> kind
          | Schedule.Closed -> QCheck.Test.fail_reportf "seqno %d closed" s
        in
        (* The paper's shape (§5.1): 2P end batches, the activation
           checkpoint, P start batches; the interval elsewhere. *)
        let expected =
          if s > vote_seqno && s <= activation then
            Batch.End_of_config { phase = s - vote_seqno; committed_root = root }
          else if s = activation + 1 then
            Batch.Checkpoint { cp_seqno = activation; cp_digest = Option.get (digest activation) }
          else if s > activation + 1 && s <= activation + 1 + pipeline then
            Batch.Start_of_config { phase = s - activation - 1 }
          else if checkpoints && s mod interval = 0 then
            Batch.Checkpoint { cp_seqno = !latest_cp; cp_digest = Option.get (digest !latest_cp) }
          else Batch.Regular
        in
        if not (Batch.kind_equal planned expected) then
          QCheck.Test.fail_reportf "seqno %d: planned %a, expected %a" s Batch.pp_kind planned
            Batch.pp_kind expected;
        List.iter
          (fun kind ->
            if Schedule.accepts slot kind <> Batch.kind_equal kind planned then
              QCheck.Test.fail_reportf "seqno %d: backup %s %a" s
                (if Schedule.accepts slot kind then "accepts" else "rejects")
                Batch.pp_kind kind)
          (candidate_kinds ~s ~vote_seqno ~latest_cp:!latest_cp ~digest ~root);
        let config_no c = c.Config.config_no in
        if
          config_no (Schedule.config_at timeline s) <> config_no !cfg
          || config_no (Govchain.config_for_seqno chain s) <> config_no !cfg
        then
          QCheck.Test.fail_reportf "seqno %d: replica runs config %d, timeline %d, govchain %d" s
            (config_no !cfg)
            (config_no (Schedule.config_at timeline s))
            (config_no (Govchain.config_for_seqno chain s));
        let step =
          Schedule.step rule !phase s ~passed:(fun () ->
              if s = vote_seqno then Some (c1, root) else None)
        in
        Option.iter (fun c -> cfg := c) step.Schedule.activate;
        if step.Schedule.checkpoint then begin
          Hashtbl.replace digests s (D.of_string (Printf.sprintf "cp %d" s));
          latest_cp := s
        end;
        phase := step.Schedule.next
      done;
      Schedule.activates timeline activation && !phase = Schedule.Normal)

let () =
  Alcotest.run "iaccf_governance"
    [
      ( "reconfiguration",
        [
          Alcotest.test_case "remove replica" `Quick test_remove_replica;
          Alcotest.test_case "add replica" `Quick test_add_replica;
          Alcotest.test_case "config batches in ledger" `Quick
            test_ledger_records_config_batches;
          Alcotest.test_case "remove primary" `Quick test_remove_primary;
          Alcotest.test_case "removed primary retires after commit" `Quick
            test_removed_primary_retires_after_commit;
          Alcotest.test_case "two reconfigurations" `Quick test_two_reconfigurations;
          Alcotest.test_case "audit plans installed keys" `Quick test_audit_plans_installed_keys;
          Alcotest.test_case "quorum change keeps batch quorum" `Quick
            test_quorum_change_keeps_batch_quorum;
        ] );
      ( "governance sub-ledger",
        [
          Alcotest.test_case "receipts collected" `Quick test_gov_receipts_collected;
          Alcotest.test_case "client verifies across reconfig" `Quick
            test_client_verifies_across_reconfig;
          Alcotest.test_case "enforcer punishes current operators" `Quick
            test_enforcer_punishes_current_operators;
        ] );
      ("schedule", [ QCheck_alcotest.to_alcotest prop_one_schedule ]);
      ( "voting",
        [
          Alcotest.test_case "non-member rejected" `Quick test_non_member_cannot_govern;
          Alcotest.test_case "vote bookkeeping" `Quick test_vote_bookkeeping;
        ] );
    ]
