(* Auditing tests (Alg. 4, Appx. B): honest ledgers audit clean; every
   misbehavior class yields a uPoM blaming at least f+1 replicas, even with
   all replicas colluding (via the Forge attack harness). *)

open Iaccf_core
module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Request = Iaccf_types.Request
module Batch = Iaccf_types.Batch
module Message = Iaccf_types.Message
module Ledger = Iaccf_ledger.Ledger
module Entry = Iaccf_ledger.Entry
module Bitmap = Iaccf_util.Bitmap
module D = Iaccf_crypto.Digest32
module Schnorr = Iaccf_crypto.Schnorr

let check = Alcotest.check

(* A quorum-of-keys playground built from a 4-replica cluster's identity. *)
type world = {
  w_cluster : Cluster.t;
  w_genesis : Genesis.t;
  w_app : App.t;
  w_sks : (int * Schnorr.secret_key) list;
  w_client_sk : Schnorr.secret_key;
  w_client_pk : Schnorr.public_key;
}

let make_world ?(n = 4) () =
  let cluster = Cluster.make ~n () in
  let genesis = Cluster.genesis cluster in
  let app = App.create Cluster.counter_app_procs in
  let sks = List.init n (fun i -> (i, Cluster.replica_sk cluster i)) in
  let client_sk, client_pk = Schnorr.keypair_of_seed "audit-client" in
  {
    w_cluster = cluster;
    w_genesis = genesis;
    w_app = app;
    w_sks = sks;
    w_client_sk = client_sk;
    w_client_pk = client_pk;
  }

let request w ?(min_index = 0) ?(client_seqno = 0) proc args =
  Request.make ~sk:w.w_client_sk ~client_pk:w.w_client_pk
    ~service:(Genesis.hash w.w_genesis) ~min_index ~client_seqno ~proc ~args ()

let make_forge ?(pipeline = 2) ?(checkpoint_interval = 100) w =
  Forge.create ~genesis:w.w_genesis ~sks:w.w_sks ~app:w.w_app ~pipeline
    ~checkpoint_interval

let make_auditor ?(pipeline = 2) ?(checkpoint_interval = 100) w =
  Audit.create ~genesis:w.w_genesis ~app:w.w_app ~pipeline ~checkpoint_interval

let expect_blame ~min_f1 result =
  match result with
  | Ok () -> Alcotest.fail "expected a verdict, audit came back clean"
  | Error (v : Audit.verdict) ->
      check Alcotest.bool
        (Printf.sprintf "blames >= %d replicas (got %d)" min_f1
           (Bitmap.cardinal v.Audit.v_blamed_replicas))
        true
        (Bitmap.cardinal v.Audit.v_blamed_replicas >= min_f1);
      v

(* --- clean audits --- *)

let test_forged_honest_ledger_audits_clean () =
  let w = make_world () in
  let forge = make_forge w in
  let s1 =
    Forge.add_batch forge [ request w ~client_seqno:0 "counter/add" "5" ]
  in
  let _ =
    Forge.add_batch forge [ request w ~client_seqno:1 "counter/add" "7" ]
  in
  let receipt = Forge.make_receipt forge ~seqno:s1 ~tx_position:(Some 0) in
  let auditor = make_auditor w in
  match
    Audit.audit auditor ~receipts:[ receipt ] ~ledger:(Forge.ledger forge)
      ~responder:0 ()
  with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "clean audit failed: %s" (Format.asprintf "%a" Audit.pp_verdict v)

let test_real_cluster_ledger_audits_clean () =
  (* The strict well-formedness scan must accept a ledger produced by the
     actual replica implementation. *)
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let receipts = ref [] in
  for i = 1 to 12 do
    Client.submit client ~proc:"counter/add" ~args:(string_of_int i)
      ~on_complete:(fun oc -> receipts := oc.Client.oc_receipt :: !receipts)
      ()
  done;
  let ok = Cluster.run_until cluster (fun () -> List.length !receipts = 12) in
  check Alcotest.bool "cluster ran" true ok;
  Cluster.run cluster ~ms:100.0;
  let r0 = Cluster.replica cluster 0 in
  (* Use the committed prefix: drop any trailing speculative entries. *)
  let ledger = Replica.ledger r0 in
  let auditor =
    Audit.create ~genesis:(Cluster.genesis cluster)
      ~app:(App.create Cluster.counter_app_procs)
      ~pipeline:(Cluster.params cluster).Replica.pipeline
      ~checkpoint_interval:(Cluster.params cluster).Replica.checkpoint_interval
  in
  match Audit.audit auditor ~receipts:!receipts ~ledger ~responder:0 () with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "real ledger failed audit: %s"
        (Format.asprintf "%a" Audit.pp_verdict v)

(* --- wrong execution (all replicas collude on a bad result) --- *)

let test_wrong_execution_detected () =
  let w = make_world () in
  let forge = make_forge w in
  let victim = request w ~client_seqno:0 "counter/add" "5" in
  let forged_output = App.output_ok "999999" in
  let s =
    Forge.add_batch forge
      ~execute_override:(fun req _ ->
        if req.Request.client_seqno = 0 then
          Some (forged_output, D.of_string "forged-write-set")
        else None)
      [ victim ]
  in
  (* The client's receipt is consistent with the forged ledger: the fraud
     is only visible by re-executing. *)
  let receipt = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  let auditor = make_auditor w in
  let v =
    expect_blame ~min_f1:2
      (Audit.audit auditor ~receipts:[ receipt ] ~ledger:(Forge.ledger forge)
         ~responder:0 ())
  in
  (match v.Audit.v_upom with
  | Audit.Wrong_execution _ -> ()
  | u -> Alcotest.failf "expected wrong-execution, got %s" (Format.asprintf "%a" Audit.pp_upom u));
  check Alcotest.bool "members blamed" true (v.Audit.v_blamed_members <> [])

(* --- ledger rewrite: receipt not in ledger (Lemma 5, same view) --- *)

let test_rewritten_history_detected () =
  let w = make_world () in
  (* World A: the honest history; the client keeps its receipt. *)
  let forge_a = make_forge w in
  let s =
    Forge.add_batch forge_a [ request w ~client_seqno:0 "counter/add" "5" ]
  in
  let receipt = Forge.make_receipt forge_a ~seqno:s ~tx_position:(Some 0) in
  (* World B: the colluding replicas rewrite history without that tx. *)
  let forge_b = make_forge w in
  let _ =
    Forge.add_batch forge_b [ request w ~client_seqno:9 "counter/add" "1" ]
  in
  let auditor = make_auditor w in
  let v =
    expect_blame ~min_f1:2
      (Audit.audit auditor ~receipts:[ receipt ] ~ledger:(Forge.ledger forge_b)
         ~responder:0 ())
  in
  match v.Audit.v_upom with
  | Audit.Receipt_not_in_ledger { rn_case = `Same_view; _ } -> ()
  | u -> Alcotest.failf "expected same-view receipt mismatch, got %s" (Format.asprintf "%a" Audit.pp_upom u)

(* --- cross-view blame (Lemma 5, cases v_l > v_r and v_l < v_r) --- *)

let test_ledger_view_higher_detected () =
  (* The colluders erase history with a forged view change and rebuild a
     different batch at the receipt's slot in view 1; the view-change
     messages that deny preparing the batch convict them. *)
  let w = make_world () in
  let forge = make_forge w in
  let s = Forge.add_batch forge [ request w ~client_seqno:0 "counter/add" "5" ] in
  let receipt = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  (* Same forge continues: rewrite via view change. *)
  let forge2 = make_forge w in
  Forge.add_view_change forge2;
  let _ = Forge.add_batch forge2 [ request w ~client_seqno:7 "counter/add" "9" ] in
  let auditor = make_auditor w in
  let v =
    expect_blame ~min_f1:2
      (Audit.audit auditor ~receipts:[ receipt ] ~ledger:(Forge.ledger forge2)
         ~responder:0 ())
  in
  match v.Audit.v_upom with
  | Audit.Receipt_not_in_ledger { rn_case = `Ledger_view_higher; _ } -> ()
  | u ->
      Alcotest.failf "expected ledger-view-higher, got %s"
        (Format.asprintf "%a" Audit.pp_upom u)

let test_receipt_view_higher_detected () =
  (* The receipt was minted in view 1 (after a forged view change), but the
     responder's ledger shows a view-0 batch at that slot, plus view-change
     messages for view 1 in which nobody reported preparing the receipt's
    batch. *)
  let w = make_world () in
  (* Receipt world: empty-history view change, then the batch in view 1. *)
  let forge_r = make_forge w in
  Forge.add_view_change forge_r;
  let s = Forge.add_batch forge_r [ request w ~client_seqno:0 "counter/add" "5" ] in
  let receipt = Forge.make_receipt forge_r ~seqno:s ~tx_position:(Some 0) in
  (* Ledger world: a different view-0 batch at the slot, and the same
     "nothing prepared" view change for view 1 afterwards. *)
  let forge_l = make_forge w in
  let _ = Forge.add_batch forge_l [ request w ~client_seqno:9 "counter/add" "1" ] in
  Forge.add_view_change forge_l;
  let auditor = make_auditor w in
  let v =
    expect_blame ~min_f1:2
      (Audit.audit auditor ~receipts:[ receipt ] ~ledger:(Forge.ledger forge_l)
         ~responder:0 ())
  in
  match v.Audit.v_upom with
  | Audit.Receipt_not_in_ledger { rn_case = `Receipt_view_higher; _ } -> ()
  | u ->
      Alcotest.failf "expected receipt-view-higher, got %s"
        (Format.asprintf "%a" Audit.pp_upom u)

(* --- tied receipts --- *)

let test_tied_receipts_detected () =
  let w = make_world () in
  let forge_a = make_forge w in
  let forge_b = make_forge w in
  let sa = Forge.add_batch forge_a [ request w ~client_seqno:0 "counter/add" "5" ] in
  let sb = Forge.add_batch forge_b [ request w ~client_seqno:1 "counter/add" "6" ] in
  let ra = Forge.make_receipt forge_a ~seqno:sa ~tx_position:(Some 0) in
  let rb = Forge.make_receipt forge_b ~seqno:sb ~tx_position:(Some 0) in
  let auditor = make_auditor w in
  let v =
    expect_blame ~min_f1:2
      (Audit.audit auditor ~receipts:[ ra; rb ] ~ledger:(Forge.ledger forge_a)
         ~responder:0 ())
  in
  match v.Audit.v_upom with
  | Audit.Tied_receipts _ -> ()
  | u -> Alcotest.failf "expected tied receipts, got %s" (Format.asprintf "%a" Audit.pp_upom u)

(* --- invalid receipts --- *)

let test_tampered_receipt_rejected () =
  let w = make_world () in
  let forge = make_forge w in
  let s = Forge.add_batch forge [ request w "counter/add" "5" ] in
  let receipt = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  let tampered = Forge.tamper_tx_output receipt ~output:(App.output_ok "1000000") in
  let auditor = make_auditor w in
  match
    Audit.audit auditor ~receipts:[ tampered ] ~ledger:(Forge.ledger forge)
      ~responder:0 ()
  with
  | Error { Audit.v_upom = Audit.Invalid_receipt _; _ } -> ()
  | Error v -> Alcotest.failf "unexpected verdict %s" (Format.asprintf "%a" Audit.pp_verdict v)
  | Ok () -> Alcotest.fail "tampered receipt accepted"

(* --- malformed ledgers --- *)

let rebuild_without ledger pred =
  let entries =
    List.filter_map
      (fun (i, e) -> if pred i e then None else Some e)
      (Ledger.entries ledger ())
  in
  Ledger.of_entries entries

let test_missing_evidence_is_malformed () =
  let w = make_world () in
  let forge = make_forge w in
  for i = 0 to 4 do
    ignore (Forge.add_batch forge [ request w ~client_seqno:i "counter/add" "1" ])
  done;
  let broken =
    rebuild_without (Forge.ledger forge) (fun _ e ->
        match e with Entry.Prepare_evidence _ | Entry.Nonce_evidence _ -> true | _ -> false)
  in
  let auditor = make_auditor w in
  match Audit.audit auditor ~receipts:[] ~ledger:broken ~responder:3 () with
  | Error { Audit.v_upom = Audit.Malformed_ledger { ml_responder = 3; _ }; _ } -> ()
  | Error v -> Alcotest.failf "unexpected verdict %s" (Format.asprintf "%a" Audit.pp_verdict v)
  | Ok () -> Alcotest.fail "malformed ledger accepted"

let test_dropped_tx_breaks_g_root () =
  let w = make_world () in
  let forge = make_forge w in
  let s =
    Forge.add_batch forge
      [ request w ~client_seqno:0 "counter/add" "1"; request w ~client_seqno:1 "counter/add" "2" ]
  in
  ignore s;
  (* Drop one transaction entry: indices and g_root no longer line up. *)
  let dropped = ref false in
  let broken =
    rebuild_without (Forge.ledger forge) (fun _ e ->
        match e with
        | Entry.Tx _ when not !dropped ->
            dropped := true;
            true
        | _ -> false)
  in
  let auditor = make_auditor w in
  match Audit.audit auditor ~receipts:[] ~ledger:broken ~responder:1 () with
  | Error { Audit.v_upom = Audit.Malformed_ledger _; _ } -> ()
  | Error v -> Alcotest.failf "unexpected verdict %s" (Format.asprintf "%a" Audit.pp_verdict v)
  | Ok () -> Alcotest.fail "ledger with dropped tx accepted"

(* --- checkpoints --- *)

(* The ledger of a cluster that removed replica 3, with the checkpoint
   taken at the activation batch: replay starts mid-history, under the
   configuration the scan derives from the passed vote. *)
let reconfigured_at_activation () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (Govtest.submit cluster client "counter/add" "1");
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let next = Cluster.make_next_config cluster ~remove_replicas:[ 3 ] ~base () in
  ignore (Govtest.pass_referendum cluster next);
  check Alcotest.bool "reconfigured" true
    (Govtest.wait_config cluster ~config_no:1 ~on:[ 0; 1; 2 ]);
  ignore (Govtest.submit cluster client "counter/add" "2");
  let params = Cluster.params cluster in
  let r0 = Cluster.replica cluster 0 in
  let activation = ref None in
  Ledger.iteri
    (fun _ e ->
      match e with
      | Entry.Pre_prepare { Message.kind = Batch.End_of_config { phase; _ }; seqno; _ }
        when phase = 2 * params.Replica.pipeline ->
          activation := Some seqno
      | _ -> ())
    (Replica.ledger r0);
  let cp = Option.get (Replica.checkpoint_at r0 (Option.get !activation)) in
  let auditor =
    Audit.create ~genesis:(Cluster.genesis cluster)
      ~app:(App.create Cluster.counter_app_procs)
      ~pipeline:params.Replica.pipeline ~checkpoint_interval:params.Replica.checkpoint_interval
  in
  (auditor, Replica.ledger r0, cp)

let test_audit_from_checkpoint () =
  let w = make_world () in
  let forge = make_forge ~checkpoint_interval:5 w in
  for i = 0 to 19 do
    ignore (Forge.add_batch forge [ request w ~client_seqno:i "counter/add" "1" ])
  done;
  let cp =
    match Forge.checkpoint_at forge 10 with
    | Some cp -> cp
    | None -> Alcotest.fail "no checkpoint at 10"
  in
  let auditor = make_auditor ~checkpoint_interval:5 w in
  List.iter
    (fun (name, (auditor, ledger, cp)) ->
      match Audit.audit auditor ~receipts:[] ~ledger ~checkpoint:cp ~responder:0 () with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "%s: checkpoint audit failed: %s" name
            (Format.asprintf "%a" Audit.pp_verdict v))
    [
      ("forged", (auditor, Forge.ledger forge, cp));
      ("reconfigured", reconfigured_at_activation ());
    ];
  (* A checkpoint whose digest the ledger never recorded is rejected. *)
  let bogus = Iaccf_kv.Checkpoint.make ~seqno:10 (Iaccf_kv.State.of_list [ ("x", "y") ]) in
  match
    Audit.audit auditor ~receipts:[] ~ledger:(Forge.ledger forge) ~checkpoint:bogus
      ~responder:0 ()
  with
  | Error { Audit.v_upom = Audit.Malformed_ledger _; _ } -> ()
  | Error v -> Alcotest.failf "unexpected verdict %s" (Format.asprintf "%a" Audit.pp_verdict v)
  | Ok () -> Alcotest.fail "bogus checkpoint accepted"

let test_wrong_execution_after_checkpoint () =
  let w = make_world () in
  let forge = make_forge ~checkpoint_interval:5 w in
  for i = 0 to 11 do
    ignore (Forge.add_batch forge [ request w ~client_seqno:i "counter/add" "1" ])
  done;
  let s =
    Forge.add_batch forge
      ~execute_override:(fun _ _ -> Some (App.output_ok "fake", D.of_string "fake"))
      [ request w ~client_seqno:99 "counter/add" "1" ]
  in
  ignore s;
  let cp = Option.get (Forge.checkpoint_at forge 10) in
  let auditor = make_auditor ~checkpoint_interval:5 w in
  let v =
    expect_blame ~min_f1:2
      (Audit.audit auditor ~receipts:[] ~ledger:(Forge.ledger forge) ~checkpoint:cp
         ~responder:0 ())
  in
  match v.Audit.v_upom with
  | Audit.Wrong_execution _ -> ()
  | u -> Alcotest.failf "expected wrong execution, got %s" (Format.asprintf "%a" Audit.pp_upom u)

(* --- governance forks (Lemma 7) --- *)

(* Two colluding histories that end configuration 0 differently: the
   first history and the two end-of-config receipts. *)
let forked_end_of_config w =
  let forge_a = make_forge w in
  let forge_b = make_forge w in
  (* Two colluding histories end configuration 0 differently. *)
  ignore (Forge.add_batch forge_a [ request w ~client_seqno:0 "counter/add" "1" ]);
  ignore (Forge.add_batch forge_b [ request w ~client_seqno:5 "counter/add" "9" ]);
  let sa =
    Forge.add_special_batch forge_a
      (Batch.End_of_config { phase = 2; committed_root = Ledger.m_root (Forge.ledger forge_a) })
  in
  let sb =
    Forge.add_special_batch forge_b
      (Batch.End_of_config { phase = 2; committed_root = Ledger.m_root (Forge.ledger forge_b) })
  in
  let ra = Forge.make_receipt forge_a ~seqno:sa ~tx_position:None in
  let rb = Forge.make_receipt forge_b ~seqno:sb ~tx_position:None in
  (forge_a, ra, rb)

let expect_fork (v : Audit.verdict) =
  match v.Audit.v_upom with
  | Audit.Governance_fork _ ->
      check Alcotest.bool "blames >= f+1" true
        (Bitmap.cardinal v.Audit.v_blamed_replicas >= 2)
  | u -> Alcotest.failf "expected governance fork, got %s" (Format.asprintf "%a" Audit.pp_upom u)

let test_governance_fork_detected () =
  let w = make_world () in
  let _, ra, rb = forked_end_of_config w in
  let auditor = make_auditor w in
  match Audit.add_gov_receipts auditor [ ra; rb ] with
  | Error v -> expect_fork v
  | Ok () -> Alcotest.fail "fork not detected"

(* The enforcer punishes a fork among the governance receipts it is
   given, whether or not a signer of the disputed receipt answers. *)
let test_enforcer_punishes_governance_fork () =
  let w = make_world () in
  let forge_a, ra, rb = forked_end_of_config w in
  List.iter
    (fun provider ->
      let enforcer =
        Enforcer.create ~genesis:w.w_genesis ~app:w.w_app ~pipeline:2
          ~checkpoint_interval:100
      in
      match
        Enforcer.investigate enforcer ~receipts:[ ra ] ~gov_receipts:[ ra; rb ] ~provider
      with
      | Enforcer.Members_punished { punished; verdict } ->
          expect_fork verdict;
          check Alcotest.bool "members punished" true (punished <> []);
          check Alcotest.(list string) "recorded" punished
            (Enforcer.punished_members enforcer)
      | _ -> Alcotest.fail "expected the fork's signers punished")
    [
      (fun _ -> None);
      (fun _ -> Some { Enforcer.resp_ledger = Forge.ledger forge_a; resp_checkpoint = None });
    ]

(* --- enforcer --- *)

let test_enforcer_punishes_on_upom () =
  let w = make_world () in
  let forge = make_forge w in
  let s =
    Forge.add_batch forge
      ~execute_override:(fun _ _ -> Some (App.output_ok "fake", D.of_string "fake"))
      [ request w "counter/add" "5" ]
  in
  let receipt = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  let enforcer =
    Enforcer.create ~genesis:w.w_genesis ~app:w.w_app ~pipeline:2
      ~checkpoint_interval:100
  in
  let provider _ =
    Some { Enforcer.resp_ledger = Forge.ledger forge; resp_checkpoint = None }
  in
  match Enforcer.investigate enforcer ~receipts:[ receipt ] ~gov_receipts:[] ~provider with
  | Enforcer.Members_punished { punished; _ } ->
      check Alcotest.bool "members punished" true (punished <> []);
      check Alcotest.bool "recorded" true (Enforcer.punished_members enforcer <> [])
  | _ -> Alcotest.fail "expected punishment"

let test_enforcer_punishes_unresponsive () =
  let w = make_world () in
  let forge = make_forge w in
  let s = Forge.add_batch forge [ request w "counter/add" "5" ] in
  let receipt = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  let enforcer =
    Enforcer.create ~genesis:w.w_genesis ~app:w.w_app ~pipeline:2
      ~checkpoint_interval:100
  in
  match
    Enforcer.investigate enforcer ~receipts:[ receipt ] ~gov_receipts:[]
      ~provider:(fun _ -> None)
  with
  | Enforcer.Unresponsive_punished { replicas; punished } ->
      check Alcotest.bool "at least quorum replicas" true (List.length replicas >= 3);
      check Alcotest.bool "members punished" true (punished <> [])
  | _ -> Alcotest.fail "expected unresponsive punishment"

(* A receipt that does not verify names no one: with nobody answering,
   the enforcer still punishes no one. *)
let test_enforcer_refuses_invalid_receipt () =
  let w = make_world () in
  let forge = make_forge w in
  let s = Forge.add_batch forge [ request w "counter/add" "5" ] in
  let receipt = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  let tampered = Forge.tamper_tx_output receipt ~output:(App.output_ok "42") in
  let enforcer =
    Enforcer.create ~genesis:w.w_genesis ~app:w.w_app ~pipeline:2
      ~checkpoint_interval:100
  in
  let outcome =
    Enforcer.investigate enforcer ~receipts:[ tampered ] ~gov_receipts:[]
      ~provider:(fun _ -> None)
  in
  check Alcotest.(list string) "no one punished" [] (Enforcer.punished_members enforcer);
  match outcome with
  | Enforcer.Receipt_refused _ -> ()
  | _ -> Alcotest.fail "expected the receipt to be refused"

let test_enforcer_clean_audit_no_punishment () =
  let w = make_world () in
  let forge = make_forge w in
  let s = Forge.add_batch forge [ request w "counter/add" "5" ] in
  let receipt = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  let enforcer =
    Enforcer.create ~genesis:w.w_genesis ~app:w.w_app ~pipeline:2
      ~checkpoint_interval:100
  in
  let provider _ =
    Some { Enforcer.resp_ledger = Forge.ledger forge; resp_checkpoint = None }
  in
  match Enforcer.investigate enforcer ~receipts:[ receipt ] ~gov_receipts:[] ~provider with
  | Enforcer.No_misbehavior ->
      check Alcotest.(list string) "no punishments" [] (Enforcer.punished_members enforcer)
  | _ -> Alcotest.fail "expected clean outcome"

let test_enforcer_rejects_false_upom () =
  let w = make_world () in
  let forge = make_forge w in
  let s = Forge.add_batch forge [ request w "counter/add" "5" ] in
  let receipt = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  let enforcer =
    Enforcer.create ~genesis:w.w_genesis ~app:w.w_app ~pipeline:2
      ~checkpoint_interval:100
  in
  (* A lying auditor claims wrong execution against an honest ledger. *)
  let fake_verdict =
    {
      Audit.v_upom =
        Audit.Wrong_execution { we_index = 3; we_seqno = s; we_reason = "lie" };
      v_blamed_replicas = Bitmap.of_list [ 0; 1 ];
      v_blamed_members = [ "member-0" ];
    }
  in
  match
    Enforcer.verify_upom enforcer ~verdict:fake_verdict ~receipts:[ receipt ]
      ~gov_receipts:[]
      ~response:{ Enforcer.resp_ledger = Forge.ledger forge; resp_checkpoint = None }
      ~responder:0
  with
  | Enforcer.Auditor_punished _ -> ()
  | _ -> Alcotest.fail "false uPoM accepted"

(* A colluding quorum (not the whole service) forges a wrong execution;
   an honest audit derives the genuine verdict. Base material for the
   uPoM-rejection tests below. *)
let genuine_wrong_execution_upom w =
  let sks = List.filter (fun (i, _) -> i < 3) w.w_sks in
  let forge =
    Forge.create ~genesis:w.w_genesis ~sks ~app:w.w_app ~pipeline:2
      ~checkpoint_interval:100
  in
  let s =
    Forge.add_batch forge
      ~execute_override:(fun _ _ ->
        Some (App.output_ok "1000000", D.of_string "forged-write-set"))
      [ request w "counter/add" "5" ]
  in
  let receipt = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  let auditor = make_auditor w in
  match
    Audit.audit auditor ~receipts:[ receipt ] ~ledger:(Forge.ledger forge)
      ~responder:0 ()
  with
  | Error v -> (forge, receipt, v)
  | Ok () -> Alcotest.fail "forged ledger audited clean"

let make_enforcer w =
  Enforcer.create ~genesis:w.w_genesis ~app:w.w_app ~pipeline:2
    ~checkpoint_interval:100

let expect_auditor_punished what = function
  | Enforcer.Auditor_punished _ -> ()
  | Enforcer.Members_punished _ -> Alcotest.failf "%s punished members" what
  | _ -> Alcotest.failf "%s accepted" what

let test_enforcer_rejects_truncated_upom () =
  (* Tied receipts need both contradictory receipts as evidence; a uPoM
     whose evidence was truncated to one of them re-audits clean. *)
  let w = make_world () in
  let forge_a = make_forge w in
  let forge_b = make_forge w in
  let sa = Forge.add_batch forge_a [ request w ~client_seqno:0 "counter/add" "5" ] in
  let sb = Forge.add_batch forge_b [ request w ~client_seqno:1 "counter/add" "6" ] in
  let ra = Forge.make_receipt forge_a ~seqno:sa ~tx_position:(Some 0) in
  let rb = Forge.make_receipt forge_b ~seqno:sb ~tx_position:(Some 0) in
  let auditor = make_auditor w in
  let verdict =
    match
      Audit.audit auditor ~receipts:[ ra; rb ] ~ledger:(Forge.ledger forge_a)
        ~responder:0 ()
    with
    | Error v -> v
    | Ok () -> Alcotest.fail "tied receipts audited clean"
  in
  let enforcer = make_enforcer w in
  expect_auditor_punished "truncated uPoM"
    (Enforcer.verify_upom enforcer ~verdict ~receipts:[ ra ] ~gov_receipts:[]
       ~response:
         { Enforcer.resp_ledger = Forge.ledger forge_a; resp_checkpoint = None }
       ~responder:0);
  check Alcotest.(list string) "nobody else punished" []
    (Enforcer.punished_members enforcer)

let test_enforcer_rejects_tampered_upom () =
  (* The verdict is genuine but its evidence receipt was byte-tampered
     after signing: the re-audit sees an invalid receipt (blaming nobody),
     which does not match the claimed blame set. *)
  let w = make_world () in
  let forge, receipt, verdict = genuine_wrong_execution_upom w in
  let tampered = Forge.tamper_tx_output receipt ~output:(App.output_ok "42") in
  let enforcer = make_enforcer w in
  expect_auditor_punished "signature-tampered uPoM"
    (Enforcer.verify_upom enforcer ~verdict ~receipts:[ tampered ]
       ~gov_receipts:[]
       ~response:
         { Enforcer.resp_ledger = Forge.ledger forge; resp_checkpoint = None }
       ~responder:0)

let test_enforcer_rejects_wrong_config_upom () =
  (* The uPoM is checked against a different service (another genesis with
     different replica keys): nothing in the evidence verifies there, so
     the verdict cannot be reproduced. *)
  let w = make_world () in
  let forge, receipt, verdict = genuine_wrong_execution_upom w in
  let other = Cluster.make ~seed:99 ~n:4 () in
  let enforcer =
    Enforcer.create ~genesis:(Cluster.genesis other) ~app:w.w_app ~pipeline:2
      ~checkpoint_interval:100
  in
  expect_auditor_punished "wrong-configuration uPoM"
    (Enforcer.verify_upom enforcer ~verdict ~receipts:[ receipt ]
       ~gov_receipts:[]
       ~response:
         { Enforcer.resp_ledger = Forge.ledger forge; resp_checkpoint = None }
       ~responder:0)

let test_enforcer_rejects_inflated_blame () =
  (* The misbehavior is real, but the auditor padded the blame set with an
     honest replica: the bitmap no longer matches the re-audit, and the
     honest replica's operator must not be punished. *)
  let w = make_world () in
  let forge, receipt, verdict = genuine_wrong_execution_upom w in
  check Alcotest.bool "setup: replica 3 not genuinely blamed" false
    (List.mem 3 (Bitmap.to_list verdict.Audit.v_blamed_replicas));
  let inflated =
    {
      verdict with
      Audit.v_blamed_replicas =
        Bitmap.of_list (3 :: Bitmap.to_list verdict.Audit.v_blamed_replicas);
    }
  in
  let enforcer = make_enforcer w in
  expect_auditor_punished "blame-inflated uPoM"
    (Enforcer.verify_upom enforcer ~verdict:inflated ~receipts:[ receipt ]
       ~gov_receipts:[]
       ~response:
         { Enforcer.resp_ledger = Forge.ledger forge; resp_checkpoint = None }
       ~responder:0);
  check Alcotest.(list string) "operator of replica 3 not punished" []
    (Enforcer.punished_members enforcer)

(* --- fuzzing: random structural mutations of a valid ledger must yield a
   verdict (or an unchanged ledger), and must never crash the auditor. --- *)

let fuzz_world =
  lazy
    (let w = make_world () in
     let forge = make_forge ~checkpoint_interval:5 w in
     for i = 0 to 14 do
       ignore (Forge.add_batch forge [ request w ~client_seqno:i "counter/add" "1" ])
     done;
     (w, Forge.ledger forge))

let mutate_ledger rng entries =
  let n = List.length entries in
  let pos = 1 + Iaccf_util.Rng.int rng (n - 1) in
  match Iaccf_util.Rng.int rng 4 with
  | 0 -> (* delete *) List.filteri (fun i _ -> i <> pos) entries
  | 1 -> (* duplicate *)
      List.concat (List.mapi (fun i e -> if i = pos then [ e; e ] else [ e ]) entries)
  | 2 -> (* swap adjacent *)
      let arr = Array.of_list entries in
      if pos + 1 < n then begin
        let tmp = arr.(pos) in
        arr.(pos) <- arr.(pos + 1);
        arr.(pos + 1) <- tmp
      end;
      Array.to_list arr
  | _ -> (* truncate *) List.filteri (fun i _ -> i < pos) entries

let prop_mutated_ledger_never_audits_clean =
  QCheck.Test.make ~name:"mutated ledgers never audit clean" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let w, ledger = Lazy.force fuzz_world in
      let rng = Iaccf_util.Rng.create seed in
      let entries = List.map snd (Ledger.entries ledger ()) in
      let mutated = mutate_ledger rng entries in
      if List.map Entry.serialize mutated = List.map Entry.serialize entries then true
      else begin
        match Ledger.of_entries mutated with
        | exception Invalid_argument _ -> true (* genesis displaced: rejected *)
        | broken -> (
            let auditor = make_auditor ~checkpoint_interval:5 w in
            match Audit.audit auditor ~receipts:[] ~ledger:broken ~responder:0 () with
            | Error _ -> true
            | Ok () ->
                (* A pure truncation at a batch boundary is still a valid,
                   shorter ledger — that is fine. Anything else is not. *)
                List.length mutated < List.length entries)
      end)

let prop_corrupt_bytes_never_crash =
  QCheck.Test.make ~name:"bit-flipped serialized ledgers never crash" ~count:60
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (pos_seed, byte_seed) ->
      let w, ledger = Lazy.force fuzz_world in
      let raw = Ledger.serialize ledger in
      let pos = pos_seed mod String.length raw in
      let corrupted =
        String.mapi
          (fun i c -> if i = pos then Char.chr (byte_seed land 0xff) else c)
          raw
      in
      QCheck.assume (corrupted <> raw);
      match Ledger.deserialize corrupted with
      | exception Iaccf_util.Codec.Decode_error _ -> true
      | exception Invalid_argument _ -> true
      | broken -> (
          let auditor = make_auditor ~checkpoint_interval:5 w in
          match Audit.audit auditor ~receipts:[] ~ledger:broken ~responder:0 () with
          | Ok () | Error _ -> true))



(* --- verdicts of the batched signature checks --- *)

(* A real cluster ledger with one view change in it: the cluster, and
   replica 1's entries. *)
let vc_ledger =
  lazy
    (let cluster = Cluster.make ~n:4 () in
     let client = Cluster.add_client cluster () in
     let drive n =
       let done_ = ref 0 in
       for i = 1 to n do
         Client.submit client ~proc:"counter/add" ~args:(string_of_int i)
           ~on_complete:(fun _ -> incr done_)
           ()
       done;
       check Alcotest.bool "cluster ran" true
         (Cluster.run_until cluster ~timeout_ms:60_000.0 (fun () -> !done_ = n))
     in
     for _ = 1 to 6 do drive 1 done;
     List.iter Replica.inject_view_change (Cluster.replicas cluster);
     for _ = 1 to 6 do drive 2 done;
     Cluster.run cluster ~ms:100.0;
     (cluster, List.map snd (Ledger.entries (Replica.ledger (Cluster.replica cluster 1)) ())))

let flip s k = String.mapi (fun i c -> if i = k then Char.chr (Char.code c lxor 0x01) else c) s

(* [entries] with the [nth] (from 0) of those that [f] rewrites
   rewritten. *)
let rewrite_nth ?(nth = 0) f entries =
  let seen = ref (-1) in
  let rewritten =
    List.map
      (fun e ->
        match f e with
        | Some e' ->
            incr seen;
            if !seen = nth then e' else e
        | None -> e)
      entries
  in
  if !seen < nth then Alcotest.fail "no entry to rewrite";
  rewritten

let bad_request_sig = function
  | Entry.Tx tx ->
      let r = tx.Batch.request in
      let r' =
        Request.of_fields ~client_pk:r.Request.client_pk ~service:r.Request.service
          ~min_index:r.Request.min_index ~client_seqno:r.Request.client_seqno
          ~signature:(flip r.Request.signature 40) ~proc:r.Request.proc ~args:r.Request.args ()
      in
      Some (Entry.Tx { tx with Batch.request = r' })
  | _ -> None

let bad_prepare_sig = function
  | Entry.Prepare_evidence ({ pe_prepares = p :: rest; _ } as pe) ->
      let p = { p with Message.p_signature = flip p.Message.p_signature 40 } in
      Some (Entry.Prepare_evidence { pe with pe_prepares = p :: rest })
  | _ -> None

let bad_pre_prepare_sig = function
  | Entry.Pre_prepare pp ->
      Some (Entry.Pre_prepare { pp with Message.signature = flip pp.Message.signature 40 })
  | _ -> None

let bad_view_change_sig = function
  | Entry.View_change_set (vc :: rest) ->
      Some
        (Entry.View_change_set
           ({ vc with Message.vc_signature = flip vc.Message.vc_signature 40 } :: rest))
  | _ -> None

let bad_new_view_sig = function
  | Entry.New_view nv ->
      Some (Entry.New_view { nv with Message.nv_signature = flip nv.Message.nv_signature 40 })
  | _ -> None

(* A genesis entry anywhere but index 0 is a structural fault. *)
let misplaced_genesis genesis = function
  | Entry.Pre_prepare _ -> Some (Entry.Genesis genesis)
  | _ -> None

(* What a verdict pins: the uPoM's kind, its ledger index and reason, and
   the blamed replicas. *)
let verdict_summary = function
  | Ok () -> "clean"
  | Error (v : Audit.verdict) ->
      let kind, index, reason =
        match v.Audit.v_upom with
        | Audit.Malformed_ledger { ml_index; ml_reason; _ } -> ("malformed", ml_index, ml_reason)
        | Audit.Wrong_execution { we_index; we_reason; _ } ->
            ("wrong-execution", we_index, we_reason)
        | u -> (Format.asprintf "%a" Audit.pp_upom u, -1, "")
      in
      Printf.sprintf "%s@%d %s blaming [%s]" kind index reason
        (String.concat "," (List.map string_of_int (Bitmap.to_list v.Audit.v_blamed_replicas)))

let cluster_auditor () =
  let cluster, _ = Lazy.force vc_ledger in
  Audit.create ~genesis:(Cluster.genesis cluster) ~app:(App.create Cluster.counter_app_procs)
    ~pipeline:(Cluster.params cluster).Replica.pipeline
    ~checkpoint_interval:(Cluster.params cluster).Replica.checkpoint_interval

(* A cluster's replicas only sign batches whose client signatures verify,
   so a bad one that reaches the signature check needs a colluding
   quorum: here, forged batches 1 to 4 with a bad client signature in
   batch 3. *)
let forged_bad_client_sig () =
  let w = make_world () in
  let forge = make_forge w in
  for i = 1 to 4 do
    let r = request w ~client_seqno:i "counter/add" "1" in
    let r =
      if i <> 3 then r
      else
        Request.of_fields ~client_pk:r.Request.client_pk ~service:r.Request.service
          ~client_seqno:i ~signature:(flip r.Request.signature 40) ~proc:r.Request.proc
          ~args:r.Request.args ()
    in
    ignore (Forge.add_batch forge [ r ])
  done;
  ((fun () -> make_auditor w), List.map snd (Ledger.entries (Forge.ledger forge) ()))

(* Each case: its name, a fresh auditor, and the entries. *)
let verdict_cases () =
  let cluster, entries = Lazy.force vc_ledger in
  let genesis = Cluster.genesis cluster in
  let nth n f es = rewrite_nth ~nth:n f es in
  let forged_auditor, forged = forged_bad_client_sig () in
  List.map
    (fun (name, es) -> (name, cluster_auditor, es))
    [
      ("honest", entries);
      ("client request", nth 3 bad_request_sig entries);
      ("prepare", nth 1 bad_prepare_sig entries);
      ("pre-prepare", nth 2 bad_pre_prepare_sig entries);
      ("view change", rewrite_nth bad_view_change_sig entries);
      ("new view", rewrite_nth bad_new_view_sig entries);
      ( "structural fault after a bad signature",
        nth 5 (misplaced_genesis genesis) (nth 1 bad_prepare_sig entries) );
      ( "structural fault before a bad signature",
        nth 1 (misplaced_genesis genesis) (nth 4 bad_prepare_sig entries) );
      ( "two bad signatures",
        nth 1 bad_prepare_sig (nth 2 bad_pre_prepare_sig entries) );
      ( "structural fault after a bad view-change signature",
        nth 5 (misplaced_genesis genesis) (rewrite_nth bad_view_change_sig entries) );
      ( "structural fault after a bad new-view signature",
        nth 5 (misplaced_genesis genesis) (rewrite_nth bad_new_view_sig entries) );
    ]
  @ [ ("forged client request", forged_auditor, forged) ]

(* The verdicts a scan that checks each signature in place gives these
   cases. A flipped client signature in a real ledger breaks the batch's
   g_root, which the scan checks first; a flipped pre-prepare or prepare
   signature breaks the M root the next pre-prepare signed, a structural
   fault after the bad signature. View-change and new-view signatures are
   queued as jobs too, so a structural fault after a bad one is reached,
   and the bad signature must still decide. *)
let pinned_verdicts =
  [
    ("honest", "clean");
    ("client request", "malformed@13 batch 4: transactions do not match g_root blaming []");
    ("prepare", "malformed@9 invalid prepare evidence signature blaming []");
    ("pre-prepare", "malformed@7 invalid pre-prepare signature blaming []");
    ("view change", "malformed@13 invalid view-change signature blaming []");
    ("new view", "malformed@14 invalid new-view signature blaming []");
    ( "structural fault after a bad signature",
      "malformed@9 invalid prepare evidence signature blaming []" );
    ( "structural fault before a bad signature",
      "malformed@3 genesis entry not at index 0 blaming []" );
    ("two bad signatures", "malformed@7 invalid pre-prepare signature blaming []");
    ( "structural fault after a bad view-change signature",
      "malformed@13 invalid view-change signature blaming []" );
    ( "structural fault after a bad new-view signature",
      "malformed@14 invalid new-view signature blaming []" );
    ("forged client request", "malformed@9 batch 3: invalid client signature blaming []");
  ]

let test_verdicts_match_in_place_scan () =
  List.iter
    (fun (name, auditor, entries) ->
      List.iter
        (fun width ->
          let got =
            verdict_summary
              (Audit.audit_at_width ~width (auditor ()) ~receipts:[]
                 ~ledger:(Ledger.of_entries entries) ~responder:1 ())
          in
          check Alcotest.string
            (Printf.sprintf "%s, width %d" name width)
            (List.assoc name pinned_verdicts) got)
        [ 1; 2 ])
    (verdict_cases ())

(* The field multiplies and compressions an audit makes do not depend
   on the width: a helper domain's counts are folded into the caller's.
   Each audit reads the ledger from a package, so it starts from fresh
   key values and builds the same combs. *)
let test_work_counts_same_at_any_width () =
  let module Package = Iaccf_storage.Package in
  let cluster, entries = Lazy.force vc_ledger in
  let raw = Package.serialize (Package.of_entries entries) in
  let counts width =
    let pkg = Package.deserialize raw in
    let auditor =
      Audit.create ~genesis:(Package.genesis pkg) ~app:(App.create Cluster.counter_app_procs)
        ~pipeline:(Cluster.params cluster).Replica.pipeline
        ~checkpoint_interval:(Cluster.params cluster).Replica.checkpoint_interval
    in
    let muls = Iaccf_crypto.Group.muls () and blocks = Iaccf_crypto.Sha256.blocks () in
    (match
       Audit.audit_at_width ~width auditor ~receipts:[] ~ledger:(Package.to_ledger pkg)
         ~responder:1 ()
     with
    | Ok () -> ()
    | Error v -> Alcotest.failf "audit failed: %s" (Format.asprintf "%a" Audit.pp_verdict v));
    (Iaccf_crypto.Group.muls () - muls, Iaccf_crypto.Sha256.blocks () - blocks)
  in
  check Alcotest.(pair int int) "field multiplies and compressions" (counts 1) (counts 2)

(* Forged batches of one request each, the [bad]th request (from 0) with
   a flipped client signature and the [wrong]th batch (from 1) with a
   forged result. *)
let forged_entries ?bad ?wrong batches =
  let w = make_world () in
  let forge = make_forge w in
  for i = 0 to batches - 1 do
    let r = request w ~client_seqno:i "counter/add" "1" in
    let r =
      if Some i <> bad then r
      else
        Request.of_fields ~client_pk:r.Request.client_pk ~service:r.Request.service
          ~client_seqno:i ~signature:(flip r.Request.signature 40) ~proc:r.Request.proc
          ~args:r.Request.args ()
    in
    let execute_override _ _ =
      if Some (i + 1) = wrong then Some (App.output_ok "fake", D.of_string "fake") else None
    in
    ignore (Forge.add_batch forge ~execute_override [ r ])
  done;
  List.map snd (Ledger.entries (Forge.ledger forge) ())

(* The audit's verdict and work counts at [width], from a fresh package
   (fresh key values, so every audit builds the same combs). The genesis
   checkpoint digests of the clusters built to forge the ledger hash on
   the worker domain and count here when they finish, so they are waited
   for before the counts are read. *)
let audit_package ~width raw =
  let module Package = Iaccf_storage.Package in
  let pkg = Package.deserialize raw in
  let auditor =
    Audit.create ~genesis:(Package.genesis pkg) ~app:(App.create Cluster.counter_app_procs)
      ~pipeline:2 ~checkpoint_interval:100
  in
  Iaccf_util.Worker.drain ();
  let muls = Iaccf_crypto.Group.muls () and blocks = Iaccf_crypto.Sha256.blocks () in
  let v =
    Audit.audit_at_width ~width auditor ~receipts:[] ~ledger:(Package.to_ledger pkg)
      ~responder:1 ()
  in
  (verdict_summary v, Iaccf_crypto.Group.muls () - muls, Iaccf_crypto.Sha256.blocks () - blocks)

let package_of entries = Iaccf_storage.Package.(serialize (of_entries entries))

(* Replay now runs while the signatures are checked, but a failing
   signature still decides the verdict: batch 2 misexecutes, batch 3
   carries a bad client signature, and the scan reaches neither fault. *)
let test_signature_beats_replay () =
  let raw = package_of (forged_entries ~bad:2 ~wrong:2 4) in
  let wrong_only = package_of (forged_entries ~wrong:2 4) in
  let kind (v, _, _) = List.hd (String.split_on_char '@' v) in
  check Alcotest.string "replay alone finds the forged result" "wrong-execution"
    (kind (audit_package ~width:1 wrong_only));
  List.iter
    (fun width ->
      let v, _, _ = audit_package ~width raw in
      check Alcotest.string
        (Printf.sprintf "width %d" width)
        "malformed@9 batch 3: invalid client signature blaming []" v)
    [ 1; 2 ]

(* The scan's job order over a ledger: each pre-prepare's job where it
   stands, a batch's client jobs when the next non-transaction entry (or
   the end) closes it, then that entry's prepares. A client job names its
   request (from 0) and the index of the entry that closed its batch. *)
type job = Pp of int | Prepare of int * int | Client of int * int

let job_order entries =
  let order = ref [] and open_txs = ref [] and txs_seen = ref 0 in
  let close i =
    order := List.rev_append (List.rev_map (fun r -> Client (r, i)) !open_txs) !order;
    open_txs := []
  in
  List.iteri
    (fun i e ->
      match e with
      | Entry.Tx _ ->
          open_txs := !open_txs @ [ !txs_seen ];
          incr txs_seen
      | Entry.Pre_prepare _ ->
          close i;
          order := Pp i :: !order
      | Entry.Prepare_evidence { pe_prepares; _ } ->
          close i;
          List.iteri (fun j _ -> order := Prepare (i, j) :: !order) pe_prepares
      | _ -> close i)
    entries;
  close (List.length entries);
  Array.of_list (List.rev !order)

(* The verdict a failing job gives, in a ledger of one request per batch. *)
let job_verdict = function
  | Pp i -> Printf.sprintf "malformed@%d invalid pre-prepare signature blaming []" i
  | Prepare (i, _) -> Printf.sprintf "malformed@%d invalid prepare evidence signature blaming []" i
  | Client (r, i) ->
      Printf.sprintf "malformed@%d batch %d: invalid client signature blaming []" i (r + 1)

(* [batches] forged batches with job [k] made to fail. *)
let bad_job_at ~batches k =
  let honest = forged_entries batches in
  let order = job_order honest in
  let at i f = List.mapi (fun i' e -> if i' = i then Option.get (f e) else e) honest in
  ( order.(k),
    match order.(k) with
    | Client (r, _) -> forged_entries ~bad:r batches
    | Pp i -> at i bad_pre_prepare_sig
    | Prepare (i, j) ->
        at i (function
          | Entry.Prepare_evidence ({ pe_prepares; _ } as pe) ->
              let pe_prepares =
                List.mapi
                  (fun j' (p : Message.prepare) ->
                    if j' = j then { p with Message.p_signature = flip p.Message.p_signature 40 }
                    else p)
                  pe_prepares
              in
              Some (Entry.Prepare_evidence { pe with pe_prepares })
          | _ -> None) )

(* One bad signature at each side of a 32-job chunk edge, at the list's
   last job, and in a list shorter than a chunk: 50 audits at widths 2
   and 3 each give the verdict and the work counts of one audit at
   width 1. *)
let test_chunk_edge_races () =
  let cases =
    [ ("job 31", 30, Some 31); ("job 32", 30, Some 32); ("job 33", 30, Some 33);
      ("last job", 30, None); ("short list", 5, Some 7) ]
  in
  List.iter
    (fun (name, batches, k) ->
      let jobs = Array.length (job_order (forged_entries batches)) in
      let k = Option.value k ~default:(jobs - 1) in
      let job, entries = bad_job_at ~batches k in
      if name = "short list" then check Alcotest.bool "shorter than a chunk" true (jobs < 32);
      let raw = package_of entries in
      let ((v, _, _) as want) = audit_package ~width:1 raw in
      check Alcotest.string (name ^ ", width 1") (job_verdict job) v;
      List.iter
        (fun width ->
          for run = 1 to 50 do
            let got = audit_package ~width raw in
            let show (v, muls, blocks) = Printf.sprintf "%s (%d muls, %d blocks)" v muls blocks in
            if got <> want then
              Alcotest.failf "%s, width %d, run %d: %s, want %s" name width run (show got)
                (show want)
          done)
        [ 2; 3 ])
    cases

(* --- liveness monitoring (§2 future-work defence) --- *)

let test_liveness_watch_cleared_by_receipt () =
  let w = make_world () in
  let forge = make_forge w in
  let req = request w "counter/add" "5" in
  let s = Forge.add_batch forge [ req ] in
  let receipt = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  let sched = Iaccf_sim.Sched.create () in
  let enforcer =
    Enforcer.create ~genesis:w.w_genesis ~app:w.w_app ~pipeline:2 ~checkpoint_interval:100
  in
  Enforcer.watch enforcer ~sched ~request:req
    ~config:w.w_genesis.Genesis.initial_config ~deadline_ms:1000.0;
  Enforcer.notify_receipt enforcer receipt;
  Iaccf_sim.Sched.run sched;
  check Alcotest.int "no violation" 0 (List.length (Enforcer.liveness_violations enforcer));
  check Alcotest.(list string) "nobody punished" [] (Enforcer.punished_members enforcer)

let test_liveness_deadline_punishes () =
  let w = make_world () in
  let req = request w "counter/add" "5" in
  let sched = Iaccf_sim.Sched.create () in
  let enforcer =
    Enforcer.create ~genesis:w.w_genesis ~app:w.w_app ~pipeline:2 ~checkpoint_interval:100
  in
  Enforcer.watch enforcer ~sched ~request:req
    ~config:w.w_genesis.Genesis.initial_config ~deadline_ms:1000.0;
  Iaccf_sim.Sched.run sched;
  check Alcotest.int "violation recorded" 1
    (List.length (Enforcer.liveness_violations enforcer));
  check Alcotest.bool "members punished" true (Enforcer.punished_members enforcer <> [])

let () =
  Alcotest.run "iaccf_audit"
    [
      ( "clean",
        [
          Alcotest.test_case "forged honest ledger" `Quick
            test_forged_honest_ledger_audits_clean;
          Alcotest.test_case "real cluster ledger" `Quick
            test_real_cluster_ledger_audits_clean;
        ] );
      ( "misbehavior",
        [
          Alcotest.test_case "wrong execution" `Quick test_wrong_execution_detected;
          Alcotest.test_case "rewritten history" `Quick test_rewritten_history_detected;
          Alcotest.test_case "ledger view higher" `Quick test_ledger_view_higher_detected;
          Alcotest.test_case "receipt view higher" `Quick test_receipt_view_higher_detected;
          Alcotest.test_case "tied receipts" `Quick test_tied_receipts_detected;
          Alcotest.test_case "tampered receipt" `Quick test_tampered_receipt_rejected;
          Alcotest.test_case "missing evidence" `Quick test_missing_evidence_is_malformed;
          Alcotest.test_case "dropped tx" `Quick test_dropped_tx_breaks_g_root;
          Alcotest.test_case "governance fork" `Quick test_governance_fork_detected;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "audit from checkpoint" `Quick test_audit_from_checkpoint;
          Alcotest.test_case "fraud after checkpoint" `Quick
            test_wrong_execution_after_checkpoint;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_mutated_ledger_never_audits_clean;
          QCheck_alcotest.to_alcotest prop_corrupt_bytes_never_crash;
        ] );
      ( "enforcer",
        [
          Alcotest.test_case "liveness watch cleared" `Quick
            test_liveness_watch_cleared_by_receipt;
          Alcotest.test_case "liveness deadline punishes" `Quick
            test_liveness_deadline_punishes;
          Alcotest.test_case "punishes on uPoM" `Quick test_enforcer_punishes_on_upom;
          Alcotest.test_case "punishes unresponsive" `Quick
            test_enforcer_punishes_unresponsive;
          Alcotest.test_case "refuses an invalid receipt" `Quick
            test_enforcer_refuses_invalid_receipt;
          Alcotest.test_case "punishes a governance fork" `Quick
            test_enforcer_punishes_governance_fork;
          Alcotest.test_case "clean run unpunished" `Quick
            test_enforcer_clean_audit_no_punishment;
          Alcotest.test_case "rejects false uPoM" `Quick test_enforcer_rejects_false_upom;
          Alcotest.test_case "rejects truncated uPoM" `Quick
            test_enforcer_rejects_truncated_upom;
          Alcotest.test_case "rejects tampered uPoM" `Quick
            test_enforcer_rejects_tampered_upom;
          Alcotest.test_case "rejects wrong-config uPoM" `Quick
            test_enforcer_rejects_wrong_config_upom;
          Alcotest.test_case "rejects inflated blame" `Quick
            test_enforcer_rejects_inflated_blame;
        ] );
      ( "sig batch",
        [
          Alcotest.test_case "verdicts match the in-place scan" `Quick
            test_verdicts_match_in_place_scan;
          Alcotest.test_case "work counts at any width" `Quick
            test_work_counts_same_at_any_width;
          Alcotest.test_case "signature beats replay" `Quick test_signature_beats_replay;
          Alcotest.test_case "chunk-edge races" `Quick test_chunk_edge_races;
        ] );
    ]

