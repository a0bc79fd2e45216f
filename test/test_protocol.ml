(* End-to-end L-PBFT protocol tests: honest runs, receipts, checkpoints,
   batching, pipelining, straggler catch-up, and view changes. *)

open Iaccf_core
module Config = Iaccf_types.Config
module Message = Iaccf_types.Message
module Ledger = Iaccf_ledger.Ledger
module Entry = Iaccf_ledger.Entry
module D = Iaccf_crypto.Digest32
module Schnorr = Iaccf_crypto.Schnorr
module Bitmap = Iaccf_util.Bitmap
module Network = Iaccf_sim.Network
module Request = Iaccf_types.Request
module Genesis = Iaccf_types.Genesis

let check = Alcotest.check

let submit_and_wait cluster client n =
  let outcomes = ref [] in
  for i = 1 to n do
    Client.submit client ~proc:"counter/add" ~args:(string_of_int i)
      ~on_complete:(fun oc -> outcomes := oc :: !outcomes)
      ()
  done;
  let done_ = Cluster.run_until cluster (fun () -> List.length !outcomes = n) in
  if not done_ then
    Alcotest.failf "timed out: %d/%d completed" (List.length !outcomes) n;
  List.rev !outcomes

let test_single_transaction () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  match submit_and_wait cluster client 1 with
  | [ oc ] ->
      check Alcotest.(result string string) "output" (Ok "1") oc.Client.oc_output;
      check Alcotest.bool "receipt index positive" true (oc.Client.oc_index > 0)
  | _ -> Alcotest.fail "expected one outcome"

let test_many_transactions_sequential_counter () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let outcomes = submit_and_wait cluster client 30 in
  check Alcotest.int "all completed" 30 (List.length outcomes);
  (* The counter procedure returns the running sum: all adds applied in
     some serial order, so the set of outputs is {1*?…} — with one client
     submitting deltas 1..30, final counter = sum 1..30. *)
  let kv = Replica.store (Cluster.replica cluster 0) in
  check
    Alcotest.(option string)
    "final counter" (Some "465")
    (Iaccf_kv.State.find_opt "counter" (Iaccf_kv.Store.map kv))

(* A batch's g-tree lives from its execution to its first replies: a
   committed run leaves no record holding one. *)
let test_no_g_tree_retained () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit_and_wait cluster client 40);
  Cluster.run cluster ~ms:200.0;
  List.iter
    (fun r ->
      check Alcotest.int
        (Printf.sprintf "replica %d holds no g-tree" (Replica.id r))
        0 (Replica.g_trees_held r))
    (Cluster.replicas cluster)

let test_replicas_agree_on_ledger () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit_and_wait cluster client 20);
  Cluster.run cluster ~ms:200.0;
  let roots =
    List.map
      (fun r ->
        let l = Replica.ledger r in
        (* Compare the committed prefix: truncate virtual differences by
           comparing roots at the shortest ledger length. *)
        (Ledger.length l, Ledger.m_root l))
      (Cluster.replicas cluster)
  in
  let min_len = List.fold_left (fun acc (l, _) -> min acc l) max_int roots in
  let prefix_roots =
    List.map
      (fun r -> D.to_hex (Ledger.m_root_at (Replica.ledger r) min_len))
      (Cluster.replicas cluster)
  in
  match prefix_roots with
  | first :: rest ->
      List.iteri
        (fun i r -> check Alcotest.string (Printf.sprintf "replica %d" (i + 1)) first r)
        rest
  | [] -> Alcotest.fail "no replicas"

let test_receipts_verify_offline () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let outcomes = submit_and_wait cluster client 5 in
  let cfg = (Cluster.genesis cluster).Iaccf_types.Genesis.initial_config in
  let service = Iaccf_types.Genesis.hash (Cluster.genesis cluster) in
  (* One table for all five, as a client keeps: the keys it uses four
     times get their combs on its own copies. *)
  let checker = Iaccf_crypto.Sigcheck.create_private () in
  List.iter
    (fun oc ->
      match Receipt.verify ~checker ~config:cfg ~service oc.Client.oc_receipt with
      | Ok () -> ()
      | Error e -> Alcotest.failf "receipt failed: %s" e)
    outcomes

let test_receipt_rejects_tampered_output () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let outcomes = submit_and_wait cluster client 1 in
  let oc = List.hd outcomes in
  let receipt = oc.Client.oc_receipt in
  let cfg = (Cluster.genesis cluster).Iaccf_types.Genesis.initial_config in
  let service = Iaccf_types.Genesis.hash (Cluster.genesis cluster) in
  match receipt.Receipt.subject with
  | Receipt.Tx_subject s ->
      let tampered_tx =
        {
          s.tx with
          Iaccf_types.Batch.result =
            { s.tx.Iaccf_types.Batch.result with Iaccf_types.Batch.output = App.output_ok "1000000" };
        }
      in
      let tampered =
        { receipt with Receipt.subject = Receipt.Tx_subject { s with tx = tampered_tx } }
      in
      check Alcotest.bool "tampered receipt rejected" true
        (Result.is_error
           (Receipt.verify ~checker:(Iaccf_crypto.Sigcheck.create_private ()) ~config:cfg
              ~service tampered))
  | Receipt.Batch_subject -> Alcotest.fail "expected tx subject"

let test_checkpoints_taken () =
  let params =
    { Replica.default_params with checkpoint_interval = 10; max_batch = 5 }
  in
  let cluster = Cluster.make ~n:4 ~params () in
  let client = Cluster.add_client cluster () in
  ignore (submit_and_wait cluster client 60);
  Cluster.run cluster ~ms:500.0;
  let r0 = Cluster.replica cluster 0 in
  check Alcotest.bool "several checkpoints" true
    ((Replica.stats r0).Replica.checkpoints_taken >= 1);
  (* Checkpoint batches appear in the ledger. *)
  let cp_batches = ref 0 in
  Ledger.iteri
    (fun _ e ->
      match e with
      | Entry.Pre_prepare pp -> (
          match pp.Message.kind with
          | Iaccf_types.Batch.Checkpoint _ -> incr cp_batches
          | _ -> ())
      | _ -> ())
    (Replica.ledger r0);
  check Alcotest.bool "checkpoint batches in ledger" true (!cp_batches >= 1)

let test_multiple_clients () =
  let cluster = Cluster.make ~n:4 () in
  let c1 = Cluster.add_client cluster () in
  let c2 = Cluster.add_client cluster () in
  let total = ref 0 in
  for _ = 1 to 10 do
    Client.submit c1 ~proc:"counter/add" ~args:"1"
      ~on_complete:(fun _ -> incr total)
      ();
    Client.submit c2 ~proc:"counter/add" ~args:"2"
      ~on_complete:(fun _ -> incr total)
      ()
  done;
  let ok = Cluster.run_until cluster (fun () -> !total = 20) in
  check Alcotest.bool "all completed" true ok;
  let kv = Replica.store (Cluster.replica cluster 0) in
  check
    Alcotest.(option string)
    "final counter" (Some "30")
    (Iaccf_kv.State.find_opt "counter" (Iaccf_kv.Store.map kv))

let test_seven_replicas () =
  let cluster = Cluster.make ~n:7 () in
  let client = Cluster.add_client cluster () in
  let outcomes = submit_and_wait cluster client 10 in
  check Alcotest.int "completed" 10 (List.length outcomes);
  (* N=7 -> f=2 -> quorum 5: receipts carry 4 prepare signatures. *)
  let oc = List.hd outcomes in
  check Alcotest.int "prepare sigs" 4
    (List.length oc.Client.oc_receipt.Receipt.prepare_sigs)

let test_view_change_on_primary_failure () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  (* Commit some work under view 0. *)
  ignore (submit_and_wait cluster client 5);
  (* Kill the primary (replica 0 in view 0). *)
  Replica.stop (Cluster.replica cluster 0);
  let completed_before = Client.completed client in
  for i = 1 to 5 do
    Client.submit client ~proc:"counter/add" ~args:(string_of_int (100 + i)) ()
  done;
  let ok =
    Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () ->
        Client.completed client = completed_before + 5)
  in
  check Alcotest.bool "progress after view change" true ok;
  let r1 = Cluster.replica cluster 1 in
  check Alcotest.bool "view advanced" true (Replica.view r1 >= 1)

let test_view_change_preserves_committed_state () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit_and_wait cluster client 10);
  Replica.stop (Cluster.replica cluster 0);
  let before = Client.completed client in
  for _ = 1 to 5 do
    Client.submit client ~proc:"counter/add" ~args:"1" ()
  done;
  let ok =
    Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () ->
        Client.completed client = before + 5)
  in
  check Alcotest.bool "completed" true ok;
  (* 1+2+..+10 = 55, plus 5 more = 60. *)
  let kv = Replica.store (Cluster.replica cluster 1) in
  check
    Alcotest.(option string)
    "counter survived view change" (Some "60")
    (Iaccf_kv.State.find_opt "counter" (Iaccf_kv.Store.map kv))

let test_straggler_catches_up () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  (* Partition replica 3 away from everyone. *)
  let net = Cluster.network cluster in
  Iaccf_sim.Network.partition net [ 3 ] [ 0; 1; 2; 100 ];
  ignore (submit_and_wait cluster client 10);
  Iaccf_sim.Network.heal net;
  (* New traffic after healing reveals the gap; the straggler bulk-fetches. *)
  ignore (submit_and_wait cluster client 3);
  let r3 = Cluster.replica cluster 3 in
  let target = Replica.last_committed (Cluster.replica cluster 0) - 1 in
  let ok =
    Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () ->
        Replica.last_committed r3 >= target)
  in
  check Alcotest.bool "straggler caught up" true ok

(* Regression: a view change that rolls back a speculatively-executed
   checkpoint boundary must discard the speculative checkpoint and restore
   latest_cp_seqno. Before the fix, replicas that executed the boundary
   kept pointing at the rolled-back snapshot while replicas that never saw
   it stayed at the previous one; every new primary's checkpoint batch was
   then rejected by the other camp (validate_kind pins cp_seqno on both
   sides), no quorum ever formed, and the fleet livelocked at the
   boundary. Observed on the socket backend, where partitions-by-timing
   make asymmetric speculative execution routine. *)
let test_rollback_across_checkpoint_boundary () =
  let params =
    { Replica.default_params with checkpoint_interval = 4; max_batch = 1 }
  in
  let cluster = Cluster.make ~n:4 ~params () in
  let client = Cluster.add_client cluster () in
  (* Commit seqnos 1-2 only: seqno 3 needs a fresh request, so the
     checkpoint batch at 4 cannot auto-propose before the partition. *)
  ignore (submit_and_wait cluster client 2);
  Cluster.run cluster ~ms:100.0 (* drain in-flight commits *);
  let r0 = Cluster.replica cluster 0 in
  check Alcotest.int "committed below boundary" 2 (Replica.last_committed r0);
  (* Cut off replicas 2 and 3: the tx at seqno 3 and the checkpoint batch
     at the boundary (4) execute speculatively on 0 and 1 but cannot
     commit. *)
  let net = Cluster.network cluster in
  Iaccf_sim.Network.partition net [ 2; 3 ] [ 0; 1; 100 ];
  let recovered = ref 0 in
  for _ = 1 to 2 do
    Client.submit client ~proc:"counter/add" ~args:"1"
      ~on_complete:(fun _ -> incr recovered)
      ()
  done;
  Cluster.run cluster ~ms:200.0;
  check Alcotest.bool "boundary checkpoint taken speculatively" true
    ((Replica.stats r0).Replica.checkpoints_taken >= 1);
  check Alcotest.int "nothing committed during partition" 2
    (Replica.last_committed r0);
  (* Heal: the majority joins the minority's pending view change, the new
     primary rolls the speculative suffix back and re-proposes. Progress
     across the boundary is the property under test. *)
  Iaccf_sim.Network.heal net;
  let ok =
    Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () -> !recovered = 2)
  in
  check Alcotest.bool "progress across boundary after rollback" true ok;
  check Alcotest.bool "view changed" true
    (List.exists (fun r -> Replica.view r >= 1) (Cluster.replicas cluster));
  (* One view change must suffice. Without the latest_cp_seqno restore the
     fleet splits into camps that reject each other's checkpoint batch at
     seqno 4 and only reconverges after every camp has served (and failed)
     a turn as primary — views 2-3 here, and unboundedly long under the
     socket backend's exponential view-change backoff. *)
  check Alcotest.bool "recovered in a single view change" true
    (List.for_all (fun r -> Replica.view r <= 1) (Cluster.replicas cluster));
  (* The next boundary (8) must seal the re-taken checkpoint cleanly. *)
  ignore (submit_and_wait cluster client 4);
  check
    Alcotest.(option string)
    "counter consistent after recovery" (Some "15")
    (Iaccf_kv.State.find_opt "counter"
       (Iaccf_kv.Store.map (Replica.store (Cluster.replica cluster 1))))

(* Regression: a commit's nonce is stored only under the replica that
   sent it. Replica 3 sends replica 1 commits that name the primary and
   carry garbage nonces. They used to overwrite the primary's valid
   nonces, so once the primary crashed, replica 1 (the next primary)
   could not assemble the evidence for the batches P behind: a 5-byte
   nonce raised, and a 32-byte one sent the fleet through view after
   view. *)
let test_spoofed_commit nonce () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  for _ = 1 to 10 do
    ignore (submit_and_wait cluster client 1)
  done;
  Cluster.run cluster ~ms:100.0;
  let net = Cluster.network cluster in
  for s = 1 to Replica.last_committed (Cluster.replica cluster 1) do
    Iaccf_sim.Network.send net ~src:3 ~dst:1
      (Wire.Commit_msg
         { Message.c_view = 0; c_seqno = s; c_replica = 0; c_nonce = nonce })
  done;
  Cluster.run cluster ~ms:100.0;
  Replica.stop (Cluster.replica cluster 0);
  let before = Client.completed client in
  for _ = 1 to 5 do
    Client.submit client ~proc:"counter/add" ~args:"1" ()
  done;
  let ok =
    Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () ->
        Client.completed client = before + 5)
  in
  check Alcotest.bool "progress after the primary crash" true ok;
  check Alcotest.int "one view change" 1
    (List.fold_left
       (fun acc id -> max acc (Replica.view (Cluster.replica cluster id)))
       0 [ 1; 2; 3 ])

(* Replica 1 reveals its real nonce to the primary and 32 bytes that open
   nothing to backups 2 and 3. The primary names replica 1 in the
   evidence it writes P batches later. A backup that matched that bitmap
   from whatever its store held would append the bad nonce, fail the
   pre-prepare's m_root check and start view changes; under the commit
   rule the bad nonce is missing evidence, fetched with the batch. *)
let test_nonce_equivocation_keeps_view () =
  let cluster = Cluster.make ~n:4 () in
  Iaccf_sim.Network.set_intercept (Cluster.network cluster) 1 (fun ~dst msg ->
      match msg with
      | Wire.Commit_msg c when dst = 2 || dst = 3 ->
          [ (dst, Wire.Commit_msg { c with Message.c_nonce = String.make 32 'z' }) ]
      | _ -> [ (dst, msg) ]);
  let client = Cluster.add_client cluster () in
  for _ = 1 to 30 do
    ignore (submit_and_wait cluster client 1)
  done;
  check Alcotest.int "all committed" 30 (Client.completed client);
  List.iter
    (fun r ->
      check Alcotest.int (Printf.sprintf "replica %d in view 0" (Replica.id r)) 0
        (Replica.view r))
    (Cluster.replicas cluster);
  check Alcotest.int "no execution rejects" 0
    (Iaccf_obs.Obs.counter_value (Replica.obs (Cluster.replica cluster 0))
       "replica.reject.exec")

let outcome_tx oc =
  match oc.Client.oc_receipt.Receipt.subject with
  | Receipt.Tx_subject { tx; _ } -> tx
  | Receipt.Batch_subject -> Alcotest.fail "expected a tx subject"

let request_hash (tx : Iaccf_types.Batch.tx_entry) =
  Iaccf_types.Request.hash tx.Iaccf_types.Batch.request

(* How often [r]'s ledger holds the request with hash [h]. *)
let ledger_count r h =
  let n = ref 0 in
  Ledger.iteri
    (fun _ e ->
      match e with Entry.Tx tx when D.equal (request_hash tx) h -> incr n | _ -> ())
    (Replica.ledger r);
  !n

(* Regression: the pre-prepare's signature does not cover its list of
   request hashes. Primary 0 appends an executed request's hash to its
   pre-prepares. A backup found the request neither pending nor missing,
   and building the batch failed an assertion that escaped the run. Each
   backup now rejects the batch as a replay, the progress timer changes
   the view, and the next transaction commits once everywhere. *)
let test_replayed_request_rejected () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let replayed = request_hash (outcome_tx (List.hd (submit_and_wait cluster client 1))) in
  Cluster.run cluster ~ms:100.0;
  Iaccf_sim.Network.set_intercept (Cluster.network cluster) 0 (fun ~dst msg ->
      match msg with
      | Wire.Pre_prepare_msg { pp; batch } ->
          [ (dst, Wire.Pre_prepare_msg { pp; batch = batch @ [ replayed ] }) ]
      | _ -> [ (dst, msg) ]);
  let second = request_hash (outcome_tx (List.hd (submit_and_wait cluster client 1))) in
  Cluster.run cluster ~ms:200.0;
  let replicas = Cluster.replicas cluster in
  List.iter
    (fun id ->
      check Alcotest.bool (Printf.sprintf "replica %d rejected the replay" id) true
        (Iaccf_obs.Obs.counter_value (Replica.obs (Cluster.replica cluster id))
           "replica.reject.replayed_request"
        >= 1))
    [ 1; 2; 3 ];
  let committed =
    List.fold_left (fun acc r -> min acc (Replica.last_committed r)) max_int replicas
  in
  let last_pp r =
    match Ledger.find_pre_prepare (Replica.ledger r) ~seqno:committed with
    | Some (_, pp) -> D.to_hex (Message.pp_hash pp)
    | None -> Alcotest.failf "replica %d lacks batch %d" (Replica.id r) committed
  in
  List.iter
    (fun r ->
      let id = Replica.id r in
      check Alcotest.string
        (Printf.sprintf "replica %d's committed prefix" id)
        (last_pp (List.hd replicas)) (last_pp r);
      check Alcotest.int (Printf.sprintf "replayed once in replica %d" id) 1
        (ledger_count r replayed);
      check Alcotest.int (Printf.sprintf "second once in replica %d" id) 1
        (ledger_count r second))
    replicas

(* ------------------------------------------------------------------ *)
(* Forged view changes, new views and pre-prepares from one replica     *)

let honest = [ 0; 2; 3 ]

(* Six transactions committed at every replica. *)
let committed_world ?seed () =
  let cluster = Cluster.make ?seed ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit_and_wait cluster client 6);
  Cluster.run cluster ~ms:100.0;
  (cluster, client)

let counter r = Iaccf_kv.State.find_opt "counter" (Iaccf_kv.Store.map (Replica.store r))

(* What a refused attack leaves an honest replica holding. *)
let holding r =
  Printf.sprintf "view %d, committed %d, ledger %d, counter %s" (Replica.view r)
    (Replica.last_committed r)
    (Ledger.length (Replica.ledger r))
    (Option.value (counter r) ~default:"absent")

let check_audits cluster r =
  let params = Cluster.params cluster in
  let auditor =
    Audit.create ~genesis:(Cluster.genesis cluster)
      ~app:(App.create Cluster.counter_app_procs)
      ~pipeline:params.Replica.pipeline
      ~checkpoint_interval:params.Replica.checkpoint_interval
  in
  let ledger = Replica.ledger r in
  match Audit.audit auditor ~receipts:[] ~ledger ~responder:(Replica.id r) () with
  | Ok () -> ()
  | Error v -> Alcotest.failf "replica %d's ledger: %a" (Replica.id r) Audit.pp_verdict v

(* Another transaction commits at every honest replica, and each ledger
   audits clean. *)
let keeps_committing cluster client =
  let committed id = Replica.last_committed (Cluster.replica cluster id) in
  let before = List.map committed honest in
  ignore (submit_and_wait cluster client 1);
  Cluster.run cluster ~ms:100.0;
  List.iter2
    (fun id lc ->
      let r = Cluster.replica cluster id in
      check Alcotest.bool (Printf.sprintf "replica %d commits" id) true
        (Replica.last_committed r > lc);
      check_audits cluster r)
    honest before

let sign_as cluster id d = Schnorr.sign (Cluster.replica_sk cluster id) (D.to_raw d)

let signed_vc cluster ~view id =
  {
    Message.vc_view = view;
    vc_replica = id;
    vc_last_prepared = [];
    vc_signature =
      sign_as cluster id (Message.view_change_payload ~view ~replica:id ~last_prepared:[]);
  }

(* A new view from [primary] naming [vcs] (or the given digest and
   bitmap), under the m_root an honest replica computes after rolling back
   to genesis and appending the set. *)
let signed_nv cluster ~view ~primary ?vc_hash ?vc_bitmap vcs =
  let ledger = Ledger.create (Cluster.genesis cluster) in
  let entry = Entry.View_change_set vcs in
  ignore (Ledger.append ledger entry);
  let m_root = Ledger.m_root ledger in
  let vc_hash = Option.value vc_hash ~default:(Entry.leaf_digest entry) in
  let vc_bitmap =
    Option.value vc_bitmap
      ~default:(Bitmap.of_list (List.map (fun vc -> vc.Message.vc_replica) vcs))
  in
  {
    Message.nv_view = view;
    nv_m_root = m_root;
    nv_vc_bitmap = vc_bitmap;
    nv_vc_hash = vc_hash;
    nv_primary = primary;
    nv_signature =
      sign_as cluster primary
        (Message.new_view_payload ~view ~m_root ~vc_bitmap ~vc_hash ~primary);
  }

let send_new_view cluster nv vcs =
  List.iter
    (fun dst ->
      Network.send (Cluster.network cluster) ~src:1 ~dst (Wire.New_view_msg { nv; vcs }))
    honest;
  Cluster.run cluster ~ms:200.0

(* Replica 1, the primary of view 1, sends a new view whose set is its own
   view change three times, validly signed, reporting nothing prepared.
   Counting the repeats as a quorum rolled every honest replica back to
   genesis, past a batch the client holds receipts for. *)
let test_padded_new_view_refused () =
  let cluster, client = committed_world () in
  let before = List.map (fun id -> holding (Cluster.replica cluster id)) honest in
  let vc = signed_vc cluster ~view:1 1 in
  let vcs = [ vc; vc; vc ] in
  send_new_view cluster (signed_nv cluster ~view:1 ~primary:1 vcs) vcs;
  List.iter2
    (fun id b ->
      check Alcotest.string (Printf.sprintf "replica %d holds" id) b
        (holding (Cluster.replica cluster id)))
    honest before;
  keeps_committing cluster client

(* Replica 1 sends replica 2 an unsolicited ledger extent holding one
   new-view entry for view 9 with a garbage signature. Replica 2 appended
   it unchecked, moved to view 9 and stopped committing, and its ledger
   failed the audit. *)
let test_forged_new_view_entry_refused () =
  let cluster, client = committed_world () in
  let r2 = Cluster.replica cluster 2 in
  let before = holding r2 in
  let len = Ledger.length (Replica.ledger r2) in
  let nv =
    {
      Message.nv_view = 9;
      nv_m_root = Ledger.m_root (Replica.ledger r2);
      nv_vc_bitmap = Bitmap.empty;
      nv_vc_hash = D.zero;
      nv_primary = 1;
      nv_signature = "garbage";
    }
  in
  Network.send (Cluster.network cluster) ~src:1 ~dst:2
    (Wire.Ledger_suffix_chunk
       { lc_from = len; lc_entries = [ Entry.New_view nv ]; lc_upto = len + 1; lc_view = 9 });
  Cluster.run cluster ~ms:100.0;
  check Alcotest.string "replica 2 holds" before (holding r2);
  keeps_committing cluster client

(* Replica 1 sends replica 2 an unsolicited ledger extent whose batch has
   correct roots and the view-0 primary's signature, but executes a
   request below its minimum index. Backups and the auditor refuse such a
   batch; catch-up adopted it, and replica 2 committed a batch no other
   replica holds. *)
let test_min_index_extent_refused () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let r2 = Cluster.replica cluster 2 in
  let before = holding r2 in
  let genesis = Cluster.genesis cluster in
  let params = Cluster.params cluster in
  let forge =
    Forge.create ~genesis
      ~sks:(List.init 4 (fun i -> (i, Cluster.replica_sk cluster i)))
      ~app:(App.create Cluster.counter_app_procs)
      ~pipeline:params.Replica.pipeline
      ~checkpoint_interval:params.Replica.checkpoint_interval
  in
  let sk, client_pk = Schnorr.keypair_of_seed "min-index-client" in
  let req =
    Request.make ~sk ~client_pk ~service:(Genesis.hash genesis) ~min_index:1000
      ~client_seqno:0 ~proc:"counter/add" ~args:"5" ()
  in
  ignore (Forge.add_batch forge [ req ]);
  let entries = List.map snd (Ledger.entries (Forge.ledger forge) ~from:1 ()) in
  let upto = 1 + List.length entries in
  Network.send (Cluster.network cluster) ~src:1 ~dst:2
    (Wire.Ledger_suffix_chunk
       { lc_from = 1; lc_entries = entries; lc_upto = upto; lc_view = 0 });
  Cluster.run cluster ~ms:100.0;
  check Alcotest.string "replica 2 holds" before (holding r2);
  keeps_committing cluster client

(* Primary 0 re-signs its pre-prepares with a gov_index 7 too high. The
   backups committed them, and their ledgers failed the audit; they now
   refuse the batch, the progress timer changes the view, and the
   transaction commits under the next primary. *)
let test_wrong_gov_index_refused () =
  let cluster = Cluster.make ~n:4 () in
  Network.set_intercept (Cluster.network cluster) 0 (fun ~dst msg ->
      match msg with
      | Wire.Pre_prepare_msg { pp; batch } ->
          let pp = { pp with Message.gov_index = pp.Message.gov_index + 7 } in
          let pp = { pp with Message.signature = sign_as cluster 0 (Message.pp_hash pp) } in
          [ (dst, Wire.Pre_prepare_msg { pp; batch }) ]
      | _ -> [ (dst, msg) ]);
  let client = Cluster.add_client cluster () in
  Client.submit client ~proc:"counter/add" ~args:"1" ();
  (* Bounded: a backup that accepts the batch sends the client a replyx
     naming gov_index 7, and the parent client then stormed. *)
  ignore
    (Cluster.run_until cluster ~timeout_ms:10_000.0 (fun () ->
         Client.completed client = 1
         || Network.messages_sent (Cluster.network cluster) > 5_000));
  check Alcotest.int "completed" 1 (Client.completed client);
  Cluster.run cluster ~ms:100.0;
  check Alcotest.bool "refused" true
    (Iaccf_obs.Obs.counter_value (Cluster.obs cluster) "replica.reject.gov_index" >= 1);
  List.iter (fun id -> check_audits cluster (Cluster.replica cluster id)) [ 1; 2; 3 ]

(* Replica 0 rewrites its replyx messages to name gov_index 99 under a
   pre-prepare it signs itself. The client asked every replica for
   governance receipts, re-ran completion on each answer, asked again, and
   each round multiplied the traffic by N: hundreds of thousands of
   messages within milliseconds, and the request never completed. *)
let test_governance_receipt_requests_bounded () =
  let cluster = Cluster.make ~n:4 () in
  let net = Cluster.network cluster in
  let forged = ref 0 in
  Network.set_intercept net 0 (fun ~dst msg ->
      match msg with
      | Wire.Replyx_msg x ->
          incr forged;
          let pp = { x.Message.x_pp with Message.gov_index = 99 } in
          let pp = { pp with Message.signature = sign_as cluster 0 (Message.pp_hash pp) } in
          [ (dst, Wire.Replyx_msg { x with Message.x_pp = pp }) ]
      | _ -> [ (dst, msg) ]);
  let client = Cluster.add_client cluster () in
  let completed = ref 0 in
  for i = 1 to 8 do
    Client.submit client ~proc:"counter/add" ~args:(string_of_int i)
      ~on_complete:(fun _ -> incr completed)
      ()
  done;
  let bound = 2_000 in
  ignore
    (Cluster.run_until cluster ~timeout_ms:5_000.0 (fun () ->
         !completed = 8 || Network.messages_sent net > bound));
  check Alcotest.bool "replica 0 forged a replyx" true (!forged > 0);
  check Alcotest.bool "messages bounded" true (Network.messages_sent net <= bound);
  check Alcotest.int "all complete" 8 !completed

(* The primary of view 1 sends one new view, mutated from a set of three
   view changes that report nothing prepared. Unmutated, that set would
   roll the honest replicas back to genesis; each mutation must be
   refused before anything moves. *)
type mutation =
  | Repeated_sender
  | Mixed_views
  | Below_quorum
  | Broken_signature
  | Unsorted_senders
  | Wrong_digest
  | Wrong_bitmap

(* A backup the client's request never reached fetches the batch from the
   primary and buffers the pre-prepare meanwhile. Once processed, that
   pre-prepare must leave the pending set: a stale entry reads as stalled
   work on every progress tick and starts view changes against a healthy
   primary. *)
let test_lost_request_keeps_view () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  Iaccf_sim.Network.set_intercept (Cluster.network cluster) (Client.address client)
    (fun ~dst msg ->
      match msg with Wire.Request_msg _ when dst = 3 -> [] | _ -> [ (dst, msg) ]);
  Client.submit client ~proc:"counter/add" ~args:"1" ();
  Cluster.run cluster ~ms:5_000.0;
  check Alcotest.int "committed" 1 (Client.completed client);
  List.iter
    (fun r ->
      check Alcotest.int
        (Printf.sprintf "replica %d view changes" (Replica.id r))
        0 (Replica.stats r).Replica.view_changes)
    (Cluster.replicas cluster)

let mutation_name = function
  | Repeated_sender -> "repeated sender"
  | Mixed_views -> "mixed views"
  | Below_quorum -> "below quorum"
  | Broken_signature -> "broken view-change signature"
  | Unsorted_senders -> "unsorted senders"
  | Wrong_digest -> "wrong digest"
  | Wrong_bitmap -> "wrong bitmap"

let prop_mutated_new_view =
  let mutations =
    [
      Repeated_sender;
      Mixed_views;
      Below_quorum;
      Broken_signature;
      Unsorted_senders;
      Wrong_digest;
      Wrong_bitmap;
    ]
  in
  QCheck.Test.make ~count:140 ~name:"a mutated new view leaves honest replicas intact"
    QCheck.(
      pair
        (make ~print:mutation_name (Gen.oneofl mutations))
        (make ~print:string_of_int (Gen.int_range 1 1000)))
    (fun (mutation, seed) ->
      let cluster, _ = committed_world ~seed () in
      let prefix r =
        List.init (Replica.last_committed r) (fun i ->
            match Ledger.find_pre_prepare (Replica.ledger r) ~seqno:(i + 1) with
            | Some (_, pp) -> D.to_hex (Message.pp_hash pp)
            | None -> "missing")
      in
      let before = List.map (fun id -> prefix (Cluster.replica cluster id)) honest in
      let vc = signed_vc cluster ~view:1 in
      let set = [ vc 0; vc 1; vc 2 ] in
      let vcs, vc_hash, vc_bitmap =
        match mutation with
        | Repeated_sender -> ([ vc 0; vc 1; vc 1 ], None, None)
        | Mixed_views -> ([ vc 0; vc 1; signed_vc cluster ~view:2 2 ], None, None)
        | Below_quorum -> ([ vc 0; vc 1 ], None, None)
        | Broken_signature ->
            let broken = { (vc 1) with Message.vc_signature = String.make 64 'x' } in
            ([ vc 0; broken; vc 2 ], None, None)
        | Unsorted_senders -> ([ vc 1; vc 0; vc 2 ], None, None)
        | Wrong_digest -> (set, Some (D.of_string "another set"), None)
        | Wrong_bitmap -> (set, None, Some (Bitmap.of_list [ 0; 1; 3 ]))
      in
      send_new_view cluster (signed_nv cluster ~view:1 ~primary:1 ?vc_hash ?vc_bitmap vcs) vcs;
      List.iter2
        (fun id b ->
          let r = Cluster.replica cluster id in
          if List.filteri (fun i _ -> i < List.length b) (prefix r) <> b then
            QCheck.Test.fail_reportf "replica %d lost its committed prefix" id;
          check_audits cluster r)
        honest before;
      true)

(* The vote module on its own: one slot, [n] replicas, each revealing a
   nonce that opens, 32 wrong bytes, a short preimage of its commitment
   (which a bare hash compare accepts), or nothing; a backup may also
   lack a prepare. *)
type vote = Opens | Wrong_bytes | Short_preimage | No_nonce | No_prepare

let prop_votes =
  QCheck.Test.make ~count:300
    ~name:"selected evidence matches and audits; a nonce that does not open never counts"
    QCheck.(pair (int_range 4 10) (int_bound 1_000_000))
    (fun (n, seed) ->
      let module Nonce = Iaccf_crypto.Nonce in
      let module Bitmap = Iaccf_util.Bitmap in
      let rng = Random.State.make [| seed |] in
      let quorum = n - (((n + 2) / 3) - 1) in
      let primary = Random.State.int rng n in
      let ids = List.init n Fun.id in
      let backups = List.filter (( <> ) primary) ids in
      let kinds =
        Array.init n (fun r ->
            match Random.State.int rng 10 with
            | 0 -> Wrong_bytes
            | 1 -> Short_preimage
            | 2 -> No_nonce
            | 3 when r <> primary -> No_prepare
            | _ -> Opens)
      in
      let commitment r =
        match kinds.(r) with
        | Short_preimage -> D.of_string "ab"
        | _ -> Nonce.commit (Nonce.derive ~key:(string_of_int r) ~view:0 ~seqno:1)
      in
      let revealed r =
        match kinds.(r) with
        | Wrong_bytes -> String.make 32 'z'
        | Short_preimage -> "ab"
        | _ -> Nonce.reveal (Nonce.derive ~key:(string_of_int r) ~view:0 ~seqno:1)
      in
      let pp =
        {
          Message.view = 0;
          seqno = 1;
          m_root = D.zero;
          g_root = D.zero;
          nonce_com = commitment primary;
          ev_bitmap = Bitmap.empty;
          gov_index = 0;
          cp_digest = D.zero;
          kind = Iaccf_types.Batch.Regular;
          primary;
          signature = "";
        }
      in
      let pph = Message.pp_hash pp in
      let prepares =
        List.filter_map
          (fun r ->
            if kinds.(r) = No_prepare then None
            else
              Some
                {
                  Message.p_view = 0;
                  p_seqno = 1;
                  p_replica = r;
                  p_nonce_com = commitment r;
                  p_pp_hash = pph;
                  p_signature = "";
                })
          backups
      in
      let votes = Votes.create ~nonce_key:"own" in
      List.iter (Votes.add_prepare votes) prepares;
      List.iter
        (fun r -> if kinds.(r) <> No_nonce then Votes.add_nonce votes ~view:0 ~seqno:1 (r, revealed r))
        ids;
      let opens r = kinds.(r) = Opens in
      let good_backups = List.filter opens backups in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      if Votes.committed votes pp ~quorum <> (List.length (List.filter opens ids) >= quorum)
      then fail "commit counted a vote that does not count";
      (* The auditor refuses every bad nonce, including the short preimage
         a bare hash compare accepts. *)
      List.iter
        (fun r ->
          match kinds.(r) with
          | (Wrong_bytes | Short_preimage)
            when Votes.nonce_fault pp prepares (r, revealed r) = None ->
              fail "the audit accepted replica %d's nonce" r
          | _ -> ())
        ids;
      (match Votes.evidence_for votes pp ~quorum with
      | None ->
          if opens primary && List.length good_backups >= quorum - 1 then
            fail "no evidence selected from %d opening backups" (List.length good_backups)
      | Some (ps, ns, bitmap) ->
          let expected =
            primary :: List.filteri (fun i _ -> i < quorum - 1) good_backups
          in
          if Bitmap.to_list bitmap <> List.sort compare expected then
            fail "selected the wrong replicas";
          if List.exists (fun p -> Votes.prepare_fault pp ~pph p <> None) ps
             || List.exists (fun v -> Votes.nonce_fault pp ps v <> None) ns
          then fail "the audit refused the selected evidence";
          if Votes.evidence_matching votes pp ~quorum bitmap <> Some (ps, ns) then
            fail "the backup match differs from the selection");
      (* A bitmap naming a backup whose vote does not count never matches. *)
      List.iter
        (fun b ->
          if not (opens b) then begin
            let others = List.filter (( <> ) b) backups in
            let bitmap =
              Bitmap.of_list
                (primary :: b :: List.filteri (fun i _ -> i < quorum - 2) others)
            in
            if Votes.evidence_matching votes pp ~quorum bitmap <> None then
              fail "matched replica %d's vote" b
          end)
        backups;
      true)

(* Reply path: commit one transaction while recording what every replica
   sends, and return the log, the client, the transaction and the replica
   that sent its replyx (the designated one). *)
let reply_world () =
  let cluster = Cluster.make ~n:4 () in
  let net = Cluster.network cluster in
  let sent = ref [] in
  List.iter
    (fun id ->
      Iaccf_sim.Network.set_intercept net id (fun ~dst msg ->
          sent := (id, dst, msg) :: !sent;
          [ (dst, msg) ]))
    [ 0; 1; 2; 3 ];
  let client = Cluster.add_client cluster () in
  let tx = outcome_tx (List.hd (submit_and_wait cluster client 1)) in
  Cluster.run cluster ~ms:100.0;
  let designated =
    List.find_map
      (function src, _, Wire.Replyx_msg _ -> Some src | _ -> None)
      !sent
    |> Option.get
  in
  (cluster, sent, client, tx, designated)

(* What replica [id] sent to [dst] since the log was cleared, oldest first. *)
let sent_by sent ~id ~dst =
  List.rev !sent
  |> List.filter_map (fun (src, d, msg) ->
         if src = id && d = dst then Some msg else None)

let is_replyx_for tx = function
  | Wire.Replyx_msg x ->
      D.equal
        (Iaccf_types.Request.hash x.Message.x_tx.Iaccf_types.Batch.request)
        (Iaccf_types.Request.hash tx.Iaccf_types.Batch.request)
  | _ -> false

(* A replica that is not the designated one answers a replyx request from
   the executed-request index. *)
let test_replyx_request_non_designated () =
  let cluster, sent, client, tx, designated = reply_world () in
  let other = (designated + 1) mod 4 in
  let addr = Client.address client in
  sent := [];
  Iaccf_sim.Network.send (Cluster.network cluster) ~src:addr ~dst:other
    (Wire.Replyx_request
       { rr_tx_hash = Iaccf_types.Request.hash tx.Iaccf_types.Batch.request });
  Cluster.run cluster ~ms:50.0;
  match sent_by sent ~id:other ~dst:addr with
  | [ m ] -> check Alcotest.bool "the replyx for the tx" true (is_replyx_for tx m)
  | ms -> Alcotest.failf "expected one replyx, got %d messages" (List.length ms)

let test_retransmit_gets_reply_material () =
  let cluster, sent, client, tx, designated = reply_world () in
  let other = (designated + 1) mod 4 in
  let addr = Client.address client in
  sent := [];
  Iaccf_sim.Network.send (Cluster.network cluster) ~src:addr ~dst:other
    (Wire.Request_msg tx.Iaccf_types.Batch.request);
  Cluster.run cluster ~ms:50.0;
  match sent_by sent ~id:other ~dst:addr with
  | [ Wire.Reply_msg r; x ] ->
      check Alcotest.int "reply from the replica asked" other r.Message.r_replica;
      check Alcotest.bool "then the replyx" true (is_replyx_for tx x)
  | ms ->
      Alcotest.failf "expected a reply and a replyx, got %d messages"
        (List.length ms)

(* A request whose client signature does not verify is dropped with a
   reason code at each replica it reaches: none admits it, and no
   replica answers it. *)
let test_bad_request_signature_counted () =
  let cluster, sent, client, _, _ = reply_world () in
  let addr = Client.address client in
  let forwarded = ref 0 in
  Network.set_intercept (Cluster.network cluster) addr (fun ~dst msg ->
      match msg with
      | Wire.Request_msg r ->
          incr forwarded;
          let flipped =
            String.mapi
              (fun i c -> if i = 10 then Char.chr (Char.code c lxor 4) else c)
              r.Request.signature
          in
          [
            ( dst,
              Wire.Request_msg
                (Request.of_fields ~client_pk:r.Request.client_pk ~service:r.Request.service
                   ~min_index:r.Request.min_index ~client_seqno:r.Request.client_seqno
                   ~signature:flipped ~proc:r.Request.proc ~args:r.Request.args ()) );
          ]
      | _ -> [ (dst, msg) ]);
  let rejects () =
    Iaccf_obs.Obs.counter_value (Cluster.obs cluster) "replica.reject.request_signature"
  in
  check Alcotest.int "no reject before" 0 (rejects ());
  sent := [];
  Client.submit client ~proc:"counter/add" ~args:"5" ~on_complete:(fun _ -> ()) ();
  Cluster.run cluster ~ms:50.0;
  check Alcotest.bool "the request was sent" true (!forwarded >= 1);
  check Alcotest.int "one reject per request received" !forwarded (rejects ());
  List.iter
    (fun r ->
      check Alcotest.int
        (Printf.sprintf "replica %d admitted nothing" (Replica.id r))
        0 (Replica.pending_requests r))
    (Cluster.replicas cluster);
  check Alcotest.int "no answer" 0
    (List.length (List.concat_map (fun id -> sent_by sent ~id ~dst:addr) [ 0; 1; 2; 3 ]))

(* The executed-request index follows a request through a rollback.
   Primary 0's pre-prepares reach only replica 3, which executes X at
   seqno 2 and B at 3; X's request never reaches the next primary. While
   B is executed but uncommitted, a retransmit gets no answer. After the
   view change the new primary puts B at seqno 2, and replica 3 answers
   a retransmit and a replyx request from seqno 2. *)
let test_retransmit_after_rollback () =
  let params = { Replica.default_params with max_batch = 1 } in
  let cluster = Cluster.make ~n:4 ~params () in
  let net = Cluster.network cluster in
  let client = Cluster.add_client cluster () in
  let addr = Client.address client in
  ignore (submit_and_wait cluster client 1);
  Cluster.run cluster ~ms:100.0;
  let sent = ref [] in
  Iaccf_sim.Network.set_intercept net 3 (fun ~dst msg ->
      sent := (3, dst, msg) :: !sent;
      [ (dst, msg) ]);
  Iaccf_sim.Network.set_intercept net 0 (fun ~dst msg ->
      match msg with
      | Wire.Pre_prepare_msg _ when dst <> 3 -> []
      | _ -> [ (dst, msg) ]);
  let args_of (r : Iaccf_types.Request.t) = r.Iaccf_types.Request.args in
  let hold_x = ref true in
  Iaccf_sim.Network.set_intercept net addr (fun ~dst msg ->
      match msg with
      | Wire.Request_msg r when !hold_x && args_of r = "7" && (dst = 1 || dst = 2) -> []
      | _ -> [ (dst, msg) ]);
  let outcomes = ref [] in
  List.iter
    (fun args ->
      Client.submit client ~proc:"counter/add" ~args
        ~on_complete:(fun oc -> outcomes := oc :: !outcomes)
        ();
      Cluster.run cluster ~ms:20.0)
    [ "7"; "8" ];
  let r3 = Cluster.replica cluster 3 in
  let b =
    match Ledger.find_pre_prepare (Replica.ledger r3) ~seqno:3 with
    | Some (i, _) -> (
        match Ledger.get (Replica.ledger r3) (i + 1) with
        | Entry.Tx tx when args_of tx.Iaccf_types.Batch.request = "8" -> tx
        | _ -> Alcotest.fail "replica 3 did not execute B at seqno 3")
    | None -> Alcotest.fail "replica 3 did not execute seqno 3"
  in
  let b_req = b.Iaccf_types.Batch.request in
  sent := [];
  Iaccf_sim.Network.send net ~src:addr ~dst:3 (Wire.Request_msg b_req);
  Cluster.run cluster ~ms:20.0;
  check Alcotest.int "B uncommitted" 1 (Replica.last_committed r3);
  check Alcotest.int "no answer while uncommitted" 0
    (List.length (sent_by sent ~id:3 ~dst:addr));
  hold_x := false;
  Replica.stop (Cluster.replica cluster 0);
  let ok =
    Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () -> List.length !outcomes = 2)
  in
  check Alcotest.bool "both commit after the view change" true ok;
  let b_oc =
    List.find (fun oc -> D.equal (request_hash (outcome_tx oc)) (request_hash b)) !outcomes
  in
  check Alcotest.int "B's new seqno" 2 b_oc.Client.oc_receipt.Receipt.pp.Message.seqno;
  Cluster.run cluster ~ms:100.0;
  sent := [];
  Iaccf_sim.Network.send net ~src:addr ~dst:3 (Wire.Request_msg b_req);
  Iaccf_sim.Network.send net ~src:addr ~dst:3
    (Wire.Replyx_request { rr_tx_hash = request_hash b });
  Cluster.run cluster ~ms:50.0;
  (* The two answers may interleave: match the messages in any order. *)
  let answers = sent_by sent ~id:3 ~dst:addr in
  let replies, replyxs =
    List.partition (function Wire.Reply_msg _ -> true | _ -> false) answers
  in
  match (replies, replyxs) with
  | [ Wire.Reply_msg r ], [ (Wire.Replyx_msg x1 as m1); (Wire.Replyx_msg x2 as m2) ] ->
      check Alcotest.int "reply seqno" 2 r.Message.r_seqno;
      List.iter
        (fun (x, m) ->
          check Alcotest.int "replyx seqno" 2 x.Message.x_pp.Message.seqno;
          check Alcotest.bool "the replyx for B" true (is_replyx_for b m))
        [ (x1, m1); (x2, m2) ]
  | _ ->
      Alcotest.failf "expected a reply and two replyxs, got %d messages"
        (List.length answers)

let test_nonreceipt_variant_runs () =
  let params =
    { Replica.default_params with variant = Variant.no_receipt }
  in
  let cluster = Cluster.make ~n:4 ~params () in
  let client = Cluster.add_client cluster ~verify_receipts:false () in
  (* Without replyx the client never assembles receipts; measure commit. *)
  for _ = 1 to 5 do
    Client.submit client ~proc:"counter/add" ~args:"1" ()
  done;
  let r0 = Cluster.replica cluster 0 in
  let ok =
    Cluster.run_until cluster (fun () -> (Replica.stats r0).Replica.txs_committed >= 5)
  in
  check Alcotest.bool "commits without receipts" true ok

let test_min_index_ordering () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let first = submit_and_wait cluster client 1 in
  let idx1 = (List.hd first).Client.oc_index in
  (* The client raises min_index past the first receipt; the second
     transaction must land at a strictly larger index. *)
  let second = submit_and_wait cluster client 1 in
  let idx2 = (List.hd second).Client.oc_index in
  check Alcotest.bool "indices increase" true (idx2 > idx1);
  check Alcotest.bool "min_index advanced" true (Client.min_index client > idx1)

(* The request pool on its own, against a model: the pending requests as
   a list, oldest first, and the executed ones with where they landed.
   Eight requests, two of them governance, with minimum indices 0 to 6.
   "Execute" of an unknown request is catch-up's adoption of a batch
   whose requests never arrived. *)
type pool_op =
  | Admit of int
  | Execute of int * int
  | Return of int
  | Take of int * int
  | Lookup of int list

let pool_universe =
  let _, pk = Schnorr.keypair_of_seed "pool" in
  Array.init 8 (fun i ->
      Request.of_fields ~client_pk:pk ~service:D.zero ~min_index:(i mod 4 * 2) ~client_seqno:i
        ~proc:(if i mod 3 = 2 then "gov/vote" else "counter/add")
        ~args:"" ())

let prop_pool =
  let op =
    QCheck.Gen.(
      let req = int_bound 7 in
      frequency
        [
          (4, map (fun i -> Admit i) req);
          (3, map2 (fun i n -> Execute (i, n)) req (int_bound 50));
          (2, map (fun i -> Return i) req);
          (2, map2 (fun m b -> Take (1 + m, b)) (int_bound 4) (int_bound 8));
          (2, map (fun l -> Lookup l) (list_size (int_range 1 3) req));
        ])
  in
  let show = function
    | Admit i -> Printf.sprintf "admit %d" i
    | Execute (i, n) -> Printf.sprintf "execute %d at %d" i n
    | Return i -> Printf.sprintf "return %d" i
    | Take (m, b) -> Printf.sprintf "take max %d from %d" m b
    | Lookup l -> "lookup " ^ String.concat "," (List.map string_of_int l)
  in
  QCheck.Test.make ~count:500 ~name:"pool = list model: disjoint, one place each, oldest first"
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show ops))
        Gen.(list_size (int_bound 40) op))
    (fun ops ->
      let module Pool = Iaccf_core.Pool in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let req i = pool_universe.(i) and h i = Request.hash pool_universe.(i) in
      let ids = List.map (fun r -> r.Request.client_seqno) in
      let pool = Pool.create () in
      (* The model: pending ids oldest first, executed ids with (seqno, index). *)
      let pending = ref [] and executed = ref [] in
      let is_pending i = List.mem i !pending and is_executed i = List.mem_assoc i !executed in
      let step = function
        | Admit i ->
            let fresh = not (is_pending i || is_executed i) in
            if fresh then pending := !pending @ [ i ];
            if Pool.admit pool (req i) <> fresh then fail "admit %d: wrong answer" i
        | Execute (i, n) ->
            pending := List.filter (( <> ) i) !pending;
            executed := (i, (n / 10, n)) :: List.remove_assoc i !executed;
            Pool.execute pool (req i) ~seqno:(n / 10) ~index:n
        | Return i ->
            let back = not (is_pending i) in
            if back then begin
              executed := List.remove_assoc i !executed;
              pending := !pending @ [ i ]
            end;
            if Pool.return pool (req i) <> back then fail "return %d: wrong answer" i
        | Take (max, base_index) ->
            let rec model acc n = function
              | i :: rest when n > 0 ->
                  let r = req i in
                  if r.Request.min_index > base_index + max - n then model acc n rest
                  else if Request.is_governance r then List.rev (i :: acc)
                  else model (i :: acc) (n - 1) rest
              | _ -> List.rev acc
            in
            if ids (Pool.take pool ~max ~base_index) <> model [] max !pending then
              fail "take %d from %d differs" max base_index
        | Lookup l ->
            let hs = List.map h l in
            let known = List.for_all (fun i -> is_pending i || is_executed i) l in
            let distinct = List.length (List.sort_uniq compare l) = List.length l in
            let batch = if List.for_all is_pending l && distinct then Some l else None in
            if Pool.resolves pool hs <> known then fail "resolves: wrong answer";
            if Option.map ids (Pool.batch pool hs) <> batch then fail "batch: wrong answer";
            (* Once every hash resolves, no batch is a replay. *)
            let replays = List.exists is_executed l || not distinct in
            if known && (batch = None) <> replays then fail "replay: wrong answer"
      in
      let invariants () =
        if ids (Pool.pending pool) <> !pending then
          fail "pending order differs";
        if Pool.size pool <> List.length !pending then fail "size differs";
        Array.iteri
          (fun i _ ->
            if Pool.executed_at pool (h i) <> List.assoc_opt i !executed then
              fail "executed_at %d differs" i;
            if Pool.known pool (h i) <> (is_pending i || is_executed i) then
              fail "known %d differs" i;
            if is_pending i && is_executed i then fail "model: %d both pending and executed" i)
          pool_universe
      in
      List.iter
        (fun op ->
          step op;
          invariants ())
        ops;
      true)

let () =
  Alcotest.run "iaccf_protocol"
    [
      ( "happy path",
        [
          Alcotest.test_case "single tx" `Quick test_single_transaction;
          Alcotest.test_case "30 txs" `Quick test_many_transactions_sequential_counter;
          Alcotest.test_case "ledger agreement" `Quick test_replicas_agree_on_ledger;
          Alcotest.test_case "receipts verify offline" `Quick test_receipts_verify_offline;
          Alcotest.test_case "tampered receipt rejected" `Quick
            test_receipt_rejects_tampered_output;
          Alcotest.test_case "checkpoints" `Quick test_checkpoints_taken;
          Alcotest.test_case "multiple clients" `Quick test_multiple_clients;
          Alcotest.test_case "seven replicas" `Quick test_seven_replicas;
          Alcotest.test_case "min-index ordering" `Quick test_min_index_ordering;
          Alcotest.test_case "no g-tree retained" `Quick test_no_g_tree_retained;
        ] );
      ( "faults",
        [
          Alcotest.test_case "view change" `Quick test_view_change_on_primary_failure;
          Alcotest.test_case "state survives view change" `Quick
            test_view_change_preserves_committed_state;
          Alcotest.test_case "straggler catch-up" `Quick test_straggler_catches_up;
          Alcotest.test_case "rollback across checkpoint boundary" `Quick
            test_rollback_across_checkpoint_boundary;
          Alcotest.test_case "spoofed commit, short nonce" `Quick
            (test_spoofed_commit "short");
          Alcotest.test_case "spoofed commit, 32-byte nonce" `Quick
            (test_spoofed_commit (String.make 32 'x'));
          Alcotest.test_case "nonce equivocation keeps the view" `Quick
            test_nonce_equivocation_keeps_view;
          Alcotest.test_case "replayed request in a pre-prepare" `Quick
            test_replayed_request_rejected;
          Alcotest.test_case "padded new view" `Quick test_padded_new_view_refused;
          Alcotest.test_case "forged new-view ledger entry" `Quick
            test_forged_new_view_entry_refused;
          Alcotest.test_case "catch-up batch below its min index" `Quick
            test_min_index_extent_refused;
          Alcotest.test_case "pre-prepare with a wrong gov_index" `Quick
            test_wrong_gov_index_refused;
          Alcotest.test_case "governance receipt requests stay bounded" `Quick
            test_governance_receipt_requests_bounded;
          Alcotest.test_case "a lost request keeps the view" `Quick
            test_lost_request_keeps_view;
          QCheck_alcotest.to_alcotest prop_mutated_new_view;
        ] );
      ( "replies",
        [
          Alcotest.test_case "replyx request to another replica" `Quick
            test_replyx_request_non_designated;
          Alcotest.test_case "retransmit to a non-designated replica" `Quick
            test_retransmit_gets_reply_material;
          Alcotest.test_case "retransmit after a rollback" `Quick
            test_retransmit_after_rollback;
          Alcotest.test_case "bad request signature counted" `Quick
            test_bad_request_signature_counted;
        ] );
      ( "variants",
        [ Alcotest.test_case "no-receipt variant" `Quick test_nonreceipt_variant_runs ] );
      ("votes", [ QCheck_alcotest.to_alcotest prop_votes ]);
      ("pool", [ QCheck_alcotest.to_alcotest prop_pool ]);
    ]
