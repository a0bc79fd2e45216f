(* Receipt and governance-chain tests: Alg. 3 edge cases, codecs, and the
   client-side governance sub-ledger logic of §5.2. *)

open Iaccf_core
module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Request = Iaccf_types.Request
module Batch = Iaccf_types.Batch
module Message = Iaccf_types.Message
module Bitmap = Iaccf_util.Bitmap
module D = Iaccf_crypto.Digest32
module Schnorr = Iaccf_crypto.Schnorr
module Sigcheck = Iaccf_crypto.Sigcheck

let check = Alcotest.check

let world ?(n = 4) () =
  let cluster = Cluster.make ~n () in
  let genesis = Cluster.genesis cluster in
  let sks = List.init n (fun i -> (i, Cluster.replica_sk cluster i)) in
  let forge =
    Forge.create ~genesis ~sks ~app:(App.create Cluster.counter_app_procs)
      ~pipeline:2 ~checkpoint_interval:1000
  in
  (cluster, genesis, forge)

let request genesis ?(client_seqno = 0) ?(min_index = 0) proc args =
  let sk, pk = Schnorr.keypair_of_seed "receipt-client" in
  Request.make ~sk ~client_pk:pk ~service:(Genesis.hash genesis) ~client_seqno
    ~min_index ~proc ~args ()

let make_receipt ?(n = 4) () =
  let _, genesis, forge = world ~n () in
  let s = Forge.add_batch forge [ request genesis "counter/add" "1" ] in
  (genesis, Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0))

(* Every check here goes through one key table, as a client's does, so
   the keys the tests share (seed-1 replicas, one client) get combs and
   later cases check against them. *)
let checker = Sigcheck.create_private ()

let verify genesis r =
  Receipt.verify ~checker ~config:genesis.Genesis.initial_config
    ~service:(Genesis.hash genesis) r

let test_valid_receipt () =
  let genesis, r = make_receipt () in
  check Alcotest.bool "verifies" true (Result.is_ok (verify genesis r));
  check Alcotest.int "N-f signers" 3 (Bitmap.cardinal (Receipt.signers r));
  check Alcotest.(option int) "carries the ledger index" (Some 2) (Receipt.index r)

let test_codec_roundtrip () =
  let genesis, r = make_receipt () in
  let r' = Receipt.deserialize (Receipt.serialize r) in
  check Alcotest.bool "equal" true (Receipt.equal r r');
  check Alcotest.bool "still verifies" true (Result.is_ok (verify genesis r'))

(* Receipt.make sorts the chosen backups by replica id, so the order a
   caller collected them in does not reach the receipt's bytes. *)
let test_make_sorts_backups () =
  let genesis, r = make_receipt () in
  let backups =
    List.combine (Bitmap.to_list r.Receipt.prep_bitmap)
      (List.combine r.Receipt.prepare_sigs r.Receipt.nonces)
    |> List.map (fun (id, (sg, nonce)) -> (id, sg, nonce))
  in
  let sorted = Receipt.make r.Receipt.pp backups r.Receipt.subject in
  let shuffled = Receipt.make r.Receipt.pp (List.rev backups) r.Receipt.subject in
  check Alcotest.string "same bytes" (Receipt.serialize sorted)
    (Receipt.serialize shuffled);
  check Alcotest.string "same as the original" (Receipt.serialize r)
    (Receipt.serialize shuffled);
  check Alcotest.bool "verifies" true (Result.is_ok (verify genesis shuffled))

let test_rejects_insufficient_quorum () =
  let genesis, r = make_receipt () in
  let backups = Bitmap.to_list r.Receipt.prep_bitmap in
  let drop_last l = List.filteri (fun i _ -> i < List.length l - 1) l in
  let weak =
    {
      r with
      Receipt.prep_bitmap = Bitmap.of_list (drop_last backups);
      prepare_sigs = drop_last r.Receipt.prepare_sigs;
      nonces = drop_last r.Receipt.nonces;
    }
  in
  match verify genesis weak with
  | Error e -> check Alcotest.string "reason" "fewer than N-f signers" e
  | Ok () -> Alcotest.fail "accepted sub-quorum receipt"

let test_rejects_primary_listed_as_backup () =
  let genesis, r = make_receipt () in
  let bad =
    {
      r with
      Receipt.prep_bitmap = Bitmap.add r.Receipt.pp.Iaccf_types.Message.primary r.Receipt.prep_bitmap;
      prepare_sigs = "x" :: r.Receipt.prepare_sigs;
      nonces = "y" :: r.Receipt.nonces;
    }
  in
  check Alcotest.bool "rejected" true (Result.is_error (verify genesis bad))

let test_rejects_wrong_nonce () =
  let genesis, r = make_receipt () in
  let bad = { r with Receipt.nonces = List.map (fun _ -> String.make 32 'z') r.Receipt.nonces } in
  check Alcotest.bool "nonce opens commitment" true (Result.is_error (verify genesis bad))

(* A backup that signs a prepare committing to the hash of a short string
   and reveals that string: the signature checks, but the replicas never
   count such a nonce, so neither may a receipt. *)
let test_rejects_short_nonce_preimage () =
  let cluster, genesis, forge = world () in
  let s = Forge.add_batch forge [ request genesis "counter/add" "1" ] in
  let r = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  let pp = r.Receipt.pp in
  let b = List.hd (Bitmap.to_list r.Receipt.prep_bitmap) in
  let short = "ab" in
  let payload =
    Iaccf_types.Message.prepare_payload ~view:pp.Iaccf_types.Message.view
      ~seqno:pp.Iaccf_types.Message.seqno ~replica:b ~nonce_com:(D.of_string short)
      ~pp_hash:(Iaccf_types.Message.pp_hash pp)
  in
  let signature = Schnorr.sign (Cluster.replica_sk cluster b) (D.to_raw payload) in
  let bad =
    {
      r with
      Receipt.prepare_sigs = signature :: List.tl r.Receipt.prepare_sigs;
      nonces = short :: List.tl r.Receipt.nonces;
    }
  in
  check Alcotest.bool "short preimage refused" true (Result.is_error (verify genesis bad))

let test_rejects_min_index_violation () =
  let _, genesis, forge = world () in
  (* A colluding quorum can order a request below its minimum index; the
     receipt itself then proves the violation (Thm. 2). *)
  let req = request genesis ~min_index:1000 "counter/add" "1" in
  let s = Forge.add_batch forge [ req ] in
  let r = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  match verify genesis r with
  | Error e -> check Alcotest.string "reason" "executed below its minimum index" e
  | Ok () -> Alcotest.fail "min-index violation accepted"

let test_rejects_foreign_service () =
  let genesis, r = make_receipt () in
  let other = Genesis.make ~label:"other" genesis.Genesis.initial_config in
  check Alcotest.bool "bound to service" true
    (Result.is_error
       (Receipt.verify ~checker ~config:genesis.Genesis.initial_config
          ~service:(Genesis.hash other) r))

let test_rejects_wrong_config () =
  (* Verifying under a 7-replica config whose keys differ must fail. *)
  let genesis, r = make_receipt () in
  let other_cluster = Cluster.make ~seed:99 ~n:4 () in
  let other_cfg = (Cluster.genesis other_cluster).Genesis.initial_config in
  check Alcotest.bool "wrong keys" true
    (Result.is_error
       (Receipt.verify ~checker ~config:other_cfg ~service:(Genesis.hash genesis) r))

(* Replica ids need not be 0..n-1: once replica 0 is removed, the
   configuration holds {1,2,3}, and a receipt signed by 1, 2 and 3 must
   verify under it. *)
let test_sparse_replica_ids () =
  let cluster = Cluster.make ~n:4 () in
  let cfg = (Cluster.genesis cluster).Genesis.initial_config in
  let cfg =
    {
      cfg with
      Config.replicas =
        List.filter (fun r -> r.Config.replica_id <> 0) cfg.Config.replicas;
    }
  in
  let genesis = Genesis.make cfg in
  let forge =
    Forge.create ~genesis
      ~sks:(List.map (fun i -> (i, Cluster.replica_sk cluster i)) [ 1; 2; 3 ])
      ~app:(App.create Cluster.counter_app_procs) ~pipeline:2 ~checkpoint_interval:1000
  in
  let s = Forge.add_batch forge [ request genesis "counter/add" "1" ] in
  let r = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  check Alcotest.(list int) "signers" [ 1; 2; 3 ] (Bitmap.to_list (Receipt.signers r));
  check Alcotest.(result unit string) "verifies" (Ok ()) (verify genesis r)

let test_batch_subject_receipt () =
  let _, genesis, forge = world () in
  ignore (Forge.add_batch forge [ request genesis "counter/add" "1" ]);
  let s =
    Forge.add_special_batch forge
      (Batch.End_of_config { phase = 2; committed_root = D.of_string "root" })
  in
  let r = Forge.make_receipt forge ~seqno:s ~tx_position:None in
  check Alcotest.bool "batch receipt verifies" true (Result.is_ok (verify genesis r));
  check Alcotest.bool "no index" true (Receipt.index r = None)

(* A shared table and a fresh one per call give the same verdicts; the
   shared one makes later checks cheaper once its keys have combs, and
   neither builds a comb on a key value it was given. The configuration
   and the receipts are decoded from bytes, so no other table has
   touched their keys. *)
let test_shared_table () =
  let _, genesis, forge = world () in
  let genesis = Genesis.deserialize (Genesis.serialize genesis) in
  let receipts =
    List.init 6 (fun i ->
        let s = Forge.add_batch forge [ request genesis ~client_seqno:i "counter/add" "1" ] in
        Receipt.deserialize
          (Receipt.serialize (Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0))))
  in
  let tampered = Forge.tamper_tx_output (List.hd receipts) ~output:(App.output_ok "9") in
  let config = genesis.Genesis.initial_config and service = Genesis.hash genesis in
  let shared = Sigcheck.create_private () in
  let muls f =
    let m = Iaccf_crypto.Group.muls () in
    let v = f () in
    (v, Iaccf_crypto.Group.muls () - m)
  in
  let costs =
    List.map
      (fun r ->
        let fresh = Receipt.verify ~config ~service r in
        let got, cost = muls (fun () -> Receipt.verify ~checker:shared ~config ~service r) in
        check Alcotest.(result unit string) "same verdict" fresh got;
        check Alcotest.(result unit string) "verifies" (Ok ()) got;
        cost)
      receipts
  in
  check Alcotest.bool "tampered rejected through the shared table" true
    (Result.is_error (Receipt.verify ~checker:shared ~config ~service tampered));
  check Alcotest.bool "cheaper once tabled" true
    (List.nth costs 5 < List.hd costs);
  List.iter
    (fun (r : Config.replica_info) ->
      check Alcotest.bool "given key value left untabled" false
        (Schnorr.has_table r.Config.replica_pk))
    config.Config.replicas

(* --- Govchain --- *)

(* The replyxs a replica sends from the g-tree it kept are the ones a
   rebuild produces, and each path reaches the batch's g_root. *)
let prop_replyxs_from_kept_tree =
  let genesis, r = make_receipt () in
  let pp = r.Receipt.pp in
  let tx i out =
    {
      Batch.request = request genesis ~client_seqno:i "counter/add" (string_of_int i);
      index = 10 + i;
      result = { Batch.output = out; write_set_hash = D.of_string out };
    }
  in
  let bytes xs =
    List.map (fun x -> Iaccf_util.Codec.encode (fun w -> Message.encode_replyx w x)) xs
  in
  QCheck.Test.make ~name:"replyxs from the kept g-tree = rebuild" ~count:50
    QCheck.(pair (list_of_size Gen.(int_range 1 20) small_printable_string) int)
    (fun (outputs, salt) ->
      let txs = List.mapi tx outputs in
      let pick (t : Batch.tx_entry) = (t.Batch.index + salt) mod 3 <> 0 in
      let kept = Receipt.replyxs ~g_tree:(Batch.g_tree txs) pp txs pick in
      let g_root = Batch.g_root txs in
      bytes kept = bytes (Receipt.replyxs pp txs pick)
      && List.for_all
           (fun (x : Message.replyx) ->
             Iaccf_merkle.Tree.verify_path ~leaf:(Batch.tx_leaf x.Message.x_tx)
               ~index:x.Message.x_leaf_index ~size:x.Message.x_batch_size
               ~path:x.Message.x_path ~root:g_root)
           kept)

let test_govchain_initial () =
  let _, genesis, _ = world () in
  let chain = Govchain.create genesis ~pipeline:2 in
  check Alcotest.int "config 0 everywhere" 0
    (Govchain.config_for_seqno chain 100).Config.config_no;
  check Alcotest.int "no gov receipts yet" 0 (List.length (Govchain.receipts chain));
  check Alcotest.int "last index is genesis" 0 (Govchain.last_gov_index chain)

let test_govchain_rejects_invalid () =
  let _, genesis, forge = world () in
  let s = Forge.add_batch forge [ request genesis "gov/vote" "bogus" ] in
  let r = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  let tampered = Forge.tamper_tx_output r ~output:(App.output_ok "passed") in
  let chain = Govchain.create genesis ~pipeline:2 in
  check Alcotest.bool "tampered gov receipt rejected" true
    (Result.is_error (Govchain.add_receipt chain tampered))

let test_govchain_duplicate_is_idempotent () =
  let _, genesis, forge = world () in
  let s = Forge.add_batch forge [ request genesis "counter/add" "1" ] in
  let r = Forge.make_receipt forge ~seqno:s ~tx_position:(Some 0) in
  let chain = Govchain.create genesis ~pipeline:2 in
  check Alcotest.bool "first" true (Result.is_ok (Govchain.add_receipt chain r));
  check Alcotest.bool "second" true (Result.is_ok (Govchain.add_receipt chain r));
  check Alcotest.int "stored once" 1 (List.length (Govchain.receipts chain))

let test_govchain_tracks_configuration () =
  (* Run a real referendum and feed the replica's governance receipts to a
     fresh chain: it must reach configuration 1 at the right seqno. *)
  let cluster = Cluster.make ~n:4 () in
  let members = Cluster.members cluster in
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let next = Cluster.make_next_config cluster ~remove_replicas:[ 3 ] ~base () in
  let submit client proc args =
    let result = ref None in
    Client.submit client ~proc ~args ~on_complete:(fun oc -> result := Some oc) ();
    ignore (Cluster.run_until cluster (fun () -> !result <> None));
    Option.get !result
  in
  let proposer = Cluster.add_member_client cluster (List.hd members) in
  let oc = submit proposer "gov/propose" (Config.serialize next) in
  let id = Result.get_ok oc.Client.oc_output in
  List.iteri
    (fun i m ->
      if i < 3 then ignore (submit (Cluster.add_member_client cluster m) "gov/vote" id))
    members;
  ignore
    (Cluster.run_until cluster ~timeout_ms:60_000.0 (fun () ->
         (Replica.config (Cluster.replica cluster 0)).Config.config_no = 1));
  Cluster.run cluster ~ms:1000.0;
  let receipts = Replica.gov_receipts (Cluster.replica cluster 0) in
  let chain = Govchain.create (Cluster.genesis cluster) ~pipeline:2 in
  (match Govchain.sync_from chain receipts with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sync failed: %s" e);
  check Alcotest.int "latest config" 1 (Govchain.latest_config chain).Config.config_no;
  (* The new configuration activates at vote_seqno + 2P; before that the
     old configuration must be reported. *)
  let vote_seqno =
    List.fold_left
      (fun acc r ->
        match r.Receipt.subject with
        | Receipt.Tx_subject { tx; _ }
          when tx.Batch.request.Request.proc = "gov/vote"
               && App.decode_output tx.Batch.result.Batch.output = Ok "passed" ->
            Receipt.seqno r
        | _ -> acc)
      0 receipts
  in
  check Alcotest.int "old config during transition" 0
    (Govchain.config_for_seqno chain (vote_seqno + 3)).Config.config_no;
  check Alcotest.int "new config after 2P" 1
    (Govchain.config_for_seqno chain (vote_seqno + 5)).Config.config_no

let () =
  Alcotest.run "iaccf_receipt"
    [
      ( "receipt",
        [
          Alcotest.test_case "valid" `Quick test_valid_receipt;
          Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "make sorts backups" `Quick test_make_sorts_backups;
          Alcotest.test_case "sub-quorum" `Quick test_rejects_insufficient_quorum;
          Alcotest.test_case "primary double-counted" `Quick
            test_rejects_primary_listed_as_backup;
          Alcotest.test_case "wrong nonce" `Quick test_rejects_wrong_nonce;
          Alcotest.test_case "short nonce preimage" `Quick test_rejects_short_nonce_preimage;
          Alcotest.test_case "min-index violation" `Quick test_rejects_min_index_violation;
          Alcotest.test_case "foreign service" `Quick test_rejects_foreign_service;
          Alcotest.test_case "wrong config" `Quick test_rejects_wrong_config;
          Alcotest.test_case "batch subject" `Quick test_batch_subject_receipt;
          Alcotest.test_case "sparse replica ids" `Quick test_sparse_replica_ids;
          Alcotest.test_case "shared key table" `Quick test_shared_table;
          QCheck_alcotest.to_alcotest prop_replyxs_from_kept_tree;
        ] );
      ( "govchain",
        [
          Alcotest.test_case "initial" `Quick test_govchain_initial;
          Alcotest.test_case "rejects invalid" `Quick test_govchain_rejects_invalid;
          Alcotest.test_case "idempotent" `Quick test_govchain_duplicate_is_idempotent;
          Alcotest.test_case "tracks configuration" `Quick test_govchain_tracks_configuration;
        ] );
    ]
