(* Protocol type tests: configurations, genesis, requests, messages, and
   their canonical codecs (round-trips and signing-payload stability). *)

open Iaccf_types
module Schnorr = Iaccf_crypto.Schnorr
module Sigcheck = Iaccf_crypto.Sigcheck
module D = Iaccf_crypto.Digest32
module Bitmap = Iaccf_util.Bitmap
module Codec = Iaccf_util.Codec

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- fixtures --- *)

let member_keys = List.init 4 (fun i -> Schnorr.keypair_of_seed (Printf.sprintf "m%d" i))
let replica_keys = List.init 6 (fun i -> Schnorr.keypair_of_seed (Printf.sprintf "r%d" i))

let make_config ?(ids = [ 0; 1; 2; 3 ]) ?(config_no = 0) () =
  let members =
    List.mapi
      (fun i (_, pk) -> { Config.member_name = Printf.sprintf "m%d" i; member_pk = pk })
      member_keys
  in
  let cfg_no_endorse =
    {
      Config.config_no;
      members;
      replicas =
        List.mapi
          (fun i id ->
            ignore i;
            {
              Config.replica_id = id;
              operator = Printf.sprintf "m%d" (id mod 4);
              replica_pk = snd (List.nth replica_keys id);
              endorsement = "";
            })
          ids;
      vote_threshold = 3;
    }
  in
  let replicas =
    List.map
      (fun (r : Config.replica_info) ->
        let msk, _ = List.nth member_keys (r.Config.replica_id mod 4) in
        let payload =
          Config.endorsement_payload cfg_no_endorse ~replica_id:r.Config.replica_id
            ~pk:r.Config.replica_pk
        in
        { r with Config.endorsement = Schnorr.sign msk (D.to_raw payload) })
      cfg_no_endorse.Config.replicas
  in
  { cfg_no_endorse with Config.replicas }

(* --- Config --- *)

let test_config_fault_thresholds () =
  let f n = Config.f (make_config ~ids:(List.init n Fun.id) ()) in
  check Alcotest.int "N=4" 1 (f 4);
  check Alcotest.int "N=5" 1 (f 5);
  check Alcotest.int "N=6" 1 (f 6);
  check Alcotest.int "quorum N=4" 3 (Config.quorum (make_config ()));
  let c5 = make_config ~ids:[ 0; 1; 2; 3; 4 ] () in
  check Alcotest.int "quorum N=5" 4 (Config.quorum c5)

let test_config_primary_rotation () =
  (* Non-dense ids: the primary is the (view mod N)-th id in sorted order. *)
  let c = make_config ~ids:[ 0; 2; 5 ] () in
  check Alcotest.int "view 0" 0 (Config.primary_of_view c 0);
  check Alcotest.int "view 1" 2 (Config.primary_of_view c 1);
  check Alcotest.int "view 2" 5 (Config.primary_of_view c 2);
  check Alcotest.int "view 3 wraps" 0 (Config.primary_of_view c 3)

(* Sparse ids in any order (repeats too, though [validate] refuses them):
   the counting [primary_of_view] picks what sorting and indexing picks. *)
let prop_primary_of_view_sorted =
  let base = make_config ~ids:[ 0 ] () in
  let pk = snd (List.hd replica_keys) in
  QCheck.Test.make ~name:"primary_of_view = nth of sorted ids" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 12) (int_bound 63)) (int_bound 1_000))
    (fun (ids, view) ->
      let replicas =
        List.map
          (fun id ->
            { Config.replica_id = id; operator = "m0"; replica_pk = pk; endorsement = "" })
          ids
      in
      let c = { base with Config.replicas } in
      Config.primary_of_view c view
      = List.nth (List.sort compare ids) (view mod List.length ids))

let test_config_validate () =
  let ok = make_config () in
  check Alcotest.bool "valid" true (Result.is_ok (Config.validate ok));
  let dup = { ok with Config.replicas = ok.Config.replicas @ ok.Config.replicas } in
  check Alcotest.bool "duplicate ids rejected" true (Result.is_error (Config.validate dup));
  let bad_threshold = { ok with Config.vote_threshold = 99 } in
  check Alcotest.bool "threshold range" true (Result.is_error (Config.validate bad_threshold));
  let bad_endorsement =
    {
      ok with
      Config.replicas =
        List.map
          (fun (r : Config.replica_info) -> { r with Config.endorsement = String.make 64 'x' })
          ok.Config.replicas;
    }
  in
  check Alcotest.bool "bad endorsement rejected" true
    (Result.is_error (Config.validate bad_endorsement))

let test_config_roundtrip () =
  let c = make_config ~ids:[ 0; 1; 2; 3; 4; 5 ] ~config_no:7 () in
  let c' = Config.deserialize (Config.serialize c) in
  check Alcotest.bool "equal" true (Config.equal c c');
  check Alcotest.int "config_no" 7 c'.Config.config_no;
  check Alcotest.int "n" 6 (Config.n_replicas c')

let test_config_lookups () =
  let c = make_config () in
  check Alcotest.(option string) "operator" (Some "m2") (Config.operator_of_replica c 2);
  check Alcotest.bool "missing replica" true (Config.replica c 9 = None);
  check Alcotest.bool "member pk known" true
    (Config.is_member_pk c (snd (List.hd member_keys)));
  check Alcotest.bool "random pk unknown" false
    (Config.is_member_pk c (snd (Schnorr.keypair_of_seed "stranger")))

(* --- Genesis --- *)

let test_genesis_hash_stability () =
  let g = Genesis.make (make_config ()) in
  let g' = Genesis.deserialize (Genesis.serialize g) in
  check Alcotest.string "hash stable" (D.to_hex (Genesis.hash g)) (D.to_hex (Genesis.hash g'));
  let g2 = Genesis.make ~label:"other-service" (make_config ()) in
  check Alcotest.bool "label changes service name" false
    (D.equal (Genesis.hash g) (Genesis.hash g2))

let test_genesis_requires_config_zero () =
  Alcotest.check_raises "config_no must be 0"
    (Invalid_argument "Genesis.make: initial configuration must have number 0")
    (fun () -> ignore (Genesis.make (make_config ~config_no:3 ())))

(* --- Request --- *)

let service = D.of_string "svc"

let make_request ?(min_index = 0) ?(client_seqno = 0) () =
  let sk, pk = Schnorr.keypair_of_seed "client" in
  Request.make ~sk ~client_pk:pk ~service ~min_index ~client_seqno ~proc:"p"
    ~args:"a" ()

(* Requests are checked through a key table; each call here has a fresh
   one, as a receipt checked without a shared table does. *)
let verify_request r ~service =
  Request.verify ~check:(Request.sigcheck (Sigcheck.create_private ())) r ~service

let test_request_verify () =
  let r = make_request () in
  check Alcotest.bool "verifies" true (verify_request r ~service);
  check Alcotest.bool "wrong service" false
    (verify_request r ~service:(D.of_string "other"));
  (* The same signature on different arguments. *)
  let tampered =
    Request.of_fields ~client_pk:r.Request.client_pk ~service ~signature:r.Request.signature
      ~proc:r.Request.proc ~args:"b" ()
  in
  check Alcotest.bool "tampered args" false (verify_request tampered ~service)

let test_request_roundtrip () =
  let r = make_request ~min_index:42 ~client_seqno:7 () in
  let r' = Request.deserialize (Request.serialize r) in
  check Alcotest.bool "hash stable" true (D.equal (Request.hash r) (Request.hash r'));
  check Alcotest.int "min_index" 42 r'.Request.min_index;
  check Alcotest.bool "still verifies" true (verify_request r' ~service)

let test_request_hash_distinct () =
  let a = make_request ~client_seqno:0 () in
  let b = make_request ~client_seqno:1 () in
  check Alcotest.bool "distinct seqno, distinct hash" false
    (D.equal (Request.hash a) (Request.hash b))

(* A request's carried digest is the hash of its serialization, however
   it was built: signed, unsigned, or decoded from the wire. *)
let prop_request_digest =
  let sk, pk = Schnorr.keypair_of_seed "client" in
  let build (how, proc, args, min_index, client_seqno) =
    match how with
    | 0 -> Request.make ~sk ~client_pk:pk ~service ~min_index ~client_seqno ~proc ~args ()
    | 1 -> Request.of_fields ~client_pk:pk ~service ~min_index ~client_seqno ~proc ~args ()
    | _ ->
        Request.deserialize
          (Request.serialize
             (Request.make ~sk ~client_pk:pk ~service ~min_index ~client_seqno ~proc ~args ()))
  in
  QCheck.Test.make ~name:"request digest = hash of serialization" ~count:100
    QCheck.(
      tup5 (int_range 0 2) small_printable_string string small_nat small_nat)
    (fun fields ->
      let r = build fields in
      D.equal (Request.hash r) (D.of_string (Request.serialize r)))

(* --- Batch --- *)

let arb_kind =
  let open QCheck in
  let gen =
    Gen.oneof
      [
        Gen.return Batch.Regular;
        Gen.map2
          (fun s d -> Batch.Checkpoint { cp_seqno = s; cp_digest = D.of_string (string_of_int d) })
          Gen.small_nat Gen.small_nat;
        Gen.map2
          (fun p d ->
            Batch.End_of_config { phase = p + 1; committed_root = D.of_string (string_of_int d) })
          Gen.small_nat Gen.small_nat;
        Gen.map (fun p -> Batch.Start_of_config { phase = p + 1 }) Gen.small_nat;
      ]
  in
  make ~print:(fun k -> Format.asprintf "%a" Batch.pp_kind k) gen

let prop_kind_roundtrip =
  QCheck.Test.make ~name:"batch kind codec roundtrip" ~count:200 arb_kind (fun k ->
      let enc = Codec.encode (fun w -> Batch.encode_kind w k) in
      Batch.kind_equal k (Codec.decode enc Batch.decode_kind))

let test_tx_entry_roundtrip () =
  let tx =
    {
      Batch.request = make_request ();
      index = 12;
      result = { Batch.output = "out"; write_set_hash = D.of_string "ws" };
    }
  in
  let enc = Batch.serialize_tx_entry tx in
  let tx' = Codec.decode enc Batch.decode_tx_entry in
  check Alcotest.string "identical bytes" enc (Batch.serialize_tx_entry tx');
  check Alcotest.bool "same leaf" true (D.equal (Batch.tx_leaf tx) (Batch.tx_leaf tx'))

let test_g_root_order_sensitive () =
  let tx i =
    {
      Batch.request = make_request ~client_seqno:i ();
      index = i;
      result = { Batch.output = ""; write_set_hash = D.of_string "w" };
    }
  in
  let a = Batch.g_root [ tx 1; tx 2 ] and b = Batch.g_root [ tx 2; tx 1 ] in
  check Alcotest.bool "order matters" false (D.equal a b);
  check Alcotest.bool "empty batch has empty-tree root" true
    (D.equal (Batch.g_root []) Iaccf_merkle.Tree.empty_root)

(* --- Messages --- *)

let sample_pp ?(view = 0) ?(seqno = 1) () =
  let sk, _ = Schnorr.keypair_of_seed "r0" in
  let payload =
    Message.pre_prepare_payload ~view ~seqno ~m_root:(D.of_string "m")
      ~g_root:(D.of_string "g") ~nonce_com:(D.of_string "n") ~ev_bitmap:Bitmap.empty
      ~gov_index:0 ~cp_digest:(D.of_string "c") ~kind:Batch.Regular ~primary:0
  in
  {
    Message.view;
    seqno;
    m_root = D.of_string "m";
    g_root = D.of_string "g";
    nonce_com = D.of_string "n";
    ev_bitmap = Bitmap.empty;
    gov_index = 0;
    cp_digest = D.of_string "c";
    kind = Batch.Regular;
    primary = 0;
    signature = Schnorr.sign sk (D.to_raw payload);
  }

let test_pre_prepare_verify () =
  let c = make_config () in
  let check_sig = Message.sigcheck (Sigcheck.create_private ()) c in
  let pp = sample_pp () in
  check Alcotest.bool "verifies" true (Message.verify_pre_prepare ~check:check_sig c pp);
  (* view 1's primary is replica 1, so replica 0's signature must fail. *)
  check Alcotest.bool "wrong view primary" false
    (Message.verify_pre_prepare ~check:check_sig c { pp with Message.view = 1 });
  check Alcotest.bool "tampered root" false
    (Message.verify_pre_prepare ~check:check_sig c { pp with Message.g_root = D.of_string "x" })

let test_pre_prepare_roundtrip () =
  let pp = sample_pp () in
  let enc = Message.serialize_pre_prepare pp in
  let pp' = Codec.decode enc Message.decode_pre_prepare in
  check Alcotest.bool "equal" true (Message.pre_prepare_equal pp pp');
  check Alcotest.bool "same hash" true
    (D.equal (Message.pp_hash pp) (Message.pp_hash pp'))

let test_prepare_verify_and_roundtrip () =
  let check_sig = Message.sigcheck (Sigcheck.create_private ()) (make_config ()) in
  let sk, _ = Schnorr.keypair_of_seed "r2" in
  let pp = sample_pp () in
  let payload =
    Message.prepare_payload ~view:0 ~seqno:1 ~replica:2 ~nonce_com:(D.of_string "nc")
      ~pp_hash:(Message.pp_hash pp)
  in
  let p =
    {
      Message.p_view = 0;
      p_seqno = 1;
      p_replica = 2;
      p_nonce_com = D.of_string "nc";
      p_pp_hash = Message.pp_hash pp;
      p_signature = Schnorr.sign sk (D.to_raw payload);
    }
  in
  check Alcotest.bool "verifies" true (Message.verify_prepare ~check:check_sig p);
  check Alcotest.bool "replica id is bound" false
    (Message.verify_prepare ~check:check_sig { p with Message.p_replica = 1 });
  let enc = Codec.encode (fun w -> Message.encode_prepare w p) in
  let p' = Codec.decode enc Message.decode_prepare in
  check Alcotest.bool "roundtrip verifies" true (Message.verify_prepare ~check:check_sig p')

let test_view_change_roundtrip () =
  let sk, _ = Schnorr.keypair_of_seed "r1" in
  let pps = [ sample_pp ~seqno:5 (); sample_pp ~seqno:6 () ] in
  let payload = Message.view_change_payload ~view:1 ~replica:1 ~last_prepared:pps in
  let vc =
    {
      Message.vc_view = 1;
      vc_replica = 1;
      vc_last_prepared = pps;
      vc_signature = Schnorr.sign sk (D.to_raw payload);
    }
  in
  let check_sig = Message.sigcheck (Sigcheck.create_private ()) (make_config ()) in
  check Alcotest.bool "verifies" true (Message.verify_view_change ~check:check_sig vc);
  let enc = Codec.encode (fun w -> Message.encode_view_change w vc) in
  let vc' = Codec.decode enc Message.decode_view_change in
  check Alcotest.bool "roundtrip verifies" true (Message.verify_view_change ~check:check_sig vc');
  check Alcotest.int "pps preserved" 2 (List.length vc'.Message.vc_last_prepared)

let test_new_view_roundtrip () =
  let sk, _ = Schnorr.keypair_of_seed "r1" in
  let payload =
    Message.new_view_payload ~view:1 ~m_root:(D.of_string "m")
      ~vc_bitmap:(Bitmap.of_list [ 0; 1; 2 ]) ~vc_hash:(D.of_string "h") ~primary:1
  in
  let nv =
    {
      Message.nv_view = 1;
      nv_m_root = D.of_string "m";
      nv_vc_bitmap = Bitmap.of_list [ 0; 1; 2 ];
      nv_vc_hash = D.of_string "h";
      nv_primary = 1;
      nv_signature = Schnorr.sign sk (D.to_raw payload);
    }
  in
  let c = make_config () in
  let check_sig = Message.sigcheck (Sigcheck.create_private ()) c in
  check Alcotest.bool "verifies" true (Message.verify_new_view ~check:check_sig c nv);
  let enc = Codec.encode (fun w -> Message.encode_new_view w nv) in
  check Alcotest.bool "roundtrip verifies" true
    (Message.verify_new_view ~check:check_sig c (Codec.decode enc Message.decode_new_view))

let () =
  Alcotest.run "iaccf_types"
    [
      ( "config",
        [
          Alcotest.test_case "fault thresholds" `Quick test_config_fault_thresholds;
          Alcotest.test_case "primary rotation" `Quick test_config_primary_rotation;
          qtest prop_primary_of_view_sorted;
          Alcotest.test_case "validate" `Quick test_config_validate;
          Alcotest.test_case "roundtrip" `Quick test_config_roundtrip;
          Alcotest.test_case "lookups" `Quick test_config_lookups;
        ] );
      ( "genesis",
        [
          Alcotest.test_case "hash stability" `Quick test_genesis_hash_stability;
          Alcotest.test_case "config zero" `Quick test_genesis_requires_config_zero;
        ] );
      ( "request",
        [
          Alcotest.test_case "verify" `Quick test_request_verify;
          Alcotest.test_case "roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "hash distinct" `Quick test_request_hash_distinct;
          qtest prop_request_digest;
        ] );
      ( "batch",
        [
          qtest prop_kind_roundtrip;
          Alcotest.test_case "tx entry roundtrip" `Quick test_tx_entry_roundtrip;
          Alcotest.test_case "g_root order" `Quick test_g_root_order_sensitive;
        ] );
      ( "messages",
        [
          Alcotest.test_case "pre-prepare verify" `Quick test_pre_prepare_verify;
          Alcotest.test_case "pre-prepare roundtrip" `Quick test_pre_prepare_roundtrip;
          Alcotest.test_case "prepare" `Quick test_prepare_verify_and_roundtrip;
          Alcotest.test_case "view-change" `Quick test_view_change_roundtrip;
          Alcotest.test_case "new-view" `Quick test_new_view_roundtrip;
        ] );
    ]
