(* Ledger tests: entry codecs, Merkle binding, truncation, prefix roots,
   governance indices, and serialization. *)

open Iaccf_ledger
module Tree = Iaccf_merkle.Tree
module D = Iaccf_crypto.Digest32
module Schnorr = Iaccf_crypto.Schnorr
module Request = Iaccf_types.Request
module Batch = Iaccf_types.Batch
module Genesis = Iaccf_types.Genesis
module Config = Iaccf_types.Config
module Message = Iaccf_types.Message
module Bitmap = Iaccf_util.Bitmap

let check = Alcotest.check
let digest_testable = Alcotest.testable D.pp_full D.equal

let genesis =
  let members =
    List.init 4 (fun i ->
        let _, pk = Schnorr.keypair_of_seed (Printf.sprintf "lm%d" i) in
        { Config.member_name = Printf.sprintf "lm%d" i; member_pk = pk })
  in
  let base =
    {
      Config.config_no = 0;
      members;
      replicas = [];
      vote_threshold = 1;
    }
  in
  let replicas =
    List.init 4 (fun i ->
        let _, pk = Schnorr.keypair_of_seed (Printf.sprintf "lr%d" i) in
        let msk, _ = Schnorr.keypair_of_seed (Printf.sprintf "lm%d" i) in
        {
          Config.replica_id = i;
          operator = Printf.sprintf "lm%d" i;
          replica_pk = pk;
          endorsement =
            Schnorr.sign msk
              (D.to_raw (Config.endorsement_payload base ~replica_id:i ~pk));
        })
  in
  Genesis.make { base with Config.replicas }

let sample_request ?(seqno = 0) ?(proc = "p") () =
  let sk, pk = Schnorr.keypair_of_seed "ledger-client" in
  Request.make ~sk ~client_pk:pk ~service:(Genesis.hash genesis)
    ~client_seqno:seqno ~proc ~args:"a" ()

let tx_entry ?(index = 2) ?(proc = "p") ?(seqno = 0) () =
  Entry.Tx
    {
      Batch.request = sample_request ~seqno ~proc ();
      index;
      result = { Batch.output = "o"; write_set_hash = D.of_string "w" };
    }

let sample_pp ?(seqno = 1) () =
  let sk, _ = Schnorr.keypair_of_seed "lr0" in
  Entry.Pre_prepare
    {
      Message.view = 0;
      seqno;
      m_root = D.of_string "m";
      g_root = D.of_string "g";
      nonce_com = D.of_string "n";
      ev_bitmap = Bitmap.empty;
      gov_index = 0;
      cp_digest = D.of_string "c";
      kind = Batch.Regular;
      primary = 0;
      signature = Schnorr.sign sk (D.to_raw (D.of_string "whatever"));
    }

let test_create_has_genesis () =
  let l = Ledger.create genesis in
  check Alcotest.int "one entry" 1 (Ledger.length l);
  match Ledger.get l 0 with
  | Entry.Genesis g ->
      check digest_testable "same genesis" (Genesis.hash genesis) (Genesis.hash g)
  | _ -> Alcotest.fail "expected genesis"

let test_append_and_merkle_binding () =
  let l = Ledger.create genesis in
  let r0 = Ledger.m_root l in
  let i1 = Ledger.append l (sample_pp ()) in
  check Alcotest.int "index" 1 i1;
  let r1 = Ledger.m_root l in
  check Alcotest.bool "root changed for M-bound entry" false (D.equal r0 r1);
  (* Tx entries are NOT leaves of M: the root must not change. *)
  let _ = Ledger.append l (tx_entry ()) in
  check digest_testable "tx entry not in M" r1 (Ledger.m_root l)

let test_m_root_at_prefix () =
  let l = Ledger.create genesis in
  let r_after_genesis = Ledger.m_root l in
  ignore (Ledger.append l (sample_pp ()));
  ignore (Ledger.append l (tx_entry ()));
  ignore (Ledger.append l (sample_pp ~seqno:2 ()));
  check digest_testable "prefix 1" r_after_genesis (Ledger.m_root_at l 1);
  (* prefix 2 and 3 both contain the pp and then the tx (not M-bound). *)
  check digest_testable "tx does not change prefix root" (Ledger.m_root_at l 2)
    (Ledger.m_root_at l 3)

let test_truncate_restores_root () =
  let l = Ledger.create genesis in
  ignore (Ledger.append l (sample_pp ()));
  let root = Ledger.m_root l in
  let len = Ledger.length l in
  let bytes = Ledger.total_bytes l in
  ignore (Ledger.append l (tx_entry ()));
  ignore (Ledger.append l (sample_pp ~seqno:2 ()));
  Ledger.truncate l len;
  check digest_testable "root restored" root (Ledger.m_root l);
  check Alcotest.int "bytes restored" bytes (Ledger.total_bytes l);
  Alcotest.check_raises "cannot drop genesis"
    (Invalid_argument "Ledger.truncate: cannot drop the genesis") (fun () ->
      Ledger.truncate l 0)

let test_serialize_roundtrip () =
  let l = Ledger.create genesis in
  ignore (Ledger.append l (sample_pp ()));
  ignore (Ledger.append l (tx_entry ()));
  let l' = Ledger.deserialize (Ledger.serialize l) in
  check Alcotest.int "length" (Ledger.length l) (Ledger.length l');
  check digest_testable "root" (Ledger.m_root l) (Ledger.m_root l')

let test_governance_indices () =
  let l = Ledger.create genesis in
  ignore (Ledger.append l (sample_pp ()));
  ignore (Ledger.append l (tx_entry ~index:2 ~proc:"counter/add" ()));
  ignore (Ledger.append l (tx_entry ~index:3 ~proc:"gov/vote" ~seqno:1 ()));
  ignore (Ledger.append l (tx_entry ~index:4 ~proc:"gov/propose" ~seqno:2 ()));
  check Alcotest.(list int) "genesis + gov txs" [ 0; 3; 4 ] (Ledger.governance_indices l)

let test_find_pre_prepare_highest_view () =
  let l = Ledger.create genesis in
  ignore (Ledger.append l (sample_pp ~seqno:1 ()));
  (match Ledger.find_pre_prepare l ~seqno:1 with
  | Some (_, pp) -> check Alcotest.int "found" 1 pp.Message.seqno
  | None -> Alcotest.fail "missing");
  check Alcotest.bool "absent seqno" true (Ledger.find_pre_prepare l ~seqno:9 = None)

let test_entries_range () =
  let l = Ledger.create genesis in
  ignore (Ledger.append l (sample_pp ()));
  ignore (Ledger.append l (tx_entry ()));
  let all = Ledger.entries l () in
  check Alcotest.int "all" 3 (List.length all);
  let mid = Ledger.entries l ~from:1 ~until:2 () in
  check Alcotest.int "range" 1 (List.length mid);
  check Alcotest.int "indices carried" 1 (fst (List.hd mid))

let test_entry_codec_all_variants () =
  let vcs =
    [
      {
        Message.vc_view = 1;
        vc_replica = 2;
        vc_last_prepared = [];
        vc_signature = "sig";
      };
    ]
  in
  let nv =
    {
      Message.nv_view = 1;
      nv_m_root = D.of_string "m";
      nv_vc_bitmap = Bitmap.of_list [ 1; 2 ];
      nv_vc_hash = D.of_string "h";
      nv_primary = 1;
      nv_signature = "s";
    }
  in
  let entries =
    [
      Entry.Genesis genesis;
      sample_pp ();
      tx_entry ();
      Entry.Prepare_evidence { pe_view = 0; pe_seqno = 1; pe_prepares = [] };
      Entry.Nonce_evidence { ne_view = 0; ne_seqno = 1; ne_nonces = [ (0, "n") ] };
      Entry.View_change_set vcs;
      Entry.New_view nv;
    ]
  in
  List.iter
    (fun e ->
      let enc = Entry.serialize e in
      let e' = Entry.deserialize enc in
      check Alcotest.string
        (Format.asprintf "%a" Entry.pp e)
        enc (Entry.serialize e'))
    entries

(* --- Seeded-Rng codec properties (every entry variant) --- *)

module Rng = Iaccf_util.Rng

let rng_digest rng = D.of_string (Rng.bytes rng 16)
let rng_sig rng = Rng.bytes rng 64

let rng_request rng =
  let sk, pk = Schnorr.keypair_of_seed "ledger-client" in
  Request.make ~sk ~client_pk:pk ~service:(Genesis.hash genesis)
    ~min_index:(Rng.int rng 100) ~client_seqno:(Rng.int rng 1000)
    ~proc:(Rng.pick rng [ "p"; "sb/transfer"; "gov/vote"; "" ])
    ~args:(Rng.bytes rng (Rng.int rng 40))
    ()

let rng_kind rng =
  match Rng.int rng 4 with
  | 0 -> Batch.Regular
  | 1 -> Batch.Checkpoint { cp_seqno = Rng.int rng 500; cp_digest = rng_digest rng }
  | 2 ->
      Batch.End_of_config
        { phase = 1 + Rng.int rng 4; committed_root = rng_digest rng }
  | _ -> Batch.Start_of_config { phase = 1 + Rng.int rng 2 }

let rng_pre_prepare rng =
  {
    Message.view = Rng.int rng 10;
    seqno = Rng.int rng 10_000;
    m_root = rng_digest rng;
    g_root = rng_digest rng;
    nonce_com = rng_digest rng;
    ev_bitmap = Bitmap.of_list (List.init (Rng.int rng 5) (fun _ -> Rng.int rng 16));
    gov_index = Rng.int rng 100;
    cp_digest = rng_digest rng;
    kind = rng_kind rng;
    primary = Rng.int rng 7;
    signature = rng_sig rng;
  }

let rng_prepare rng =
  {
    Message.p_view = Rng.int rng 10;
    p_seqno = Rng.int rng 10_000;
    p_replica = Rng.int rng 7;
    p_nonce_com = rng_digest rng;
    p_pp_hash = rng_digest rng;
    p_signature = rng_sig rng;
  }

let rng_view_change rng =
  {
    Message.vc_view = Rng.int rng 10;
    vc_replica = Rng.int rng 7;
    vc_last_prepared = List.init (Rng.int rng 3) (fun _ -> rng_pre_prepare rng);
    vc_signature = rng_sig rng;
  }

let rng_entry rng =
  match Rng.int rng 7 with
  | 0 -> Entry.Genesis genesis
  | 1 ->
      Entry.Tx
        {
          Batch.request = rng_request rng;
          index = Rng.int rng 1000;
          result =
            {
              Batch.output = Rng.bytes rng (Rng.int rng 30);
              write_set_hash = rng_digest rng;
            };
        }
  | 2 -> Entry.Pre_prepare (rng_pre_prepare rng)
  | 3 ->
      Entry.Prepare_evidence
        {
          pe_view = Rng.int rng 10;
          pe_seqno = Rng.int rng 10_000;
          pe_prepares = List.init (Rng.int rng 4) (fun _ -> rng_prepare rng);
        }
  | 4 ->
      Entry.Nonce_evidence
        {
          ne_view = Rng.int rng 10;
          ne_seqno = Rng.int rng 10_000;
          ne_nonces =
            List.init (Rng.int rng 4) (fun i -> (i, Rng.bytes rng 16));
        }
  | 5 -> Entry.View_change_set (List.init (1 + Rng.int rng 3) (fun _ -> rng_view_change rng))
  | _ ->
      Entry.New_view
        {
          Message.nv_view = Rng.int rng 10;
          nv_m_root = rng_digest rng;
          nv_vc_bitmap = Bitmap.of_list (List.init (Rng.int rng 4) (fun _ -> Rng.int rng 16));
          nv_vc_hash = rng_digest rng;
          nv_primary = Rng.int rng 7;
          nv_signature = rng_sig rng;
        }

let test_entry_codec_random_roundtrips () =
  (* Seeded, hence reproducible: 200 randomized entries covering all 7
     variants must survive serialize/deserialize byte-identically, with
     size_bytes agreeing with the encoding. *)
  let rng = Rng.create 0xACCF in
  for i = 1 to 200 do
    let e = rng_entry rng in
    let enc = Entry.serialize e in
    let e' = Entry.deserialize enc in
    check Alcotest.string (Printf.sprintf "roundtrip %d" i) enc (Entry.serialize e');
    check Alcotest.int
      (Printf.sprintf "size_bytes %d" i)
      (String.length enc) (Entry.size_bytes e)
  done

let expect_decode_error what f =
  match f () with
  | (_ : Entry.t) -> Alcotest.failf "%s: expected Decode_error" what
  | exception Iaccf_util.Codec.Decode_error _ -> ()

let test_entry_codec_rejects_corruption () =
  let rng = Rng.create 99 in
  let enc = Entry.serialize (Entry.Pre_prepare (rng_pre_prepare rng)) in
  (* Truncation at every proper prefix must fail, never misparse. *)
  for len = 0 to String.length enc - 1 do
    expect_decode_error
      (Printf.sprintf "truncated to %d" len)
      (fun () -> Entry.deserialize (String.sub enc 0 len))
  done;
  (* An unknown variant tag is rejected outright. *)
  let bad_tag = "\xff" ^ String.sub enc 1 (String.length enc - 1) in
  expect_decode_error "invalid tag" (fun () -> Entry.deserialize bad_tag);
  (* Trailing garbage after a valid encoding is not silently ignored. *)
  expect_decode_error "trailing bytes" (fun () -> Entry.deserialize (enc ^ "\x00"))

(* Decoding is canonical: whatever bytes decode to an entry are that
   entry's own encoding. The ledger hashes M's leaves from the bytes it
   read, and the auditor checks signed roots against that tree, so two
   encodings of one entry would give one entry two leaves. Seeded byte
   rewrites of random entries of every variant; each rewrite that still
   decodes must re-encode to itself. A u64 above max_int must be refused,
   not decoded with its high bits dropped. *)
let test_entry_decode_canonical () =
  let rng = Rng.create 0xC0DE in
  let accepted = ref 0 in
  for i = 1 to 3000 do
    let raw = Bytes.of_string (Entry.serialize (rng_entry rng)) in
    for _ = 0 to Rng.int rng 2 do
      Bytes.set raw (Rng.int rng (Bytes.length raw))
        (Char.chr (Rng.pick rng [ Rng.int rng 256; 0x80; 0xff; 0x01; 0x00 ]))
    done;
    let raw = Bytes.to_string raw in
    match Entry.deserialize raw with
    | e ->
        incr accepted;
        check Alcotest.string (Printf.sprintf "rewrite %d re-encodes" i) raw (Entry.serialize e)
    | exception Iaccf_util.Codec.Decode_error _ -> ()
  done;
  check Alcotest.bool "some rewrites decode" true (!accepted > 100);
  let enc = Entry.serialize (sample_pp ~seqno:5 ()) in
  (* The view is the u64 right after the tag. *)
  let high_bit = String.mapi (fun i c -> if i = 1 then '\x80' else c) enc in
  expect_decode_error "u64 above max_int" (fun () -> Entry.deserialize high_bit)

let test_truncate_byte_accounting () =
  (* After truncate + re-append of the same suffix, byte_total must equal
     that of a ledger that never truncated. *)
  let suffix = [ tx_entry (); sample_pp ~seqno:2 (); tx_entry ~index:5 ~seqno:3 () ] in
  let l = Ledger.create genesis in
  ignore (Ledger.append l (sample_pp ()));
  let keep = Ledger.length l in
  List.iter (fun e -> ignore (Ledger.append l e)) suffix;
  Ledger.truncate l keep;
  List.iter (fun e -> ignore (Ledger.append l e)) suffix;
  let fresh = Ledger.create genesis in
  ignore (Ledger.append fresh (sample_pp ()));
  List.iter (fun e -> ignore (Ledger.append fresh e)) suffix;
  check Alcotest.int "byte_total matches a never-truncated ledger"
    (Ledger.total_bytes fresh) (Ledger.total_bytes l);
  check digest_testable "roots agree" (Ledger.m_root fresh) (Ledger.m_root l)

let test_of_entries_requires_genesis () =
  Alcotest.check_raises "genesis first"
    (Invalid_argument "Ledger.of_entries: first entry must be the genesis")
    (fun () -> ignore (Ledger.of_entries [ sample_pp () ]))

let () =
  Alcotest.run "iaccf_ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "create" `Quick test_create_has_genesis;
          Alcotest.test_case "merkle binding" `Quick test_append_and_merkle_binding;
          Alcotest.test_case "prefix roots" `Quick test_m_root_at_prefix;
          Alcotest.test_case "truncate" `Quick test_truncate_restores_root;
          Alcotest.test_case "serialize" `Quick test_serialize_roundtrip;
          Alcotest.test_case "governance indices" `Quick test_governance_indices;
          Alcotest.test_case "find pre-prepare" `Quick test_find_pre_prepare_highest_view;
          Alcotest.test_case "entries range" `Quick test_entries_range;
          Alcotest.test_case "entry codecs" `Quick test_entry_codec_all_variants;
          Alcotest.test_case "random codec roundtrips" `Quick
            test_entry_codec_random_roundtrips;
          Alcotest.test_case "corrupt encodings rejected" `Quick
            test_entry_codec_rejects_corruption;
          Alcotest.test_case "decode is canonical" `Quick test_entry_decode_canonical;
          Alcotest.test_case "truncate byte accounting" `Quick
            test_truncate_byte_accounting;
          Alcotest.test_case "of_entries genesis" `Quick test_of_entries_requires_genesis;
        ] );
    ]
