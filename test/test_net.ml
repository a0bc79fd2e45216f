(* Socket transport tests: Wire.t codec round-trips (property-based,
   byte-stable, and a fixed instance of every variant), frame/envelope
   corruption handling (truncations and bit flips are rejected with
   Decode_error / `Corrupt, never a crash), and endpoint fault injection
   (garbage on accept, half-open connections, a peer killed mid-stream
   with survivors still committing). *)

module Codec = Iaccf_util.Codec
module Bitmap = Iaccf_util.Bitmap
module D = Iaccf_crypto.Digest32
module Schnorr = Iaccf_crypto.Schnorr
module Message = Iaccf_types.Message
module Request = Iaccf_types.Request
module Batch = Iaccf_types.Batch
module Entry = Iaccf_ledger.Entry
module Store = Iaccf_kv.Store
module Obs = Iaccf_obs.Obs
module Wire = Iaccf_core.Wire
module Wire_codec = Iaccf_core.Wire_codec
module Receipt = Iaccf_core.Receipt
module Status = Iaccf_core.Status
module Client = Iaccf_core.Client
module Addr = Iaccf_net.Addr
module Framing = Iaccf_net.Framing
module Endpoint = Iaccf_net.Endpoint
module Manifest = Iaccf_net.Manifest
module Serve = Iaccf_net.Serve
module Driver = Iaccf_net.Driver
module Supervisor = Iaccf_net.Supervisor

(* Re-exec dispatch: [test_net.exe __serve MANIFEST ID] is one replica
   process of the fleet the driver test spawns. *)
let () =
  if Array.length Sys.argv >= 4 && Sys.argv.(1) = "__serve" then begin
    (match Manifest.load Sys.argv.(2) with
    | Error e -> prerr_endline e
    | Ok m -> ignore (Serve.main ~manifest:m ~id:(int_of_string Sys.argv.(3)) ()));
    exit 0
  end

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let d = D.of_string
let service = d "service"

(* ------------------------------------------------------------------ *)
(* Sample values: one fixed instance of every Wire.t variant            *)

let keypair i = Schnorr.keypair_of_seed (Printf.sprintf "net-test-%d" i)

let make_request ?(key = 0) ?(client_seqno = 0) ?(proc = "p") ?(args = "a") ()
    =
  let sk, pk = keypair key in
  Request.make ~sk ~client_pk:pk ~service ~min_index:0 ~client_seqno ~proc
    ~args ()

let sample_pp =
  {
    Message.view = 3;
    seqno = 17;
    m_root = d "m";
    g_root = d "g";
    nonce_com = d "nc";
    ev_bitmap = Bitmap.of_list [ 0; 1; 3 ];
    gov_index = 2;
    cp_digest = d "cp";
    kind = Batch.Regular;
    primary = 3;
    signature = "sig-pp";
  }

let sample_prepare =
  {
    Message.p_view = 3;
    p_seqno = 17;
    p_replica = 1;
    p_nonce_com = d "pnc";
    p_pp_hash = d "pph";
    p_signature = "sig-p";
  }

let sample_tx =
  {
    Batch.request = make_request ();
    index = 12;
    result = { Batch.output = "out"; write_set_hash = d "ws" };
  }

let sample_vc =
  {
    Message.vc_view = 4;
    vc_replica = 2;
    vc_last_prepared = [ sample_pp ];
    vc_signature = "sig-vc";
  }

let sample_receipt =
  {
    Receipt.pp = sample_pp;
    prep_bitmap = Bitmap.of_list [ 1; 2 ];
    prepare_sigs = [ "s1"; "s2" ];
    nonces = [ "n1"; "n2" ];
    subject =
      Receipt.Tx_subject
        { tx = sample_tx; leaf_index = 0; batch_size = 2; path = [ d "sib" ] };
  }

let samples : Wire.t list =
  [
    Request_msg (make_request ());
    Pre_prepare_msg { pp = sample_pp; batch = [ d "t1"; d "t2" ] };
    Prepare_msg sample_prepare;
    Commit_msg
      { Message.c_view = 3; c_seqno = 17; c_replica = 2; c_nonce = "nonce" };
    Reply_msg
      {
        Message.r_view = 3;
        r_seqno = 17;
        r_replica = 0;
        r_signature = "sig-r";
        r_nonce = "k";
      };
    Replyx_msg
      {
        Message.x_pp = sample_pp;
        x_tx = sample_tx;
        x_leaf_index = 1;
        x_batch_size = 4;
        x_path = [ d "p0"; d "p1" ];
      };
    View_change_msg sample_vc;
    New_view_msg
      {
        nv =
          {
            Message.nv_view = 4;
            nv_m_root = d "nm";
            nv_vc_bitmap = Bitmap.of_list [ 0; 1; 2 ];
            nv_vc_hash = d "vch";
            nv_primary = 0;
            nv_signature = "sig-nv";
          };
        vcs = [ sample_vc ];
      };
    Fetch_missing { fm_seqno = 9 };
    Batch_package_msg
      {
        Wire.bp_pp = sample_pp;
        bp_requests = [ make_request () ];
        bp_ev_prepares = [ sample_prepare ];
        bp_ev_nonces = [ (0, "k0"); (2, "k2") ];
      };
    Fetch_ledger { fl_from_len = 4; fl_offer = Iaccf_statesync.Session.If_far };
    Snapshot_offer
      { so_cp_seqno = 50; so_total = 3; so_bytes = 4096; so_upto = 120; so_view = 1 };
    Fetch_snapshot_chunk { fc_cp_seqno = 50; fc_index = 1 };
    Snapshot_chunk
      { sc_cp_seqno = 50; sc_index = 1; sc_total = 3; sc_data = "chunk-bytes" };
    Ledger_suffix_chunk
      {
        lc_from = 3;
        lc_entries =
          [
            Entry.Tx sample_tx;
            Entry.Pre_prepare sample_pp;
            Entry.Prepare_evidence
              { pe_view = 3; pe_seqno = 17; pe_prepares = [ sample_prepare ] };
            Entry.Nonce_evidence
              { ne_view = 3; ne_seqno = 17; ne_nonces = [ (0, "k0") ] };
            Entry.View_change_set [ sample_vc ];
          ];
        lc_upto = 40;
        lc_view = 3;
      };
    Replyx_request { rr_tx_hash = d "txh" };
    Gov_receipts_request { gr_from_index = 2 };
    Gov_receipts_msg
      [ sample_receipt; { sample_receipt with Receipt.subject = Batch_subject } ];
    Ack_msg { a_replica = 1; a_digest = d "ack"; a_signature = "sig-a" };
    Busy_msg { b_replica = 0; b_tx_hash = d "busy" };
    Status_query { sq_view = 1; sq_seqno = 5 };
    Status_info
      { si_view = 1; si_seqno = 5; si_status = Status.Committed; si_committed = 4 };
    Read_query { rq_key = "acct/7"; rq_nonce = 99 };
    Read_answer
      {
        ra_key = "acct/7";
        ra_nonce = 99;
        ra_value = Some "42";
        ra_seqno = 5;
        ra_tx_position = 1;
        ra_write_set = [ ("acct/7", Store.Put "42"); ("old", Store.Delete) ];
        ra_receipt = Some sample_receipt;
      };
    Audit_query { aq_index = 11 };
    Audit_answer
      {
        au_index = 11;
        au_leaf = d "leaf";
        au_m_index = 8;
        au_m_size = 16;
        au_path = [ d "s0"; d "s1"; d "s2" ];
        au_root = d "root";
      };
  ]

(* The tags the decoder accepts: every byte whose decoding fails for any
   reason other than an unassigned tag. *)
let assigned_tags =
  List.filter
    (fun b ->
      match Wire_codec.deserialize (String.make 1 (Char.chr b)) with
      | _ -> true
      | exception Codec.Decode_error m ->
          not (String.starts_with ~prefix:"bad wire tag" m))
    (List.init 256 Fun.id)

let test_every_variant_roundtrips () =
  check
    Alcotest.(list int)
    "samples cover every tag the codec emits" assigned_tags
    (List.sort_uniq compare
       (List.map (fun m -> Char.code (Wire_codec.serialize m).[0]) samples));
  List.iteri
    (fun i msg ->
      let enc = Wire_codec.serialize msg in
      let enc' = Wire_codec.serialize (Wire_codec.deserialize enc) in
      check Alcotest.string (Printf.sprintf "byte-stable tag %d" i) enc enc')
    samples

let test_envelope_roundtrip () =
  List.iter
    (fun msg ->
      let s = Wire_codec.encode_envelope ~src:103 ~dst:2 msg in
      let src, dst, msg' = Wire_codec.decode_envelope s in
      check Alcotest.int "src" 103 src;
      check Alcotest.int "dst" 2 dst;
      check Alcotest.string "payload bytes" (Wire_codec.serialize msg)
        (Wire_codec.serialize msg'))
    samples

let test_envelope_version_rejected () =
  let s =
    Wire_codec.encode_envelope ~src:1 ~dst:2
      (Wire.Fetch_ledger { fl_from_len = 1; fl_offer = Iaccf_statesync.Session.Always })
  in
  let bad = Bytes.of_string s in
  Bytes.set bad 0 (Char.chr (Wire_codec.envelope_version - 1));
  match Wire_codec.decode_envelope (Bytes.to_string bad) with
  | _ -> Alcotest.fail "previous-version envelope accepted"
  | exception Codec.Decode_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Property tests: random messages round-trip; mangled bytes never
   crash the decoder                                                    *)

open QCheck

let gen_digest = Gen.map d (Gen.string_size (Gen.int_bound 12))
let gen_bitmap = Gen.map Bitmap.of_list (Gen.list_size (Gen.int_bound 4) (Gen.int_bound 7))
let gen_small_string = Gen.string_size (Gen.int_bound 24)

let gen_request =
  Gen.map3
    (fun key seqno (proc, args) -> make_request ~key ~client_seqno:seqno ~proc ~args ())
    (Gen.int_bound 3) Gen.small_nat
    (Gen.pair gen_small_string gen_small_string)

let gen_kind =
  Gen.oneof
    [
      Gen.return Batch.Regular;
      Gen.map2
        (fun s dg -> Batch.Checkpoint { cp_seqno = s; cp_digest = dg })
        Gen.small_nat gen_digest;
      Gen.map2
        (fun p dg -> Batch.End_of_config { phase = p + 1; committed_root = dg })
        Gen.small_nat gen_digest;
      Gen.map (fun p -> Batch.Start_of_config { phase = p + 1 }) Gen.small_nat;
    ]

let gen_pp =
  let open Gen in
  map (fun ((view, seqno, primary), (m_root, g_root, nonce_com, cp_digest), (ev_bitmap, gov_index, kind, signature)) ->
      {
        Message.view;
        seqno;
        m_root;
        g_root;
        nonce_com;
        ev_bitmap;
        gov_index;
        cp_digest;
        kind;
        primary;
        signature;
      })
    (triple
       (triple small_nat small_nat (int_bound 7))
       (quad gen_digest gen_digest gen_digest gen_digest)
       (quad gen_bitmap small_nat gen_kind gen_small_string))

let gen_prepare =
  Gen.map
    (fun ((v, s, r), (nc, pph, sg)) ->
      {
        Message.p_view = v;
        p_seqno = s;
        p_replica = r;
        p_nonce_com = nc;
        p_pp_hash = pph;
        p_signature = sg;
      })
    (Gen.pair
       (Gen.triple Gen.small_nat Gen.small_nat (Gen.int_bound 7))
       (Gen.triple gen_digest gen_digest gen_small_string))

let gen_tx_entry =
  Gen.map3
    (fun request index (output, ws) ->
      { Batch.request; index; result = { Batch.output; write_set_hash = ws } })
    gen_request Gen.small_nat
    (Gen.pair gen_small_string gen_digest)

let gen_receipt =
  Gen.map3
    (fun pp (bm, sigs, nonces) subject ->
      { Receipt.pp; prep_bitmap = bm; prepare_sigs = sigs; nonces; subject })
    gen_pp
    (Gen.triple gen_bitmap
       (Gen.list_size (Gen.int_bound 3) gen_small_string)
       (Gen.list_size (Gen.int_bound 3) gen_small_string))
    (Gen.oneof
       [
         Gen.return Receipt.Batch_subject;
         Gen.map3
           (fun tx (li, bs) path ->
             Receipt.Tx_subject
               { tx; leaf_index = li; batch_size = bs; path })
           gen_tx_entry
           (Gen.pair Gen.small_nat Gen.small_nat)
           (Gen.list_size (Gen.int_bound 3) gen_digest);
       ])

let gen_vc =
  Gen.map3
    (fun v r (pps, sg) ->
      {
        Message.vc_view = v;
        vc_replica = r;
        vc_last_prepared = pps;
        vc_signature = sg;
      })
    Gen.small_nat (Gen.int_bound 7)
    (Gen.pair (Gen.list_size (Gen.int_bound 2) gen_pp) gen_small_string)

let gen_entry =
  Gen.oneof
    [
      Gen.map (fun tx -> Entry.Tx tx) gen_tx_entry;
      Gen.map (fun pp -> Entry.Pre_prepare pp) gen_pp;
      Gen.map3
        (fun v s ps ->
          Entry.Prepare_evidence { pe_view = v; pe_seqno = s; pe_prepares = ps })
        Gen.small_nat Gen.small_nat
        (Gen.list_size (Gen.int_bound 2) gen_prepare);
      Gen.map3
        (fun v s ns ->
          Entry.Nonce_evidence { ne_view = v; ne_seqno = s; ne_nonces = ns })
        Gen.small_nat Gen.small_nat
        (Gen.list_size (Gen.int_bound 3)
           (Gen.pair (Gen.int_bound 7) gen_small_string));
      Gen.map (fun vcs -> Entry.View_change_set vcs)
        (Gen.list_size (Gen.int_bound 2) gen_vc);
    ]

let gen_write =
  Gen.oneof
    [ Gen.map (fun s -> Store.Put s) gen_small_string; Gen.return Store.Delete ]

let gen_status =
  Gen.oneofl [ Status.Unknown; Status.Pending; Status.Committed; Status.Invalid ]

let gen_msg : Wire.t Gen.t =
  Gen.oneof
    [
      Gen.map (fun r -> Wire.Request_msg r) gen_request;
      Gen.map2
        (fun pp batch -> Wire.Pre_prepare_msg { pp; batch })
        gen_pp
        (Gen.list_size (Gen.int_bound 4) gen_digest);
      Gen.map (fun p -> Wire.Prepare_msg p) gen_prepare;
      Gen.map
        (fun ((v, s, r), n) ->
          Wire.Commit_msg
            { Message.c_view = v; c_seqno = s; c_replica = r; c_nonce = n })
        (Gen.pair
           (Gen.triple Gen.small_nat Gen.small_nat (Gen.int_bound 7))
           gen_small_string);
      Gen.map
        (fun ((v, s, r), (sg, n)) ->
          Wire.Reply_msg
            {
              Message.r_view = v;
              r_seqno = s;
              r_replica = r;
              r_signature = sg;
              r_nonce = n;
            })
        (Gen.pair
           (Gen.triple Gen.small_nat Gen.small_nat (Gen.int_bound 7))
           (Gen.pair gen_small_string gen_small_string));
      Gen.map3
        (fun pp tx ((li, bs), path) ->
          Wire.Replyx_msg
            {
              Message.x_pp = pp;
              x_tx = tx;
              x_leaf_index = li;
              x_batch_size = bs;
              x_path = path;
            })
        gen_pp gen_tx_entry
        (Gen.pair
           (Gen.pair Gen.small_nat Gen.small_nat)
           (Gen.list_size (Gen.int_bound 4) gen_digest));
      Gen.map (fun vc -> Wire.View_change_msg vc) gen_vc;
      Gen.map3
        (fun (v, p) (mr, vch, bm) (sg, vcs) ->
          Wire.New_view_msg
            {
              nv =
                {
                  Message.nv_view = v;
                  nv_m_root = mr;
                  nv_vc_bitmap = bm;
                  nv_vc_hash = vch;
                  nv_primary = p;
                  nv_signature = sg;
                };
              vcs;
            })
        (Gen.pair Gen.small_nat (Gen.int_bound 7))
        (Gen.triple gen_digest gen_digest gen_bitmap)
        (Gen.pair gen_small_string (Gen.list_size (Gen.int_bound 2) gen_vc));
      Gen.map (fun s -> Wire.Fetch_missing { fm_seqno = s }) Gen.small_nat;
      Gen.map3
        (fun pp (reqs, preps) nonces ->
          Wire.Batch_package_msg
            {
              Wire.bp_pp = pp;
              bp_requests = reqs;
              bp_ev_prepares = preps;
              bp_ev_nonces = nonces;
            })
        gen_pp
        (Gen.pair
           (Gen.list_size (Gen.int_bound 2) gen_request)
           (Gen.list_size (Gen.int_bound 2) gen_prepare))
        (Gen.list_size (Gen.int_bound 3)
           (Gen.pair (Gen.int_bound 7) gen_small_string));
      Gen.map2
        (fun n offer -> Wire.Fetch_ledger { fl_from_len = n; fl_offer = offer })
        Gen.small_nat
        (Gen.oneofl Iaccf_statesync.Session.[ Never; If_far; Always ]);
      Gen.map
        (fun ((cp, total, bytes), (upto, view)) ->
          Wire.Snapshot_offer
            {
              so_cp_seqno = cp;
              so_total = total;
              so_bytes = bytes;
              so_upto = upto;
              so_view = view;
            })
        (Gen.pair
           (Gen.triple Gen.small_nat Gen.small_nat Gen.small_nat)
           (Gen.pair Gen.small_nat Gen.small_nat));
      Gen.map2
        (fun cp i -> Wire.Fetch_snapshot_chunk { fc_cp_seqno = cp; fc_index = i })
        Gen.small_nat Gen.small_nat;
      Gen.map3
        (fun cp (i, total) data ->
          Wire.Snapshot_chunk
            { sc_cp_seqno = cp; sc_index = i; sc_total = total; sc_data = data })
        Gen.small_nat
        (Gen.pair Gen.small_nat Gen.small_nat)
        gen_small_string;
      Gen.map3
        (fun from entries (upto, view) ->
          Wire.Ledger_suffix_chunk
            { lc_from = from; lc_entries = entries; lc_upto = upto; lc_view = view })
        Gen.small_nat
        (Gen.list_size (Gen.int_bound 3) gen_entry)
        (Gen.pair Gen.small_nat Gen.small_nat);
      Gen.map (fun h -> Wire.Replyx_request { rr_tx_hash = h }) gen_digest;
      Gen.map (fun i -> Wire.Gov_receipts_request { gr_from_index = i })
        Gen.small_nat;
      Gen.map (fun rs -> Wire.Gov_receipts_msg rs)
        (Gen.list_size (Gen.int_bound 2) gen_receipt);
      Gen.map3
        (fun r dg sg ->
          Wire.Ack_msg { a_replica = r; a_digest = dg; a_signature = sg })
        (Gen.int_bound 7) gen_digest gen_small_string;
      Gen.map2
        (fun r h -> Wire.Busy_msg { b_replica = r; b_tx_hash = h })
        (Gen.int_bound 7) gen_digest;
      Gen.map2 (fun v s -> Wire.Status_query { sq_view = v; sq_seqno = s })
        Gen.small_nat Gen.small_nat;
      Gen.map3
        (fun (v, s) st c ->
          Wire.Status_info
            { si_view = v; si_seqno = s; si_status = st; si_committed = c })
        (Gen.pair Gen.small_nat Gen.small_nat)
        gen_status Gen.small_nat;
      Gen.map2 (fun k n -> Wire.Read_query { rq_key = k; rq_nonce = n })
        gen_small_string Gen.small_nat;
      Gen.map3
        (fun ((key, nonce), (value, seqno, pos)) ws receipt ->
          Wire.Read_answer
            {
              ra_key = key;
              ra_nonce = nonce;
              ra_value = value;
              ra_seqno = seqno;
              ra_tx_position = pos;
              ra_write_set = ws;
              ra_receipt = receipt;
            })
        (Gen.pair
           (Gen.pair gen_small_string Gen.small_nat)
           (Gen.triple (Gen.option gen_small_string) Gen.small_nat Gen.small_nat))
        (Gen.list_size (Gen.int_bound 3) (Gen.pair gen_small_string gen_write))
        (Gen.option gen_receipt);
      Gen.map (fun i -> Wire.Audit_query { aq_index = i }) Gen.small_nat;
      Gen.map3
        (fun (i, leaf) (mi, ms) (path, root) ->
          Wire.Audit_answer
            {
              au_index = i;
              au_leaf = leaf;
              au_m_index = mi;
              au_m_size = ms;
              au_path = path;
              au_root = root;
            })
        (Gen.pair Gen.small_nat gen_digest)
        (Gen.pair Gen.small_nat Gen.small_nat)
        (Gen.pair (Gen.list_size (Gen.int_bound 4) gen_digest) gen_digest);
    ]

let arb_msg = make ~print:Wire.describe gen_msg

let prop_roundtrip_byte_stable =
  Test.make ~name:"wire codec round-trip is byte-stable" ~count:300 arb_msg
    (fun msg ->
      let enc = Wire_codec.serialize msg in
      String.equal enc (Wire_codec.serialize (Wire_codec.deserialize enc)))

let prop_envelope_roundtrip =
  Test.make ~name:"envelope round-trip preserves src/dst/payload" ~count:200
    (pair arb_msg (pair (make (Gen.int_bound 200)) (make (Gen.int_bound 200))))
    (fun (msg, (src, dst)) ->
      let src', dst', msg' =
        Wire_codec.decode_envelope (Wire_codec.encode_envelope ~src ~dst msg)
      in
      src = src' && dst = dst'
      && String.equal (Wire_codec.serialize msg) (Wire_codec.serialize msg'))

(* Truncations must raise Decode_error — never any other exception, never
   a silently short decode. *)
let prop_truncation_rejected =
  Test.make ~name:"truncated messages raise Decode_error" ~count:300
    (pair arb_msg (make (Gen.float_bound_inclusive 1.0)))
    (fun (msg, frac) ->
      let enc = Wire_codec.serialize msg in
      let len = String.length enc in
      let cut = int_of_float (frac *. float_of_int (len - 1)) in
      match Wire_codec.deserialize (String.sub enc 0 cut) with
      | _ -> false (* short decode accepted: the codec over-read nothing *)
      | exception Codec.Decode_error _ -> true)

(* Bit flips may still decode (a flip inside a string payload is a
   different valid message) but must never escape as anything other than
   Decode_error. *)
let prop_bitflip_never_crashes =
  Test.make ~name:"bit-flipped messages never crash the decoder" ~count:300
    (pair arb_msg (pair (make Gen.nat) (make (Gen.int_bound 7))))
    (fun (msg, (pos, bit)) ->
      let enc = Wire_codec.serialize msg in
      let b = Bytes.of_string enc in
      let i = pos mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      match Wire_codec.deserialize (Bytes.to_string b) with
      | _ -> true
      | exception Codec.Decode_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Framing: incremental decode, truncation, CRC rejection               *)

let feed_all t s =
  Framing.feed t s;
  let rec drain acc =
    match Framing.next t with
    | `Frame p -> drain (p :: acc)
    | `Need_more -> Ok (List.rev acc)
    | `Corrupt why -> Error why
  in
  drain []

let test_framing_byte_by_byte () =
  let payload = "the quick brown frame" in
  let framed = Framing.encode payload in
  let t = Framing.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      match feed_all t (String.make 1 c) with
      | Ok ps -> got := !got @ ps
      | Error why -> Alcotest.fail ("corrupt mid-stream: " ^ why))
    framed;
  check Alcotest.(list string) "exactly one frame" [ payload ] !got

let prop_framing_bitflip_rejected =
  Test.make ~name:"bit-flipped frames are rejected, never mis-delivered"
    ~count:300
    (pair (make gen_small_string) (pair (make Gen.nat) (make (Gen.int_bound 7))))
    (fun (payload, (pos, bit)) ->
      let framed = Bytes.of_string (Framing.encode payload) in
      let i = pos mod Bytes.length framed in
      Bytes.set framed i
        (Char.chr (Char.code (Bytes.get framed i) lxor (1 lsl bit)));
      let t = Framing.create () in
      match feed_all t (Bytes.to_string framed) with
      | Ok [] -> true (* flipped length field: legitimately Need_more *)
      | Ok _ -> false (* a single-bit flip must never survive the CRC *)
      | Error _ -> true)

let test_framing_concatenated_frames () =
  let payloads = [ "a"; ""; "ccc"; String.make 1000 'x' ] in
  let stream = String.concat "" (List.map Framing.encode payloads) in
  let t = Framing.create () in
  match feed_all t stream with
  | Ok ps -> check Alcotest.(list string) "all frames, in order" payloads ps
  | Error why -> Alcotest.fail why

let test_framing_oversized_rejected () =
  (* A length prefix past the cap must be rejected up front, not
     buffered for gigabytes. *)
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 (Int32.of_int (Framing.max_payload_bytes + 1));
  Bytes.set_int32_be b 4 0l;
  let t = Framing.create () in
  match feed_all t (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "oversized frame accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Endpoint fault injection                                             *)

let temp_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "iaccf-test-net-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  Unix.mkdir dir 0o755;
  dir

let rm_rf dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let connect_raw addr =
  let fd = Unix.socket (Addr.domain addr) Unix.SOCK_STREAM 0 in
  Unix.connect fd (Addr.sockaddr addr);
  fd

(* Garbage on accept: undecodable bytes drop that connection (counted),
   and the endpoint keeps serving well-formed peers. *)
let test_garbage_on_accept () =
  with_temp_dir @@ fun dir ->
  let addr = Addr.Unix_sock (Filename.concat dir "victim.sock") in
  let obs = Obs.create ~metrics:true () in
  let ep = Endpoint.create ~obs ~listen:addr () in
  Fun.protect ~finally:(fun () -> Endpoint.close ep) @@ fun () ->
  let frames = ref [] in
  Endpoint.set_on_frame ep (fun _conn payload -> frames := payload :: !frames);
  let vandal = connect_raw addr in
  let garbage = String.init 64 (fun i -> Char.chr ((i * 37 + 255) land 0xff)) in
  ignore (Unix.write_substring vandal garbage 0 (String.length garbage));
  for _ = 1 to 20 do
    Endpoint.poll ep ~timeout_ms:5.0
  done;
  check Alcotest.int "garbage connection dropped" 1
    (Obs.counter_value obs "net.dropped.garbage");
  Unix.close vandal;
  (* a well-formed connection still gets through *)
  let good = connect_raw addr in
  let framed = Framing.encode "hello" in
  ignore (Unix.write_substring good framed 0 (String.length framed));
  let deadline = Unix.gettimeofday () +. 5.0 in
  while !frames = [] && Unix.gettimeofday () < deadline do
    Endpoint.poll ep ~timeout_ms:5.0
  done;
  Unix.close good;
  check Alcotest.(list string) "frame after garbage" [ "hello" ] !frames

(* Half-open connection: a peer that sends part of a frame header and
   goes quiet neither delivers a frame nor wedges the endpoint. *)
let test_half_open_connection () =
  with_temp_dir @@ fun dir ->
  let addr = Addr.Unix_sock (Filename.concat dir "victim.sock") in
  let obs = Obs.create ~metrics:true () in
  let ep = Endpoint.create ~obs ~listen:addr () in
  Fun.protect ~finally:(fun () -> Endpoint.close ep) @@ fun () ->
  let frames = ref [] in
  Endpoint.set_on_frame ep (fun _conn payload -> frames := payload :: !frames);
  let half = connect_raw addr in
  let framed = Framing.encode "never finished" in
  ignore (Unix.write_substring half framed 0 4);
  for _ = 1 to 10 do
    Endpoint.poll ep ~timeout_ms:2.0
  done;
  check Alcotest.(list string) "no frame from half-open peer" [] !frames;
  check Alcotest.int "nothing counted as garbage" 0
    (Obs.counter_value obs "net.dropped.garbage");
  (* live traffic flows around it *)
  let good = connect_raw addr in
  let ok = Framing.encode "alive" in
  ignore (Unix.write_substring good ok 0 (String.length ok));
  let deadline = Unix.gettimeofday () +. 5.0 in
  while !frames = [] && Unix.gettimeofday () < deadline do
    Endpoint.poll ep ~timeout_ms:5.0
  done;
  check Alcotest.(list string) "traffic flows around the half-open conn"
    [ "alive" ] !frames;
  (* abrupt close of the half-open conn is absorbed quietly: both
     connections end as plain end-of-stream, nothing was lost *)
  Unix.close half;
  Unix.close good;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    Obs.counter_value obs "net.sock.closed.eof" < 2
    && Unix.gettimeofday () < deadline
  do
    Endpoint.poll ep ~timeout_ms:2.0
  done;
  check Alcotest.int "both closes counted as eof" 2
    (Obs.counter_value obs "net.sock.closed.eof");
  check Alcotest.int "no close counted as garbage" 0
    (Obs.counter_value obs "net.sock.closed.garbage");
  check Alcotest.int "no queued frame lost" 0
    (Obs.counter_value obs "net.dropped.conn_lost")

(* Peer killed mid-stream at the endpoint level: the frame queued when
   the connection dies is counted as conn_lost, later frames for the peer
   as backoff drops while its redial waits, and the endpoint carries on. *)
let test_peer_killed_endpoint_counts_drops () =
  with_temp_dir @@ fun dir ->
  let addr_a = Addr.Unix_sock (Filename.concat dir "a.sock") in
  let addr_b = Addr.Unix_sock (Filename.concat dir "b.sock") in
  let obs_a = Obs.create ~metrics:true () in
  let a = Endpoint.create ~obs:obs_a ~listen:addr_a () in
  let b = Endpoint.create ~listen:addr_b () in
  Fun.protect ~finally:(fun () -> Endpoint.close a) @@ fun () ->
  Endpoint.add_peer a ~id:1 addr_b;
  let got = ref 0 in
  Endpoint.set_on_frame b (fun _ _ -> incr got);
  Endpoint.send a ~dst:1 "one";
  let deadline = Unix.gettimeofday () +. 5.0 in
  while !got < 1 && Unix.gettimeofday () < deadline do
    Endpoint.poll a ~timeout_ms:2.0;
    Endpoint.poll b ~timeout_ms:2.0
  done;
  check Alcotest.int "delivered while peer up" 1 !got;
  (* kill B mid-stream; A keeps sending *)
  Endpoint.close b;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    Obs.counter_value obs_a "net.dropped.backoff" = 0
    && Unix.gettimeofday () < deadline
  do
    Endpoint.send a ~dst:1 "into the void";
    Endpoint.poll a ~timeout_ms:2.0
  done;
  let c name = Obs.counter_value obs_a name in
  check Alcotest.int "connection to B closed once, at eof" 1 (c "net.sock.closed.eof");
  check Alcotest.int "frame queued at the close lost" 1 (c "net.dropped.conn_lost");
  check Alcotest.bool "later frames dropped in the dial backoff" true
    (c "net.dropped.backoff" > 0);
  check Alcotest.int "no queue overflow" 0 (c "net.dropped.queue_full");
  check Alcotest.int "no unroutable frame" 0 (c "net.dropped.no_route")

(* Protocol-level fault injection: a 4-replica fleet (in-process serve
   runtimes over real unix sockets), one replica killed mid-run; the
   survivors keep committing client transactions. *)
let test_replica_killed_survivors_progress () =
  with_temp_dir @@ fun dir ->
  let m = Manifest.local ~seed:11 ~n:4 ~app:"counter" ~dir () in
  let serves = List.init 4 (fun id -> Serve.create ~manifest:m ~id ()) in
  let h = Driver.connect ~clients:1 m in
  let alive = ref serves in
  Fun.protect
    ~finally:(fun () ->
      Driver.close h;
      List.iter (fun s -> try Serve.shutdown s with _ -> ()) !alive)
  @@ fun () ->
  let step_all () =
    List.iter (fun s -> Serve.step ~max_wait_ms:1.0 s) !alive;
    Driver.step h
  in
  let submit_and_wait ?(timeout_s = 60.0) label =
    let done_ = ref false in
    Client.submit (Driver.clients h).(0) ~proc:"counter/add" ~args:"1"
      ~on_complete:(fun _ -> done_ := true)
      ();
    let deadline = Unix.gettimeofday () +. timeout_s in
    while (not !done_) && Unix.gettimeofday () < deadline do
      step_all ()
    done;
    check Alcotest.bool label true !done_
  in
  submit_and_wait "commits with full fleet";
  (* kill replica 3 (a backup) mid-stream: close its sockets, stop
     stepping it *)
  let victim = List.nth serves 3 in
  Endpoint.close (Serve.endpoint victim);
  alive := List.filteri (fun i _ -> i < 3) serves;
  submit_and_wait "commits with one replica dead";
  let survivors name =
    List.fold_left (fun acc s -> acc + Obs.counter_value (Serve.obs s) name) 0 !alive
  in
  check Alcotest.bool "survivors saw the dead peer's connections close" true
    (survivors "net.sock.closed.eof" > 0);
  check Alcotest.bool "survivors dropped frames to it in the dial backoff" true
    (survivors "net.dropped.backoff" > 0);
  check Alcotest.int "no queue overflow" 0 (survivors "net.dropped.queue_full")

(* A four-process fleet driven through [run_smallbank]: the result times
   the set-up phase apart from the drive, both inside the call. *)
let test_run_smallbank_setup_time () =
  with_temp_dir @@ fun dir ->
  let m = Manifest.local ~seed:3 ~n:4 ~app:"smallbank" ~dir () in
  let mfile = Filename.concat dir "manifest.json" in
  Manifest.save m mfile;
  let children =
    Supervisor.spawn_fleet ~manifest:m ~serve_argv:(fun ~id ->
        [| Sys.executable_name; "__serve"; mfile; string_of_int id |])
  in
  Fun.protect ~finally:(fun () -> ignore (Supervisor.shutdown children)) @@ fun () ->
  check Alcotest.bool "fleet ready" true (Supervisor.wait_ready m);
  let h = Driver.connect m in
  let t0 = Unix.gettimeofday () in
  let outcome = Driver.run_smallbank ~accounts:4 ~total:8 h ~seed:3 () in
  let elapsed = Unix.gettimeofday () -. t0 in
  Driver.close h;
  match outcome with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check Alcotest.int "set-up transactions" 4 r.Driver.r_setup;
      check Alcotest.bool "set-up timed" true (r.Driver.r_setup_s > 0.0);
      check Alcotest.bool "set-up and drive inside the call" true
        (r.Driver.r_setup_s +. r.Driver.r_wall_s <= elapsed);
      check Alcotest.int "one latency per timed transaction" r.Driver.r_completed
        (List.length r.Driver.r_latencies_ms)

let () =
  Alcotest.run "iaccf_net"
    [
      ( "wire-codec",
        [
          Alcotest.test_case "every variant round-trips byte-stable" `Quick
            test_every_variant_roundtrips;
          Alcotest.test_case "envelope round-trip" `Quick test_envelope_roundtrip;
          Alcotest.test_case "envelope version rejected" `Quick
            test_envelope_version_rejected;
          qtest prop_roundtrip_byte_stable;
          qtest prop_envelope_roundtrip;
          qtest prop_truncation_rejected;
          qtest prop_bitflip_never_crashes;
        ] );
      ( "framing",
        [
          Alcotest.test_case "byte-by-byte feed" `Quick test_framing_byte_by_byte;
          Alcotest.test_case "concatenated frames" `Quick
            test_framing_concatenated_frames;
          Alcotest.test_case "oversized length rejected" `Quick
            test_framing_oversized_rejected;
          qtest prop_framing_bitflip_rejected;
        ] );
      ( "endpoint-faults",
        [
          Alcotest.test_case "garbage on accept" `Quick test_garbage_on_accept;
          Alcotest.test_case "half-open connection" `Quick
            test_half_open_connection;
          Alcotest.test_case "peer killed: drops counted" `Quick
            test_peer_killed_endpoint_counts_drops;
          Alcotest.test_case "replica killed: survivors progress" `Slow
            test_replica_killed_survivors_progress;
        ] );
      ( "driver",
        [ Alcotest.test_case "set-up phase timed" `Slow test_run_smallbank_setup_time ] );
    ]
