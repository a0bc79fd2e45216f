(* Binary codec for every Wire.t variant: one leading tag byte, then the
   variant's payload in the canonical Iaccf_util.Codec encoding (the same
   writers the signing payloads and the ledger use, so the byte discipline
   is uniform across the system). The tag numbers are wire format: never
   renumber an existing variant, only append. A tag whose meaning
   changes bumps [envelope_version]; retired tags stay unassigned. Tag
   10 is the one catch-up request since version 2; tags 11 and 15 carried
   the two requests it replaced. *)

module Codec = Iaccf_util.Codec
module W = Codec.W
module R = Codec.R
module Message = Iaccf_types.Message
module Request = Iaccf_types.Request
module Batch = Iaccf_types.Batch
module Entry = Iaccf_ledger.Entry
module D = Iaccf_crypto.Digest32
module Session = Iaccf_statesync.Session

let tag_of = function
  | Wire.Request_msg _ -> 0
  | Pre_prepare_msg _ -> 1
  | Prepare_msg _ -> 2
  | Commit_msg _ -> 3
  | Reply_msg _ -> 4
  | Replyx_msg _ -> 5
  | View_change_msg _ -> 6
  | New_view_msg _ -> 7
  | Fetch_missing _ -> 8
  | Batch_package_msg _ -> 9
  | Fetch_ledger _ -> 10
  | Snapshot_offer _ -> 12
  | Fetch_snapshot_chunk _ -> 13
  | Snapshot_chunk _ -> 14
  | Ledger_suffix_chunk _ -> 16
  | Replyx_request _ -> 17
  | Gov_receipts_request _ -> 18
  | Gov_receipts_msg _ -> 19
  | Ack_msg _ -> 20
  | Busy_msg _ -> 21
  | Status_query _ -> 22
  | Status_info _ -> 23
  | Read_query _ -> 24
  | Read_answer _ -> 25
  | Audit_query _ -> 26
  | Audit_answer _ -> 27

let encode_digest w d = W.raw w (D.to_raw d)
let decode_digest r = D.of_raw (R.raw r 32)

let encode_status w (s : Status.t) =
  W.u8 w
    (match s with Unknown -> 0 | Pending -> 1 | Committed -> 2 | Invalid -> 3)

let decode_status r : Status.t =
  match R.u8 r with
  | 0 -> Unknown
  | 1 -> Pending
  | 2 -> Committed
  | 3 -> Invalid
  | n -> raise (Codec.Decode_error (Printf.sprintf "bad status tag %d" n))

let encode_write w (v : Iaccf_kv.Store.write) =
  match v with
  | Put s ->
      W.u8 w 0;
      W.bytes w s
  | Delete -> W.u8 w 1

let decode_write r : Iaccf_kv.Store.write =
  match R.u8 r with
  | 0 -> Put (R.bytes r)
  | 1 -> Delete
  | n -> raise (Codec.Decode_error (Printf.sprintf "bad write tag %d" n))

let encode_batch_package w (bp : Wire.batch_package) =
  Message.encode_pre_prepare w bp.Wire.bp_pp;
  W.list w (Request.encode w) bp.bp_requests;
  W.list w (Message.encode_prepare w) bp.bp_ev_prepares;
  W.list w
    (fun (id, nonce) ->
      W.u64 w id;
      W.bytes w nonce)
    bp.bp_ev_nonces

let decode_batch_package r : Wire.batch_package =
  let bp_pp = Message.decode_pre_prepare r in
  let bp_requests = R.list r Request.decode in
  let bp_ev_prepares = R.list r Message.decode_prepare in
  let bp_ev_nonces =
    R.list r (fun r ->
        let id = R.u64 r in
        let nonce = R.bytes r in
        (id, nonce))
  in
  { Wire.bp_pp; bp_requests; bp_ev_prepares; bp_ev_nonces }

let encode_msg w (msg : Wire.t) =
  W.u8 w (tag_of msg);
  match msg with
  | Request_msg req -> Request.encode w req
  | Pre_prepare_msg { pp; batch } ->
      Message.encode_pre_prepare w pp;
      W.list w (encode_digest w) batch
  | Prepare_msg p -> Message.encode_prepare w p
  | Commit_msg c -> Message.encode_commit w c
  | Reply_msg rp -> Message.encode_reply w rp
  | Replyx_msg x -> Message.encode_replyx w x
  | View_change_msg vc -> Message.encode_view_change w vc
  | New_view_msg { nv; vcs } ->
      Message.encode_new_view w nv;
      W.list w (Message.encode_view_change w) vcs
  | Fetch_missing { fm_seqno } -> W.u64 w fm_seqno
  | Batch_package_msg bp -> encode_batch_package w bp
  | Fetch_ledger { fl_from_len; fl_offer } ->
      W.u64 w fl_from_len;
      W.u8 w
        (match fl_offer with
        | Session.Never -> 0
        | Session.If_far -> 1
        | Session.Always -> 2)
  | Snapshot_offer { so_cp_seqno; so_total; so_bytes; so_upto; so_view } ->
      W.u64 w so_cp_seqno;
      W.u64 w so_total;
      W.u64 w so_bytes;
      W.u64 w so_upto;
      W.u64 w so_view
  | Fetch_snapshot_chunk { fc_cp_seqno; fc_index } ->
      W.u64 w fc_cp_seqno;
      W.u64 w fc_index
  | Snapshot_chunk { sc_cp_seqno; sc_index; sc_total; sc_data } ->
      W.u64 w sc_cp_seqno;
      W.u64 w sc_index;
      W.u64 w sc_total;
      W.bytes w sc_data
  | Ledger_suffix_chunk { lc_from; lc_entries; lc_upto; lc_view } ->
      W.u64 w lc_from;
      W.list w (Entry.encode w) lc_entries;
      W.u64 w lc_upto;
      W.u64 w lc_view
  | Replyx_request { rr_tx_hash } -> encode_digest w rr_tx_hash
  | Gov_receipts_request { gr_from_index } -> W.u64 w gr_from_index
  | Gov_receipts_msg rs -> W.list w (Receipt.encode w) rs
  | Ack_msg { a_replica; a_digest; a_signature } ->
      W.u64 w a_replica;
      encode_digest w a_digest;
      W.bytes w a_signature
  | Busy_msg { b_replica; b_tx_hash } ->
      W.u64 w b_replica;
      encode_digest w b_tx_hash
  | Status_query { sq_view; sq_seqno } ->
      W.u64 w sq_view;
      W.u64 w sq_seqno
  | Status_info { si_view; si_seqno; si_status; si_committed } ->
      W.u64 w si_view;
      W.u64 w si_seqno;
      encode_status w si_status;
      W.u64 w si_committed
  | Read_query { rq_key; rq_nonce } ->
      W.bytes w rq_key;
      W.u64 w rq_nonce
  | Read_answer
      { ra_key; ra_nonce; ra_value; ra_seqno; ra_tx_position; ra_write_set;
        ra_receipt } ->
      W.bytes w ra_key;
      W.u64 w ra_nonce;
      W.option w (W.bytes w) ra_value;
      W.u64 w ra_seqno;
      W.u64 w ra_tx_position;
      W.list w
        (fun (k, v) ->
          W.bytes w k;
          encode_write w v)
        ra_write_set;
      W.option w (Receipt.encode w) ra_receipt
  | Audit_query { aq_index } -> W.u64 w aq_index
  | Audit_answer { au_index; au_leaf; au_m_index; au_m_size; au_path; au_root }
    ->
      W.u64 w au_index;
      encode_digest w au_leaf;
      W.u64 w au_m_index;
      W.u64 w au_m_size;
      W.list w (encode_digest w) au_path;
      encode_digest w au_root

let decode_msg r : Wire.t =
  match R.u8 r with
  | 0 -> Request_msg (Request.decode r)
  | 1 ->
      let pp = Message.decode_pre_prepare r in
      let batch = R.list r decode_digest in
      Pre_prepare_msg { pp; batch }
  | 2 -> Prepare_msg (Message.decode_prepare r)
  | 3 -> Commit_msg (Message.decode_commit r)
  | 4 -> Reply_msg (Message.decode_reply r)
  | 5 -> Replyx_msg (Message.decode_replyx r)
  | 6 -> View_change_msg (Message.decode_view_change r)
  | 7 ->
      let nv = Message.decode_new_view r in
      let vcs = R.list r Message.decode_view_change in
      New_view_msg { nv; vcs }
  | 8 -> Fetch_missing { fm_seqno = R.u64 r }
  | 9 -> Batch_package_msg (decode_batch_package r)
  | 10 ->
      let fl_from_len = R.u64 r in
      let fl_offer =
        match R.u8 r with
        | 0 -> Session.Never
        | 1 -> Session.If_far
        | 2 -> Session.Always
        | n -> raise (Codec.Decode_error (Printf.sprintf "bad offer policy %d" n))
      in
      Fetch_ledger { fl_from_len; fl_offer }
  | 12 ->
      let so_cp_seqno = R.u64 r in
      let so_total = R.u64 r in
      let so_bytes = R.u64 r in
      let so_upto = R.u64 r in
      let so_view = R.u64 r in
      Snapshot_offer { so_cp_seqno; so_total; so_bytes; so_upto; so_view }
  | 13 ->
      let fc_cp_seqno = R.u64 r in
      let fc_index = R.u64 r in
      Fetch_snapshot_chunk { fc_cp_seqno; fc_index }
  | 14 ->
      let sc_cp_seqno = R.u64 r in
      let sc_index = R.u64 r in
      let sc_total = R.u64 r in
      let sc_data = R.bytes r in
      Snapshot_chunk { sc_cp_seqno; sc_index; sc_total; sc_data }
  | 16 ->
      let lc_from = R.u64 r in
      let lc_entries = R.list r Entry.decode in
      let lc_upto = R.u64 r in
      let lc_view = R.u64 r in
      Ledger_suffix_chunk { lc_from; lc_entries; lc_upto; lc_view }
  | 17 -> Replyx_request { rr_tx_hash = decode_digest r }
  | 18 -> Gov_receipts_request { gr_from_index = R.u64 r }
  | 19 -> Gov_receipts_msg (R.list r Receipt.decode)
  | 20 ->
      let a_replica = R.u64 r in
      let a_digest = decode_digest r in
      let a_signature = R.bytes r in
      Ack_msg { a_replica; a_digest; a_signature }
  | 21 ->
      let b_replica = R.u64 r in
      let b_tx_hash = decode_digest r in
      Busy_msg { b_replica; b_tx_hash }
  | 22 ->
      let sq_view = R.u64 r in
      let sq_seqno = R.u64 r in
      Status_query { sq_view; sq_seqno }
  | 23 ->
      let si_view = R.u64 r in
      let si_seqno = R.u64 r in
      let si_status = decode_status r in
      let si_committed = R.u64 r in
      Status_info { si_view; si_seqno; si_status; si_committed }
  | 24 ->
      let rq_key = R.bytes r in
      let rq_nonce = R.u64 r in
      Read_query { rq_key; rq_nonce }
  | 25 ->
      let ra_key = R.bytes r in
      let ra_nonce = R.u64 r in
      let ra_value = R.option r R.bytes in
      let ra_seqno = R.u64 r in
      let ra_tx_position = R.u64 r in
      let ra_write_set =
        R.list r (fun r ->
            let k = R.bytes r in
            let v = decode_write r in
            (k, v))
      in
      let ra_receipt = R.option r Receipt.decode in
      Read_answer
        { ra_key; ra_nonce; ra_value; ra_seqno; ra_tx_position; ra_write_set;
          ra_receipt }
  | 26 -> Audit_query { aq_index = R.u64 r }
  | 27 ->
      let au_index = R.u64 r in
      let au_leaf = decode_digest r in
      let au_m_index = R.u64 r in
      let au_m_size = R.u64 r in
      let au_path = R.list r decode_digest in
      let au_root = decode_digest r in
      Audit_answer { au_index; au_leaf; au_m_index; au_m_size; au_path; au_root }
  | n -> raise (Codec.Decode_error (Printf.sprintf "bad wire tag %d" n))

let serialize msg = Codec.encode (fun w -> encode_msg w msg)
let deserialize s = Codec.decode s decode_msg

(* Process-to-process envelope: the socket layer moves simulator-network
   addresses, not protocol state, so a frame carries (src, dst) around the
   message. The version byte guards against skew between fleet binaries. *)

let envelope_version = 2

let encode_envelope ~src ~dst msg =
  Codec.encode (fun w ->
      W.u8 w envelope_version;
      W.u32 w src;
      W.u32 w dst;
      encode_msg w msg)

let decode_envelope s =
  Codec.decode s (fun r ->
      let v = R.u8 r in
      if v <> envelope_version then
        raise (Codec.Decode_error (Printf.sprintf "bad envelope version %d" v));
      let src = R.u32 r in
      let dst = R.u32 r in
      let msg = decode_msg r in
      (src, dst, msg))
