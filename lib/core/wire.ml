module Message = Iaccf_types.Message
module Request = Iaccf_types.Request
module D = Iaccf_crypto.Digest32

type batch_package = {
  bp_pp : Message.pre_prepare;
  bp_requests : Request.t list;
  bp_ev_prepares : Message.prepare list;
  bp_ev_nonces : (int * string) list;
}

type t =
  | Request_msg of Request.t
  | Pre_prepare_msg of { pp : Message.pre_prepare; batch : D.t list }
  | Prepare_msg of Message.prepare
  | Commit_msg of Message.commit
  | Reply_msg of Message.reply
  | Replyx_msg of Message.replyx
  | View_change_msg of Message.view_change
  | New_view_msg of { nv : Message.new_view; vcs : Message.view_change list }
  | Fetch_missing of { fm_seqno : int }
  | Batch_package_msg of batch_package
  (* Catch-up: a peer answers Fetch_ledger with a bounded
     Ledger_suffix_chunk or, as the request's offer policy allows, a
     Snapshot_offer; the requester then pulls snapshot chunks and the
     remaining suffix explicitly. *)
  | Fetch_ledger of { fl_from_len : int; fl_offer : Iaccf_statesync.Session.offer }
  | Snapshot_offer of {
      so_cp_seqno : int;  (* checkpoint the snapshot captures *)
      so_total : int;  (* chunk count *)
      so_bytes : int;  (* serialized snapshot size *)
      so_upto : int;  (* sender's safe ledger length *)
      so_view : int;
    }
  | Fetch_snapshot_chunk of { fc_cp_seqno : int; fc_index : int }
  | Snapshot_chunk of {
      sc_cp_seqno : int;
      sc_index : int;
      sc_total : int;
      sc_data : string;
    }
  | Ledger_suffix_chunk of {
      lc_from : int;  (* ledger index of the first entry *)
      lc_entries : Iaccf_ledger.Entry.t list;
      lc_upto : int;  (* sender's safe ledger length *)
      lc_view : int;
    }
  | Replyx_request of { rr_tx_hash : D.t }
  | Gov_receipts_request of { gr_from_index : int }
  | Gov_receipts_msg of Receipt.t list
  | Ack_msg of { a_replica : int; a_digest : D.t; a_signature : string }
  (* Admission control: the primary's bounded request queue is over its
     watermark, so the request was shed before signature verification.
     Carries the request hash so the client can tell which submission was
     refused; the existing retransmit path is the retry channel. *)
  | Busy_msg of { b_replica : int; b_tx_hash : D.t }
  (* Observer/read tier: status polls, verifiable reads, and Merkle audit
     paths, served by non-voting observers (or any replica) off the quorum
     path. Answers carry the evidence the querier needs to verify them —
     the receipt of the writing transaction plus its full write set for
     reads, an inclusion path for audit queries. *)
  | Status_query of { sq_view : int; sq_seqno : int }
  | Status_info of {
      si_view : int;
      si_seqno : int;
      si_status : Status.t;
      si_committed : int;  (* responder's stable committed horizon *)
    }
  | Read_query of { rq_key : string; rq_nonce : int }
  | Read_answer of {
      ra_key : string;
      ra_nonce : int;  (* echoed from the query *)
      ra_value : string option;  (* observer's current value *)
      ra_seqno : int;  (* batch of the writing tx; 0 = writer not indexed *)
      ra_tx_position : int;  (* position of that tx within its batch *)
      ra_write_set : (string * Iaccf_kv.Store.write) list;
          (* the writing tx's normalized write set; its hash is bound into
             the receipt's transaction entry *)
      ra_receipt : Receipt.t option;  (* receipt of the writing tx *)
    }
  | Audit_query of { aq_index : int (* ledger entry index *) }
  | Audit_answer of {
      au_index : int;
      au_leaf : D.t;  (* leaf digest of the entry *)
      au_m_index : int;  (* index among Merkle-bound entries *)
      au_m_size : int;  (* tree size the path proves against *)
      au_path : D.t list;
      au_root : D.t;
    }

(* Causal-flow classification for the tracing layer: which messages carry
   a request's causality across nodes, and under which flow identity.
   Request and replyx messages use the request's content-derived trace id,
   so one request's submit -> ... -> receipt path shares a single flow
   chain end to end; batch-phase messages flow under their sequence
   number (the "request.batched" instant bridges the two identities);
   the observer read tier flows under the query nonce. Bulk state-sync
   and fetch traffic is deliberately unclassified — it is not on any
   request's critical path and would drown the trace. *)
let flow_of = function
  | Request_msg r -> Some ("flow.request", Request.trace_id r)
  | Pre_prepare_msg { pp; _ } ->
      Some ("flow.pre_prepare", "s" ^ string_of_int pp.Message.seqno)
  | Prepare_msg p -> Some ("flow.prepare", "s" ^ string_of_int p.Message.p_seqno)
  | Commit_msg c -> Some ("flow.commit", "s" ^ string_of_int c.Message.c_seqno)
  | Reply_msg r -> Some ("flow.reply", "s" ^ string_of_int r.Message.r_seqno)
  | Replyx_msg x ->
      Some ("flow.receipt", Request.trace_id x.Message.x_tx.Iaccf_types.Batch.request)
  | View_change_msg vc ->
      Some ("flow.view_change", "v" ^ string_of_int vc.Message.vc_view)
  | New_view_msg { nv; _ } ->
      Some ("flow.new_view", "v" ^ string_of_int nv.Message.nv_view)
  | Status_query { sq_view; sq_seqno } ->
      Some ("flow.status", Printf.sprintf "%d.%d" sq_view sq_seqno)
  | Status_info { si_view; si_seqno; _ } ->
      Some ("flow.status", Printf.sprintf "%d.%d" si_view si_seqno)
  | Read_query { rq_nonce; _ } -> Some ("flow.read", "r" ^ string_of_int rq_nonce)
  | Read_answer { ra_nonce; _ } -> Some ("flow.read", "r" ^ string_of_int ra_nonce)
  | Audit_query { aq_index } -> Some ("flow.audit", "i" ^ string_of_int aq_index)
  | Audit_answer { au_index; _ } -> Some ("flow.audit", "i" ^ string_of_int au_index)
  | Busy_msg { b_tx_hash; _ } ->
      (* A busy rejection terminates (one attempt of) the request's flow,
         so it shares the request's content-derived identity. *)
      Some ("flow.request", String.sub (D.to_hex b_tx_hash) 0 12)
  | Fetch_missing _ | Batch_package_msg _ | Fetch_ledger _
  | Snapshot_offer _ | Fetch_snapshot_chunk _ | Snapshot_chunk _
  | Ledger_suffix_chunk _ | Replyx_request _
  | Gov_receipts_request _ | Gov_receipts_msg _ | Ack_msg _ ->
      None

let describe = function
  | Request_msg r -> Printf.sprintf "request(%s)" r.Request.proc
  | Pre_prepare_msg { pp; _ } ->
      Printf.sprintf "pre-prepare(v=%d,s=%d)" pp.Message.view pp.Message.seqno
  | Prepare_msg p -> Printf.sprintf "prepare(v=%d,s=%d,r=%d)" p.Message.p_view p.Message.p_seqno p.Message.p_replica
  | Commit_msg c -> Printf.sprintf "commit(v=%d,s=%d,r=%d)" c.Message.c_view c.Message.c_seqno c.Message.c_replica
  | Reply_msg r -> Printf.sprintf "reply(s=%d,r=%d)" r.Message.r_seqno r.Message.r_replica
  | Replyx_msg x -> Printf.sprintf "replyx(s=%d)" x.Message.x_pp.Message.seqno
  | View_change_msg vc -> Printf.sprintf "view-change(v=%d,r=%d)" vc.Message.vc_view vc.Message.vc_replica
  | New_view_msg { nv; _ } -> Printf.sprintf "new-view(v=%d)" nv.Message.nv_view
  | Fetch_missing { fm_seqno } -> Printf.sprintf "fetch-missing(s=%d)" fm_seqno
  | Batch_package_msg bp -> Printf.sprintf "batch-package(s=%d)" bp.bp_pp.Message.seqno
  | Fetch_ledger { fl_from_len; fl_offer } ->
      Printf.sprintf "fetch-ledger(from=%d,offer=%s)" fl_from_len
        (Iaccf_statesync.Session.offer_to_string fl_offer)
  | Snapshot_offer { so_cp_seqno; so_total; so_bytes; _ } ->
      Printf.sprintf "snapshot-offer(cp=%d,%d chunks,%dB)" so_cp_seqno so_total
        so_bytes
  | Fetch_snapshot_chunk { fc_cp_seqno; fc_index } ->
      Printf.sprintf "fetch-snapshot-chunk(cp=%d,i=%d)" fc_cp_seqno fc_index
  | Snapshot_chunk { sc_cp_seqno; sc_index; sc_total; _ } ->
      Printf.sprintf "snapshot-chunk(cp=%d,%d/%d)" sc_cp_seqno (sc_index + 1)
        sc_total
  | Ledger_suffix_chunk { lc_from; lc_entries; _ } ->
      Printf.sprintf "ledger-suffix(from=%d,%d entries)" lc_from
        (List.length lc_entries)
  | Replyx_request _ -> "replyx-request"
  | Gov_receipts_request { gr_from_index } -> Printf.sprintf "gov-receipts-request(from=%d)" gr_from_index
  | Gov_receipts_msg rs -> Printf.sprintf "gov-receipts(%d)" (List.length rs)
  | Ack_msg { a_replica; _ } -> Printf.sprintf "ack(r=%d)" a_replica
  | Busy_msg { b_replica; b_tx_hash } ->
      Printf.sprintf "busy(r=%d,tx=%s)" b_replica
        (String.sub (D.to_hex b_tx_hash) 0 8)
  | Status_query { sq_view; sq_seqno } ->
      Printf.sprintf "status-query(%d.%d)" sq_view sq_seqno
  | Status_info { si_view; si_seqno; si_status; _ } ->
      Printf.sprintf "status-info(%d.%d=%s)" si_view si_seqno
        (Status.to_string si_status)
  | Read_query { rq_key; _ } -> Printf.sprintf "read-query(%s)" rq_key
  | Read_answer { ra_key; ra_seqno; _ } ->
      Printf.sprintf "read-answer(%s@s=%d)" ra_key ra_seqno
  | Audit_query { aq_index } -> Printf.sprintf "audit-query(i=%d)" aq_index
  | Audit_answer { au_index; au_m_size; _ } ->
      Printf.sprintf "audit-answer(i=%d,size=%d)" au_index au_m_size
