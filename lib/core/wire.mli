(** Messages exchanged over the simulated network.

    [Batch_package] bundles everything a replica needs to adopt a batch it
    missed: the pre-prepare, the requests in execution order, and the
    commitment-evidence entries that precede the pre-prepare in the ledger.
    It backs retransmission ([Fetch_missing]) of a batch that is not yet
    executed. Committed history travels as [Ledger_suffix_chunk]s in
    answer to [Fetch_ledger], for stragglers, new-view synchronisation,
    and joining replicas (§3.4, §5.1). *)

module Message = Iaccf_types.Message
module Request = Iaccf_types.Request
module D = Iaccf_crypto.Digest32

type batch_package = {
  bp_pp : Message.pre_prepare;
  bp_requests : Request.t list;  (** execution order *)
  bp_ev_prepares : Message.prepare list;  (** evidence for seqno - P *)
  bp_ev_nonces : (int * string) list;
}

type t =
  | Request_msg of Request.t
  | Pre_prepare_msg of { pp : Message.pre_prepare; batch : D.t list }
      (** [batch] is B, the request hashes in execution order *)
  | Prepare_msg of Message.prepare
  | Commit_msg of Message.commit
  | Reply_msg of Message.reply
  | Replyx_msg of Message.replyx
  | View_change_msg of Message.view_change
  | New_view_msg of { nv : Message.new_view; vcs : Message.view_change list }
  | Fetch_missing of { fm_seqno : int }
      (** ask for the batch package at a sequence number *)
  | Batch_package_msg of batch_package
  | Fetch_ledger of { fl_from_len : int; fl_offer : Iaccf_statesync.Session.offer }
      (** the one catch-up request: the ledger from this entry index on.
          The sender answers with a suffix extent or, as [fl_offer]
          allows ({!Iaccf_statesync.Session.should_offer}), a snapshot
          offer *)
  | Snapshot_offer of {
      so_cp_seqno : int;  (** checkpoint the snapshot captures *)
      so_total : int;  (** number of chunks *)
      so_bytes : int;  (** serialized snapshot size *)
      so_upto : int;  (** sender's safe ledger length *)
      so_view : int;
    }  (** sender has a sealed snapshot the requester should pull *)
  | Fetch_snapshot_chunk of { fc_cp_seqno : int; fc_index : int }
  | Snapshot_chunk of {
      sc_cp_seqno : int;
      sc_index : int;
      sc_total : int;
      sc_data : string;
    }
  | Ledger_suffix_chunk of {
      lc_from : int;  (** ledger index of the first entry *)
      lc_entries : Iaccf_ledger.Entry.t list;
      lc_upto : int;  (** sender's safe ledger length *)
      lc_view : int;
    }  (** one bounded extent of the ledger (view changes included) *)
  | Replyx_request of { rr_tx_hash : D.t }
      (** client asks any replica for the receipt material of a committed
          transaction (designated-replica failover, §3.3) *)
  | Gov_receipts_request of { gr_from_index : int }
  | Gov_receipts_msg of Receipt.t list
  | Ack_msg of { a_replica : int; a_digest : D.t; a_signature : string }
      (** PeerReview-variant acknowledgement (§6 baselines) *)
  | Busy_msg of { b_replica : int; b_tx_hash : D.t }
      (** admission control: the primary's bounded request queue is over
          its watermark, so this request was shed before signature
          verification; the hash tells the client which submission to
          retry (over the ordinary retransmit path) *)
  | Status_query of { sq_view : int; sq_seqno : int }
      (** what happened to transaction ID [view.seqno]? Served by replicas
          and observers alike ({!Replica.tx_status}) *)
  | Status_info of {
      si_view : int;
      si_seqno : int;
      si_status : Status.t;
      si_committed : int;  (** responder's stable committed horizon *)
    }
  | Read_query of { rq_key : string; rq_nonce : int }
      (** verifiable observer read; [rq_nonce] correlates the answer *)
  | Read_answer of {
      ra_key : string;
      ra_nonce : int;  (** echoed from the query *)
      ra_value : string option;  (** responder's current value *)
      ra_seqno : int;  (** batch of the writing tx; 0 = writer not indexed *)
      ra_tx_position : int;  (** that tx's position within its batch *)
      ra_write_set : (string * Iaccf_kv.Store.write) list;
          (** the writing tx's normalized write set, whose hash is bound
              into the receipt's transaction entry *)
      ra_receipt : Receipt.t option;  (** receipt of the writing tx *)
    }  (** everything a reader needs to verify the value without trusting
           the responder: receipt -> write-set hash -> (key, value) *)
  | Audit_query of { aq_index : int }
      (** Merkle audit path for the ledger entry at this index *)
  | Audit_answer of {
      au_index : int;
      au_leaf : D.t;  (** leaf digest of the entry *)
      au_m_index : int;  (** index among Merkle-bound entries *)
      au_m_size : int;  (** tree size the path proves against *)
      au_path : D.t list;
      au_root : D.t;
    }

val describe : t -> string

val flow_of : t -> (string * string) option
(** Causal-flow classification for {!Iaccf_sim.Network.set_flow_classifier}:
    [(flow name, flow id)] for messages that carry a request's causality
    across nodes, [None] for bulk/fetch traffic. Request and replyx
    messages flow under the request's {!Iaccf_types.Request.trace_id};
    batch-phase messages (pre-prepare/prepare/commit/reply) under
    ["s<seqno>"]; view changes under ["v<view>"]; the observer tier under
    its query identity. *)
