module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module Ledger = Iaccf_ledger.Ledger
module Entry = Iaccf_ledger.Entry
module Bitmap = Iaccf_util.Bitmap
module Schnorr = Iaccf_crypto.Schnorr
module D = Iaccf_crypto.Digest32
module Wire = Iaccf_core.Wire

type behaviour =
  | Equivocate_pre_prepares
  | Tamper_replyx
  | Withhold_nonces
  | Equivocate_nonces
  | Corrupt_view_changes
  | Pad_new_view
  | Mute

(* A validly signed pre-prepare for the same (view, seqno) committing to a
   different ledger root: real equivocation, not a broken signature. *)
let equivocate_pp ~sk (pp : Message.pre_prepare) =
  let m_root = D.of_string ("equivocation:" ^ D.to_hex pp.Message.m_root) in
  let payload =
    Message.pre_prepare_payload ~view:pp.Message.view ~seqno:pp.Message.seqno
      ~m_root ~g_root:pp.Message.g_root ~nonce_com:pp.Message.nonce_com
      ~ev_bitmap:pp.Message.ev_bitmap ~gov_index:pp.Message.gov_index
      ~cp_digest:pp.Message.cp_digest ~kind:pp.Message.kind
      ~primary:pp.Message.primary
  in
  {
    pp with
    Message.m_root;
    signature = Schnorr.sign sk (D.to_raw payload);
  }

let tamper_replyx (x : Message.replyx) =
  let tx = x.Message.x_tx in
  let result = { tx.Batch.result with Batch.output = tx.Batch.result.Batch.output ^ "+tampered" } in
  { x with Message.x_tx = { tx with Batch.result = result } }

(* A new view whose set is [vc], reporting nothing prepared, [quorum]
   times, under the m_root an honest replica computes after rolling back
   to genesis and appending the set. *)
let padded_new_view ~sk ~genesis ~quorum (vc : Message.view_change) =
  let sign d = Schnorr.sign sk (D.to_raw d) in
  let view = vc.Message.vc_view and primary = vc.Message.vc_replica in
  let vc_signature =
    sign (Message.view_change_payload ~view ~replica:primary ~last_prepared:[])
  in
  let vcs = List.init quorum (fun _ -> { vc with Message.vc_last_prepared = []; vc_signature }) in
  let entry = Entry.View_change_set vcs and ledger = Ledger.create genesis in
  ignore (Ledger.append ledger entry);
  let m_root = Ledger.m_root ledger and vc_hash = Entry.leaf_digest entry in
  let vc_bitmap = Bitmap.of_list [ primary ] in
  let nv =
    {
      Message.nv_view = view;
      nv_m_root = m_root;
      nv_vc_bitmap = vc_bitmap;
      nv_vc_hash = vc_hash;
      nv_primary = primary;
      nv_signature = sign (Message.new_view_payload ~view ~m_root ~vc_bitmap ~vc_hash ~primary);
    }
  in
  Wire.New_view_msg { nv; vcs }

let intercept ~sk ~genesis ~client_base behaviour ~dst (msg : Wire.t) =
  match (behaviour, msg) with
  | Equivocate_pre_prepares, Wire.Pre_prepare_msg { pp; batch } ->
      (* Split the backups: odd destinations get a conflicting, validly
         signed twin. Safety must hold anyway — at most one root can gather
         a quorum. *)
      if dst land 1 = 1 then [ (dst, Wire.Pre_prepare_msg { pp = equivocate_pp ~sk pp; batch }) ]
      else [ (dst, msg) ]
  | Tamper_replyx, Wire.Replyx_msg x when dst >= client_base ->
      [ (dst, Wire.Replyx_msg (tamper_replyx x)) ]
  | Withhold_nonces, (Wire.Commit_msg _ | Wire.Reply_msg _) -> []
  | Equivocate_nonces, Wire.Commit_msg c when dst <> 0 ->
      (* Replica 0 gets the real nonce; every other replica 32 bytes that
         open nothing. *)
      [ (dst, Wire.Commit_msg { c with Message.c_nonce = String.make 32 'z' }) ]
  | Corrupt_view_changes, Wire.View_change_msg vc ->
      [ (dst, Wire.View_change_msg { vc with Message.vc_signature = "corrupt" }) ]
  | Pad_new_view, Wire.View_change_msg vc ->
      let quorum = Iaccf_types.Config.quorum genesis.Iaccf_types.Genesis.initial_config in
      [ (dst, padded_new_view ~sk ~genesis ~quorum vc) ]
  | Mute, _ -> []
  | ( ( Equivocate_pre_prepares | Tamper_replyx | Withhold_nonces
      | Equivocate_nonces | Corrupt_view_changes | Pad_new_view ),
      _ ) ->
      [ (dst, msg) ]
