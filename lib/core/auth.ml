module Schnorr = Iaccf_crypto.Schnorr
module Profile = Iaccf_crypto.Profile
module Sigcheck = Iaccf_crypto.Sigcheck
module D = Iaccf_crypto.Digest32
module Hmac = Iaccf_crypto.Hmac
module Obs = Iaccf_obs.Obs
module Config = Iaccf_types.Config
module Request = Iaccf_types.Request
module Message = Iaccf_types.Message
module Bitmap = Iaccf_util.Bitmap

type t = {
  variant : Variant.t;
  sk : Schnorr.secret_key;
  mac_key : string;
  profile : Profile.t;
  checker : Sigcheck.t; (* signature checks with per-key combs *)
  c_sigs_made : Obs.counter;
  c_sigs_verified : Obs.counter;
  c_macs_computed : Obs.counter;
}

let create variant ~sk ~rid ~obs ~profile =
  let c name = Obs.counter obs (Printf.sprintf "replica.%d.%s" rid name) in
  {
    variant;
    sk;
    mac_key = "iaccf-shared-mac-key";
    profile;
    checker = Sigcheck.create ~obs ();
    c_sigs_made = c "sigs_made";
    c_sigs_verified = c "sigs_verified";
    c_macs_computed = c "macs_computed";
  }

let signatures_made a = Obs.value a.c_sigs_made
let signatures_verified a = Obs.value a.c_sigs_verified
let macs_computed a = Obs.value a.c_macs_computed
let receipts a = a.variant.Variant.gen_receipts
let checkpoints a = a.variant.Variant.enable_checkpoints
let keep_ledger a = a.variant.Variant.keep_ledger

let schnorr_sign a ~cls raw =
  Obs.incr a.c_sigs_made;
  Profile.time a.profile Profile.Sign ~cls Profile.Replica_key (fun () ->
      Schnorr.sign a.sk raw)

let schnorr_verify a ~cls principal pk d ~signature =
  Obs.incr a.c_sigs_verified;
  Profile.time a.profile Profile.Verify ~cls principal (fun () ->
      Sigcheck.verify a.checker pk (D.to_raw d) ~signature)

let sign a ~cls d =
  if a.variant.Variant.macs_only then begin
    Obs.incr a.c_macs_computed;
    Profile.time a.profile Profile.Mac ~cls Profile.Replica_key (fun () ->
        Hmac.mac ~key:a.mac_key (D.to_raw d))
  end
  else schnorr_sign a ~cls (D.to_raw d)

let verify a cfg ~cls ~replica d ~signature =
  if a.variant.Variant.macs_only then begin
    (* No premature counting here: the MAC check needs no key lookup and
       always runs, so the tally matches work done. *)
    Obs.incr a.c_macs_computed;
    Profile.time a.profile Profile.Mac ~cls Profile.Replica_key (fun () ->
        Hmac.verify ~key:a.mac_key (D.to_raw d) ~mac:signature)
  end
  else
    match Config.replica_pk cfg replica with
    | None -> false
    | Some pk ->
        (* Count only after the key lookup succeeds: an unknown replica id
           performs no verification and must not skew sigs_verified or the
           profiler's Table-3 breakdown. *)
        schnorr_verify a ~cls Profile.Replica_key pk d ~signature

(* The paper's dominant cost: one client-key verification per request,
   unamortized by batching. *)
let verify_request a ~service (req : Request.t) =
  (not a.variant.Variant.verify_client_sigs)
  || Request.verify req ~service
       ~check:(schnorr_verify a ~cls:"request" Profile.Client_key)

let peerreview a = a.variant.Variant.peerreview

let peerreview_sign a payload =
  ignore (schnorr_sign a ~cls:"peerreview" (D.to_raw (D.of_string payload)))

let sent a msg = if peerreview a then peerreview_sign a (Wire.describe msg)

(* What the signed-commit ablation signs and checks. *)
let commit_payload v s r = D.of_string (Printf.sprintf "commit:%d:%d:%d" v s r)

let commit_sent a ~view ~seqno ~replica =
  if peerreview a then peerreview_sign a "commit";
  if a.variant.Variant.sign_commits then
    ignore (schnorr_sign a ~cls:"commit" (D.to_raw (commit_payload view seqno replica)))

(* The check's result is discarded: it does not gate the commit
   bookkeeping, it only pays the verification the nonce scheme saves. *)
let commit_received a cfg (c : Message.commit) =
  if a.variant.Variant.sign_commits then
    ignore
      (verify a cfg ~cls:"commit" ~replica:c.Message.c_replica
         (commit_payload c.Message.c_view c.Message.c_seqno c.Message.c_replica)
         ~signature:(String.make 64 '\000'))

let replies_sent a clients =
  if peerreview a then
    List.iter (fun pk -> peerreview_sign a ("reply" ^ Schnorr.public_key_to_bytes pk)) clients

let ack a ~self ~src msg =
  if peerreview a && src < Bitmap.max_replicas then begin
    Obs.incr a.c_sigs_verified;
    match msg with
    | Wire.Ack_msg _ -> None
    | _ ->
        let digest = D.of_string (Wire.describe msg) in
        let signature = schnorr_sign a ~cls:"peerreview_ack" (D.to_raw digest) in
        Some (Wire.Ack_msg { a_replica = self; a_digest = digest; a_signature = signature })
  end
  else None
