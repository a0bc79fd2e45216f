module Codec = Iaccf_util.Codec
module Schnorr = Iaccf_crypto.Schnorr
module Sigcheck = Iaccf_crypto.Sigcheck
module D = Iaccf_crypto.Digest32

type t = {
  proc : string;
  args : string;
  client_pk : Schnorr.public_key;
  service : D.t;
  min_index : int;
  client_seqno : int;
  signature : string;
  digest : D.t;
}

let signing_payload ~proc ~args ~client_pk ~service ~min_index ~client_seqno =
  D.of_string
    (Codec.encode (fun w ->
         Codec.W.raw w "iaccf-request";
         Codec.W.bytes w proc;
         Codec.W.bytes w args;
         Codec.W.bytes w (Schnorr.public_key_to_bytes client_pk);
         Codec.W.raw w (D.to_raw service);
         Codec.W.u64 w min_index;
         Codec.W.u64 w client_seqno))

(* The wire form: every field but the digest, which is a function of it. *)
let encode w t =
  Codec.W.bytes w t.proc;
  Codec.W.bytes w t.args;
  Codec.W.bytes w (Schnorr.public_key_to_bytes t.client_pk);
  Codec.W.raw w (D.to_raw t.service);
  Codec.W.u64 w t.min_index;
  Codec.W.u64 w t.client_seqno;
  Codec.W.bytes w t.signature

let serialize t = Codec.encode (fun w -> encode w t)

(* The only place a request is built: its digest is hashed here, once. *)
let of_fields ~client_pk ~service ?(min_index = 0) ?(client_seqno = 0) ?(signature = "")
    ~proc ~args () =
  let t =
    { proc; args; client_pk; service; min_index; client_seqno; signature; digest = D.zero }
  in
  { t with digest = D.of_string (serialize t) }

let make ~sk ~client_pk ~service ?(min_index = 0) ?(client_seqno = 0) ~proc ~args () =
  let payload =
    signing_payload ~proc ~args ~client_pk ~service ~min_index ~client_seqno
  in
  of_fields ~client_pk ~service ~min_index ~client_seqno
    ~signature:(Schnorr.sign sk (D.to_raw payload))
    ~proc ~args ()

let signed_digest t =
  signing_payload ~proc:t.proc ~args:t.args ~client_pk:t.client_pk ~service:t.service
    ~min_index:t.min_index ~client_seqno:t.client_seqno

type check = Schnorr.public_key -> D.t -> signature:string -> bool

let sigcheck sigs pk d ~signature = Sigcheck.verify sigs pk (D.to_raw d) ~signature

let verify ~check t ~service =
  D.equal t.service service && check t.client_pk (signed_digest t) ~signature:t.signature

let decode r =
  let proc = Codec.R.bytes r in
  let args = Codec.R.bytes r in
  let client_pk =
    match Schnorr.public_key_of_bytes (Codec.R.bytes r) with
    | Some pk -> pk
    | None -> raise (Codec.Decode_error "invalid client public key")
  in
  let service = D.of_raw (Codec.R.raw r 32) in
  let min_index = Codec.R.u64 r in
  let client_seqno = Codec.R.u64 r in
  let signature = Codec.R.bytes r in
  of_fields ~client_pk ~service ~min_index ~client_seqno ~signature ~proc ~args ()

let deserialize s = Codec.decode s decode
let hash t = t.digest
let is_governance t = String.starts_with ~prefix:"gov/" t.proc
let may_execute_at t ~index = t.min_index <= index

(* Causal trace id: content-derived (a hash prefix), so every hop that
   holds the request — client, primary, backups — recovers the same id
   without any wire-format change. Collisions would need two distinct
   requests sharing 48 bits of SHA-256, which the trace tests bound. *)
let trace_id t = String.sub (D.to_hex (hash t)) 0 12
