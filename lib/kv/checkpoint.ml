module D = Iaccf_crypto.Digest32
module Sha256 = Iaccf_crypto.Sha256
module Codec = Iaccf_util.Codec

type t = { seqno : int; state : string State.t }

let make ~seqno state = { seqno; state }

(* Hashed bytes: [u64 seqno] then each binding in key order as
   [u32 len ‖ key ‖ u32 len ‖ value], the encoding {!serialize} uses.
   They stream through one buffer that is fed to SHA-256 whenever it
   passes [chunk_bytes]. *)
let chunk_bytes = 4096

let digest t =
  let ctx = Sha256.init () in
  let buf = Buffer.create (2 * chunk_bytes) in
  let add s =
    Buffer.add_int32_be buf (Int32.of_int (String.length s));
    Buffer.add_string buf s
  in
  Buffer.add_int64_be buf (Int64.of_int t.seqno);
  State.iter
    (fun k v ->
      add k;
      add v;
      if Buffer.length buf >= chunk_bytes then begin
        Sha256.feed ctx (Buffer.contents buf);
        Buffer.clear buf
      end)
    t.state;
  Sha256.feed ctx (Buffer.contents buf);
  D.of_raw (Sha256.finalize ctx)

let serialize t =
  Codec.encode (fun w ->
      Codec.W.u64 w t.seqno;
      Codec.W.u32 w (State.cardinal t.state);
      State.iter
        (fun k v ->
          Codec.W.bytes w k;
          Codec.W.bytes w v)
        t.state)

let deserialize s =
  Codec.decode s (fun r ->
      let seqno = Codec.R.u64 r in
      let entries =
        Codec.R.list r (fun r ->
            let k = Codec.R.bytes r in
            let v = Codec.R.bytes r in
            (k, v))
      in
      { seqno; state = State.of_list entries })

let genesis = { seqno = 0; state = State.empty }
