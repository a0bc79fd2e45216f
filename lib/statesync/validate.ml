module Entry = Iaccf_ledger.Entry
module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module Tree = Iaccf_merkle.Tree
module D = Iaccf_crypto.Digest32

(* Dry-run of the replica's checkpoint-bootstrap adoption (the
   [skip_exec_upto] path of state transfer): walk the candidate suffix
   batch by batch, advancing a PRIVATE copy of the ledger tree M, and check
   exactly what the destructive path would check — sequence-number
   continuity, the signed [m_root] chain over evidence and protocol
   entries, each batch's [g_root] over its recorded transactions, and the
   primary signature on checkpoint batches. Validation stops at the first
   batch past the checkpoint (those are re-executed, and re-execution is
   batch-atomic on its own), so a suffix that passes here cannot make the
   real skip-region adoption fail halfway with entries already appended. *)

let check_suffix ~tree ~next_seqno ~cp_seqno ~verify_pp entries =
  let push e = if Entry.in_merkle_tree e then Tree.append tree (Entry.leaf_digest e) in
  let rec go expected = function
    | [] ->
        if expected <= cp_seqno then
          Error
            (Printf.sprintf "suffix ends at batch %d, before the checkpoint at %d"
               (expected - 1) cp_seqno)
        else Ok ()
    | Entry.Malformed m :: _ -> Error m
    | Entry.Protocol e :: rest ->
        push e;
        go expected rest
    | Entry.Batch { pp; _ } :: _ when pp.Message.seqno > cp_seqno -> Ok ()
    | Entry.Batch { evidence; pp; txs } :: rest ->
        let s = pp.Message.seqno in
        let signed () =
          match pp.Message.kind with
          | Batch.Checkpoint _ -> verify_pp pp
          | Batch.Regular | Batch.End_of_config _ | Batch.Start_of_config _ -> true
        in
        if s <> expected then
          Error (Printf.sprintf "batch %d out of order (expected %d)" s expected)
        else if not (signed ()) then
          Error (Printf.sprintf "checkpoint batch %d: bad primary signature" s)
        else begin
          List.iter push evidence;
          if not (D.equal (Tree.root tree) pp.Message.m_root) then
            Error
              (Printf.sprintf "batch %d: ledger root diverges from the signed m_root" s)
          else if not (D.equal (Batch.g_root txs) pp.Message.g_root) then
            Error
              (Printf.sprintf
                 "batch %d: transactions do not reproduce the signed g_root" s)
          else begin
            push (Entry.Pre_prepare pp);
            List.iter (fun tx -> push (Entry.Tx tx)) txs;
            go (s + 1) rest
          end
        end
  in
  go next_seqno (Entry.batches entries)
