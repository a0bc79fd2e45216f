(** Pre-install validation of a fetched ledger suffix.

    Before a replica destructively adopts (snapshot, suffix) it replays the
    suffix's bookkeeping — never its transactions — against a throwaway
    copy of its ledger tree, checking everything the real skip-region
    adoption would check. A suffix that passes cannot abort the adoption
    halfway; one that fails is rejected with the tree untouched and the
    peer can be re-targeted. *)

val check_suffix :
  tree:Iaccf_merkle.Tree.t ->
  next_seqno:int ->
  cp_seqno:int ->
  verify_pp:(Iaccf_types.Message.pre_prepare -> bool) ->
  Iaccf_ledger.Entry.t list ->
  (unit, string) result
(** [check_suffix ~tree ~next_seqno ~cp_seqno ~verify_pp entries] walks
    [entries] (the ledger contents from the caller's current length
    onward) batch by batch, mutating [tree] — pass a copy. Batches up to
    and including [cp_seqno] must be contiguous from [next_seqno],
    reproduce the signed [m_root] chain and per-batch [g_root], and carry
    a valid primary signature on checkpoint batches ([verify_pp]).
    Batches past [cp_seqno] are not inspected: the installer re-executes
    those, and execution is batch-atomic on its own. [Error] if the
    suffix is malformed, diverges, or ends before sealing [cp_seqno]. *)
