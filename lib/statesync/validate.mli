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
  vc_set:(Iaccf_types.Message.view_change list -> bool) ->
  new_view:(Iaccf_types.Message.view_change list -> Iaccf_types.Message.new_view -> bool) ->
  Iaccf_ledger.Entry.t list ->
  (unit, string) result
(** [check_suffix ~tree ~next_seqno ~cp_seqno ~verify_pp ~vc_set ~new_view
    entries] walks [entries] (the ledger contents from the caller's
    current length onward) batch by batch, mutating [tree] — pass a copy.
    Batches up to and including [cp_seqno] must be contiguous from
    [next_seqno], reproduce the signed [m_root] chain and per-batch
    [g_root], put no transaction below its minimum index, and carry a
    valid primary signature on checkpoint batches ([verify_pp]). Each
    view-change set must pass [vc_set] (a quorum of valid view changes);
    each new view must directly follow a set, bind the tree up to it and
    pass [new_view set nv] (it names the set and is signed).
    Batches past [cp_seqno] are not inspected: the installer re-executes
    those, and execution is batch-atomic on its own. [Error] if the
    suffix is malformed, diverges, or ends before sealing [cp_seqno]. *)
