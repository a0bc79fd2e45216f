(** The install gate: the one check of a ledger extent that a replica
    starting from a checkpoint (§3.4), live from a peer or cold from its
    own disk, adopts without re-executing it. The replica appends
    exactly the extent {!check_suffix} returned, through {!adopt}, with
    no second check. The adoption cannot be undone (it reaches the durable
    store and retires requests), so all of the extent is checked, on a
    copy of M, before any of it is appended. *)

type checked
(** An accepted extent: the batches and view-change entries up to the
    checkpoint, the ledger length they follow, the copy of M they were
    checked against, and the batches past it. *)

val check_suffix :
  ledger:Iaccf_ledger.Ledger.t ->
  next_seqno:int ->
  cp_seqno:int ->
  verify_pp:(Iaccf_types.Message.pre_prepare -> bool) ->
  vc_set:(Iaccf_types.Message.view_change list -> bool) ->
  new_view:(Iaccf_types.Message.view_change list -> Iaccf_types.Message.new_view -> bool) ->
  Iaccf_ledger.Entry.t list ->
  (checked, string) result
(** [check_suffix ~ledger ~next_seqno ~cp_seqno ~verify_pp ~vc_set
    ~new_view entries] walks [entries] (the ledger contents from
    [ledger]'s length onward) batch by batch against a copy of its M,
    leaving [ledger] untouched. Batches up to and including [cp_seqno]
    must be contiguous from [next_seqno], reproduce the signed [m_root]
    chain and per-batch [g_root], put no transaction below its minimum
    index, and carry a valid primary signature on checkpoint batches
    ([verify_pp]). Each view-change set must pass [vc_set] (a quorum of
    valid view changes); each new view must directly follow a set, bind
    the tree up to it and pass [new_view set nv] (it names the set and
    is signed). The extent ends before the first batch past [cp_seqno];
    later batches are not inspected: the replica executes them, and
    execution is batch-atomic on its own. [Error] if the suffix is
    malformed, diverges, or ends before sealing [cp_seqno]. *)

val adopt :
  Iaccf_ledger.Ledger.t -> checked -> (Iaccf_ledger.Entry.item -> upto:int -> unit) ->
  Iaccf_ledger.Entry.item list
(** [adopt ledger c f] appends [c]'s extent to [ledger], with no second
    check and no leaf hashed again ({!Iaccf_ledger.Ledger.append_extent}
    takes the checked copy of M), then calls [f item ~upto] on each item
    in ledger order for its bookkeeping, [upto] being the ledger length
    that ends it. Returns the batches past the checkpoint, for the caller
    to execute.
    @raise Invalid_argument unless [ledger] is at the length [c] was
    checked at. *)
