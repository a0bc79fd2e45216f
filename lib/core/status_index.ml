type t = {
  pipeline : int;
  committed_views : (int, int) Hashtbl.t; (* seqno -> view at local commit *)
  stable_views : (int, int) Hashtbl.t; (* append-only: seqno -> final view *)
  mutable stable_upto : int; (* highest stabilized seqno *)
  mutable hw_seqno : int; (* highest seqno ever reached *)
  tx_writes : (int, (string * Iaccf_kv.Store.write) list array) Hashtbl.t;
  key_writer : (string, int * int) Hashtbl.t; (* key -> seqno, tx position *)
}

let create ~pipeline =
  {
    pipeline;
    committed_views = Hashtbl.create 64;
    stable_views = Hashtbl.create 64;
    stable_upto = 0;
    hw_seqno = 0;
    tx_writes = Hashtbl.create 64;
    key_writer = Hashtbl.create 64;
  }

let record_writes t ~seqno writes =
  Hashtbl.replace t.tx_writes seqno (Array.of_list writes)

let reached t seqno = if seqno > t.hw_seqno then t.hw_seqno <- seqno

let commit t ~seqno ~view ~index_writes ~last_committed =
  Hashtbl.replace t.committed_views seqno view;
  (* Commits arrive in ascending seqno order, so plain replace gives
     last-writer-wins. *)
  (if index_writes then
     match Hashtbl.find_opt t.tx_writes seqno with
     | None -> ()
     | Some arr ->
         Array.iteri
           (fun i ws ->
             List.iter (fun (k, _) -> Hashtbl.replace t.key_writer k (seqno, i)) ws)
           arr);
  (* Entries are never removed: stability is rollback-proof, so a
     COMMITTED or INVALID answer derived from it can never flip. *)
  while t.stable_upto < last_committed - t.pipeline do
    let s = t.stable_upto + 1 in
    Option.iter (Hashtbl.replace t.stable_views s) (Hashtbl.find_opt t.committed_views s);
    t.stable_upto <- s
  done

let status t ~view ~seqno =
  if seqno <= 0 then Status.Invalid
  else
    match Hashtbl.find_opt t.stable_views seqno with
    | Some v -> if v = view then Status.Committed else Status.Invalid
    | None ->
        (* Not yet stable: a locally committed batch inside the last
           pipeline window could still be rolled back and re-proposed in a
           higher view, so only non-terminal answers are safe. A seqno the
           replica holds a batch record for is below its next seqno, which
           it marks reached before asking, so [hw_seqno] covers it. *)
        if seqno <= t.stable_upto || seqno <= t.hw_seqno then
          Status.Pending
        else Status.Unknown

let stable_upto t = t.stable_upto
let last_write t key = Hashtbl.find_opt t.key_writer key

let write_set t ~seqno ~tx_position =
  match Hashtbl.find_opt t.tx_writes seqno with
  | Some arr when tx_position >= 0 && tx_position < Array.length arr ->
      Some arr.(tx_position)
  | _ -> None
