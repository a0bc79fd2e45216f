module Entry = Iaccf_ledger.Entry
module Checkpoint = Iaccf_kv.Checkpoint
module D = Iaccf_crypto.Digest32
module Sha256 = Iaccf_crypto.Sha256
module Obs = Iaccf_obs.Obs
module Worker = Iaccf_util.Worker

type t = {
  metrics : Metrics.t;
  obs : Obs.t;
  node : int;
  interval : int;  (* C: a checkpoint every C batches *)
  snapshot_interval : int;  (* 0: no snapshot files *)
  dir : string option;  (* where snapshot files live *)
  taken : (int, Checkpoint.t * D.t Worker.pending) Hashtbl.t;
      (* cp_seqno -> checkpoint, digest (computed on the background worker) *)
  mutable latest : int;  (* the latest checkpoint taken *)
  sealed : (int, D.t) Hashtbl.t;  (* cp_seqno -> sealed digest *)
  sealed_at : (int, int) Hashtbl.t;  (* cp_seqno -> seqno of the sealing batch *)
  mutable cache : (int * string) option;  (* the last snapshot served *)
}

let create ~metrics ~obs ~node ~interval ~snapshot_interval ~dir =
  { metrics; obs; node; interval; snapshot_interval; dir; taken = Hashtbl.create 8; latest = 0;
    sealed = Hashtbl.create 8; sealed_at = Hashtbl.create 8; cache = None }

(* The digest's first reader is the checkpoint batch C batches later, so
   it is hashed off the event loop; its compressions count here all the
   same, read or not. *)
let take t cp =
  let s = cp.Checkpoint.seqno in
  let digest = Worker.submit (Sha256.count_here (fun () -> Checkpoint.digest cp)) in
  Hashtbl.replace t.taken s (cp, digest);
  t.latest <- s

let adopt t cp digest =
  let s = cp.Checkpoint.seqno in
  Hashtbl.replace t.taken s (cp, Worker.ready digest);
  t.latest <- max t.latest s

let latest t = t.latest
let checkpoint t s = Option.map fst (Hashtbl.find_opt t.taken s)
let digest t s = Option.map (fun (_, d) -> Worker.await d) (Hashtbl.find_opt t.taken s)

(* Keep recent checkpoints only; old rollback snapshots are not needed
   once well below the committed prefix. *)
let retain t =
  let keep_from = t.latest - (3 * t.interval) in
  Hashtbl.filter_map_inplace
    (fun s c -> if s < keep_from && s <> 0 then None else Some c)
    t.taken

(* Checkpoints taken while executing a rolled-back suffix are speculative:
   keeping them leaves [latest] pointing past the committed prefix, and
   the next checkpoint-interval batch would seal a snapshot that peers
   which never executed the suffix cannot validate (the schedule pins
   cp_seqno = latest on both sides) — no quorum ever forms and the
   view-change backoff turns the boundary into a livelock. Drop them;
   re-execution retakes them. *)
let rollback t ~target =
  Hashtbl.filter_map_inplace (fun s c -> if s > target then None else Some c) t.taken;
  if t.latest > target then t.latest <- Hashtbl.fold (fun s _ acc -> max s acc) t.taken 0

(* Persist the checkpoint whose digest just got sealed, so a restart
   (ours) or a lagging peer (theirs) can start from it instead of
   genesis. *)
let write_snapshot t cp_seqno cp_digest =
  match (t.dir, Hashtbl.find_opt t.taken cp_seqno) with
  | Some dir, Some (cp, d)
    when t.snapshot_interval > 0
         && cp_seqno mod t.snapshot_interval = 0
         && D.equal (Worker.await d) cp_digest -> (
      try
        let bytes = Snapshot.write ~dir cp in
        Snapshot.retain ~dir ~keep:2;
        Obs.incr t.metrics.Metrics.snapshots_written;
        Obs.instant t.obs ~node:t.node ~cat:"statesync" ~name:"statesync.snapshot_write"
          ~args:[ ("cp_seqno", string_of_int cp_seqno); ("bytes", string_of_int bytes) ]
          ()
      with Unix.Unix_error _ | Sys_error _ -> ())
  | _ -> ()

let seal t ~cp_seqno ~cp_digest ~seal_seqno ~persist =
  (* Always refresh the seal position: a view change may have rolled the
     original sealing batch back, and a later batch re-sealed the same
     digest at a different seqno. *)
  Hashtbl.replace t.sealed_at cp_seqno seal_seqno;
  match Hashtbl.find_opt t.sealed cp_seqno with
  | Some d when D.equal d cp_digest -> ()
  | _ ->
      Hashtbl.replace t.sealed cp_seqno cp_digest;
      if persist then write_snapshot t cp_seqno cp_digest

let restore_point t ~verify_pp entries =
  let trusted cp_seqno =
    match Snapshot.sealing_batch ~cp_seqno entries with
    | Some (pp, digest) when verify_pp pp -> Some digest
    | _ -> None
  in
  Option.bind t.dir (fun dir -> Snapshot.newest ~dir ~trusted)

let prune_point t ~batch_end =
  let trusted cp_seqno =
    if batch_end cp_seqno = None then None else Hashtbl.find_opt t.sealed cp_seqno
  in
  match Option.bind t.dir (fun dir -> Snapshot.newest ~dir ~trusted) with
  | Some (cp, _) -> batch_end cp.Checkpoint.seqno
  | None -> None

type ledger = { served : int; entry : int -> Entry.t; batch_end : int -> int option }

(* Per-message payload budget for snapshot chunks and ledger extents. *)
let chunk_bytes = 64 * 1024

type reply = Offer of { cp_seqno : int; total : int; bytes : int } | Extent of Entry.t list

(* The serialized snapshot for a sealed checkpoint: from the retained
   checkpoint, or re-read from the durable snapshot file. Either way the
   bytes must reproduce the sealed digest before they are served. *)
let snapshot t cp_seqno =
  match Hashtbl.find_opt t.sealed cp_seqno with
  | None -> None
  | Some digest -> (
      match t.cache with
      | Some (s, data) when s = cp_seqno -> Some data
      | _ ->
          let data =
            match Hashtbl.find_opt t.taken cp_seqno with
            | Some (cp, d) when D.equal (Worker.await d) digest -> Some (Checkpoint.serialize cp)
            | _ ->
                Option.bind t.dir (fun dir ->
                    Option.map snd (Snapshot.load ~dir cp_seqno ~digest))
          in
          Option.iter (fun d -> t.cache <- Some (cp_seqno, d)) data;
          data)

(* The newest sealed checkpoint we can serve the bytes for, with the
   ledger length its batch ends at. A seal is only usable by a peer while
   the sealing batch sits inside the served prefix: a view change can roll
   it out of the ledger, leaving the checkpoint sealed for us but
   unprovable to anyone syncing from us until it re-commits. *)
let best_offer t l =
  let in_served_prefix cp_seqno =
    match Option.bind (Hashtbl.find_opt t.sealed_at cp_seqno) l.batch_end with
    | Some seal_end -> seal_end <= l.served
    | None -> false
  in
  Hashtbl.fold (fun s _ acc -> s :: acc) t.sealed []
  |> List.sort (fun a b -> compare b a)
  |> List.find_map (fun cp_seqno ->
         match (snapshot t cp_seqno, l.batch_end cp_seqno) with
         | Some payload, Some cp_end when in_served_prefix cp_seqno ->
             Some (cp_seqno, cp_end, payload)
         | _ -> None)

let extent l ~from_len =
  let rec take i bytes acc =
    if i >= l.served then List.rev acc
    else begin
      let e = l.entry i in
      let sz = Entry.size_bytes e in
      if acc <> [] && bytes + sz > chunk_bytes then List.rev acc
      else take (i + 1) (bytes + sz) (e :: acc)
    end
  in
  take from_len 0 []

let answer t l offer ~from_len ~pruned_upto =
  let offered =
    if from_len < 1 || offer = Session.Never then None
    else
      match best_offer t l with
      | Some (_, cp_end, _) as o
        when Session.should_offer offer ~from_len ~cp_end ~served:l.served ~pruned_upto
               ~interval:t.interval ->
          o
      | _ -> None
  in
  match offered with
  | Some (cp_seqno, _, payload) ->
      Obs.incr t.metrics.Metrics.offers;
      Some
        (Offer
           {
             cp_seqno;
             total = Chunk.count ~chunk_bytes payload;
             bytes = String.length payload;
           })
  | None ->
      if from_len >= 1 && l.served > from_len then Some (Extent (extent l ~from_len))
      else None

let chunk t ~cp_seqno ~index =
  Option.bind (snapshot t cp_seqno) (fun payload ->
      Option.map
        (fun data -> (Chunk.count ~chunk_bytes payload, data))
        (Chunk.nth ~chunk_bytes payload index))
