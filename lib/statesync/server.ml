module Entry = Iaccf_ledger.Entry
module Checkpoint = Iaccf_kv.Checkpoint
module D = Iaccf_crypto.Digest32
module Obs = Iaccf_obs.Obs

type t = {
  metrics : Metrics.t;
  sealed : (int, D.t) Hashtbl.t;  (* cp_seqno -> sealed digest *)
  sealed_at : (int, int) Hashtbl.t;  (* cp_seqno -> seqno of the sealing batch *)
  mutable cache : (int * string) option;  (* the last snapshot served *)
}

let create ~metrics =
  { metrics; sealed = Hashtbl.create 8; sealed_at = Hashtbl.create 8; cache = None }

let seal t ~cp_seqno ~cp_digest ~seal_seqno =
  (* Always refresh the seal position: a view change may have rolled the
     original sealing batch back, and a later batch re-sealed the same
     digest at a different seqno. *)
  Hashtbl.replace t.sealed_at cp_seqno seal_seqno;
  match Hashtbl.find_opt t.sealed cp_seqno with
  | Some d when D.equal d cp_digest -> false
  | _ ->
      Hashtbl.replace t.sealed cp_seqno cp_digest;
      true

let sealed t cp_seqno = Hashtbl.find_opt t.sealed cp_seqno

type ledger = {
  served : int;
  entry : int -> Entry.t;
  batch_end : int -> int option;
  retained : int -> (Checkpoint.t * D.t) option;
  dir : string option;
}

(* Per-message payload budget for snapshot chunks and ledger extents. *)
let chunk_bytes = 64 * 1024

type reply = Offer of { cp_seqno : int; total : int; bytes : int } | Extent of Entry.t list

(* The serialized snapshot for a sealed checkpoint: from the retained
   in-memory checkpoint, or re-read from the durable snapshot file. Either
   way the bytes must reproduce the sealed digest before they are served. *)
let snapshot t l cp_seqno =
  match Hashtbl.find_opt t.sealed cp_seqno with
  | None -> None
  | Some digest -> (
      match t.cache with
      | Some (s, data) when s = cp_seqno -> Some data
      | _ ->
          let from_disk dir =
            match Snapshot.load_serialized ~dir cp_seqno with
            | None -> None
            | Some payload -> (
                match Checkpoint.deserialize payload with
                | cp
                  when cp.Checkpoint.seqno = cp_seqno
                       && D.equal (Checkpoint.digest cp) digest ->
                    Some payload
                | _ -> None
                | exception Iaccf_util.Codec.Decode_error _ -> None)
          in
          let data =
            match l.retained cp_seqno with
            | Some (cp, d) when D.equal d digest -> Some (Checkpoint.serialize cp)
            | _ -> Option.bind l.dir from_disk
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
         match (snapshot t l cp_seqno, l.batch_end cp_seqno) with
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

let answer t l offer ~from_len ~pruned_upto ~interval =
  let offered =
    if from_len < 1 || offer = Session.Never then None
    else
      match best_offer t l with
      | Some (_, cp_end, _) as o
        when Session.should_offer offer ~from_len ~cp_end ~served:l.served ~pruned_upto
               ~interval ->
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
             total = Chunk.count ~chunk_bytes:chunk_bytes payload;
             bytes = String.length payload;
           })
  | None ->
      if from_len >= 1 && l.served > from_len then Some (Extent (extent l ~from_len))
      else None

let chunk t l ~cp_seqno ~index =
  match snapshot t l cp_seqno with
  | None -> None
  | Some payload ->
      let chunks = Chunk.split ~chunk_bytes:chunk_bytes payload in
      if index >= 0 && index < List.length chunks then
        Some (List.length chunks, List.nth chunks index)
      else None
