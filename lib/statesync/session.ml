module Entry = Iaccf_ledger.Entry
module Message = Iaccf_types.Message
module Checkpoint = Iaccf_kv.Checkpoint
module D = Iaccf_crypto.Digest32
module Obs = Iaccf_obs.Obs

type offer = Never | If_far | Always

let offer_to_string = function
  | Never -> "never"
  | If_far -> "if-far"
  | Always -> "always"

let should_offer offer ~from_len ~cp_end ~served ~pruned_upto ~interval =
  match offer with
  | Never -> false
  | Always -> true
  | If_far ->
      from_len < cp_end
      && (from_len < pruned_upto || served - from_len >= 2 * interval)

type hooks = {
  verify_pp : Message.pre_prepare -> bool;
  check_suffix : cp_seqno:int -> Entry.t list -> (Validate.checked, string) result;
  peers : unit -> int list;
}

type install = {
  cp : Checkpoint.t;
  digest : D.t;
  extent : Validate.checked;
  seal_seqno : int;
  peer : int;
  upto : int;
  view : int;
  suffix_from : int;
  started : float;
}

type action =
  | Request_chunks of { peer : int; cp_seqno : int; indices : int list }
  | Request_suffix of { peer : int; from_len : int }
  | Retarget of int
  | Install of install

(* One in-flight catch-up: (snapshot @ cp_seqno) arriving as chunks from
   [peer], plus the ledger suffix buffered from [suffix_from] onward. *)
type session = {
  hooks : hooks;
  peer : int;
  cp_seqno : int;
  asm : Chunk.asm;
  mutable next_chunk : int;  (* lowest chunk index never yet requested *)
  mutable upto : int;  (* peer-advertised safe ledger length *)
  mutable view : int;  (* highest view the peer reported *)
  suffix_from : int;  (* our ledger length when the session began *)
  mutable suffix_rev : Entry.t list;
  mutable suffix_end : int;  (* suffix_from + buffered entries *)
  mutable progress : int;  (* bumped on every accepted chunk / extent *)
  mutable marker : int;  (* [progress] at the last liveness tick *)
  mutable stalls : int;
  started : float;
}

type t = {
  obs : Obs.t;
  node : int;
  metrics : Metrics.t;
  mutable current : session option;
}

let create ~obs ~node ~metrics = { obs; node; metrics; current = None }
let syncing t = Option.is_some t.current

let instant t name args =
  if Obs.tracing_enabled t.obs then
    Obs.instant t.obs ~node:t.node ~cat:"statesync" ~name ~args ()

(* Up to [window] never-yet-requested chunk indices, advancing the cursor;
   retries come from the assembler's missing set instead. *)
let request_chunks s ~window =
  let first = s.next_chunk in
  if not (Chunk.complete s.asm) then
    s.next_chunk <- min (Chunk.total s.asm) (first + window);
  let indices = List.init (s.next_chunk - first) (fun k -> first + k) in
  Request_chunks { peer = s.peer; cp_seqno = s.cp_seqno; indices }

let request_suffix s = Request_suffix { peer = s.peer; from_len = s.suffix_end }

(* Abandon the session (stall or failed verification) and restart the
   catch-up against the next replica, so one bad or dead peer cannot park
   us forever. *)
let abort t s ~verify_failed reason =
  if verify_failed then Obs.incr t.metrics.Metrics.verify_fail;
  instant t "statesync.abort" [ ("peer", string_of_int s.peer); ("reason", reason) ];
  t.current <- None;
  let others = List.filter (fun r -> r <> s.peer) (s.hooks.peers ()) in
  match List.find_opt (fun r -> r > s.peer) (List.sort compare others) with
  | Some r -> [ Retarget r ]
  | None -> ( match others with r :: _ -> [ Retarget r ] | [] -> [])

(* The install gate, in order: the snapshot is assembled; the buffered
   suffix reaches a checkpoint batch for the offered seqno; the bytes
   decode to that checkpoint and reproduce the digest the batch seals;
   the batch is properly signed; and the one extent check
   (Validate.check_suffix) confirms the suffix chains from the caller's
   committed prefix through the checkpoint. Only then is the caller told
   to install what that check returned. *)
let try_install t s =
  match Chunk.assembled s.asm with
  | None -> []
  | Some payload -> (
      let fail reason = abort t s ~verify_failed:true reason in
      let entries = List.rev s.suffix_rev in
      match Snapshot.sealing_batch ~cp_seqno:s.cp_seqno entries with
      | None ->
          (* The sealing batch is past the buffered suffix; wait unless the
             peer claims we already have everything. *)
          if s.suffix_end >= s.upto then
            fail "suffix exhausted without a sealing checkpoint batch"
          else []
      | Some (seal_pp, sealed_digest) -> (
          match Checkpoint.deserialize payload with
          | exception Iaccf_util.Codec.Decode_error _ ->
              fail "snapshot bytes do not decode"
          | cp when cp.Checkpoint.seqno <> s.cp_seqno ->
              fail "snapshot is for a different checkpoint"
          | cp -> (
              let digest = Checkpoint.digest cp in
              if not (D.equal digest sealed_digest) then
                fail "snapshot digest does not match the sealed digest"
              else if not (s.hooks.verify_pp seal_pp) then
                fail "sealing checkpoint batch is not properly signed"
              else
                match s.hooks.check_suffix ~cp_seqno:s.cp_seqno entries with
                | Error reason -> fail reason
                | Ok extent ->
                    t.current <- None;
                    [
                      Install
                        {
                          cp;
                          digest;
                          extent;
                          seal_seqno = seal_pp.Message.seqno;
                          peer = s.peer;
                          upto = s.upto;
                          view = s.view;
                          suffix_from = s.suffix_from;
                          started = s.started;
                        };
                    ])))

let on_offer t hooks ~src ~cp_seqno ~total ~bytes ~upto ~view ~last_committed ~rollback =
  if
    Option.is_none t.current
    && cp_seqno > last_committed
    && total >= 1 && total <= 65536
    && bytes >= 0
    && bytes <= 64 * 1024 * 1024
  then begin
    let suffix_from = rollback () in
    let s =
      {
        hooks;
        peer = src;
        cp_seqno;
        asm = Chunk.create ~total ~bytes;
        next_chunk = 0;
        upto;
        view;
        suffix_from;
        suffix_rev = [];
        suffix_end = suffix_from;
        progress = 0;
        marker = 0;
        stalls = 0;
        started = Obs.now t.obs;
      }
    in
    t.current <- Some s;
    instant t "statesync.accept"
      [
        ("peer", string_of_int src);
        ("cp_seqno", string_of_int cp_seqno);
        ("chunks", string_of_int total);
      ];
    [ request_chunks s ~window:4; request_suffix s ]
  end
  else []

let on_chunk t ~src ~cp_seqno ~index data =
  match t.current with
  | Some s when s.peer = src && s.cp_seqno = cp_seqno -> (
      match Chunk.add s.asm ~index data with
      | `Added ->
          s.progress <- s.progress + 1;
          Obs.incr t.metrics.Metrics.chunks;
          Obs.add t.metrics.Metrics.bytes (String.length data);
          request_chunks s ~window:1 :: try_install t s
      | `Duplicate | `Invalid -> [])
  | _ -> []

(* Suffix extents are only accepted when they extend the buffer exactly:
   anything else (gap, replay) is dropped and re-requested. *)
let on_suffix t ~src ~from entries ~upto ~view =
  match t.current with
  | Some s when s.peer = src ->
      if from <> s.suffix_end || entries = [] then Some []
      else begin
        List.iter (fun e -> s.suffix_rev <- e :: s.suffix_rev) entries;
        s.suffix_end <- s.suffix_end + List.length entries;
        if upto > s.upto then s.upto <- upto;
        if view > s.view then s.view <- view;
        s.progress <- s.progress + 1;
        let more = if s.suffix_end < s.upto then [ request_suffix s ] else [] in
        Some (more @ try_install t s)
      end
  | _ -> None

let tick t =
  match t.current with
  | None -> []
  | Some s ->
      if s.progress <> s.marker then begin
        s.marker <- s.progress;
        s.stalls <- 0
      end
      else s.stalls <- s.stalls + 1;
      if s.stalls >= 2 then abort t s ~verify_failed:false "peer stalled"
      else if s.stalls = 1 then
        [
          Request_chunks
            {
              peer = s.peer;
              cp_seqno = s.cp_seqno;
              indices = List.filteri (fun k _ -> k < 4) (Chunk.missing s.asm);
            };
          request_suffix s;
        ]
      else []
