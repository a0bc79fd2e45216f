(* Critical-path reconstruction: given one run's trace events, attribute
   each completed request's end-to-end latency to protocol segments. The
   simulator's compute is instantaneous in virtual time, so these
   segments measure queueing, batching, and the network round trips the
   protocol demands; wall-clock crypto/apply cost lives in the crypto
   profiler (Iaccf_crypto.Profile) and overlays this breakdown.

   Anchors, all written by the emitters below:
     - client "request"/"e2e" span begin/end (id = request trace id)
     - replica "request.batched" instant, emitted when the primary packs
       the request into a batch (args carry the seqno)
     - primary "batch"/"phase.prepare" span end (prepare quorum reached)
     - "batch.committed" instant (earliest across replicas)
     - client "receipt.issued" instant (args carry the final seqno)

   Segments, in causal order:
     queue   submit -> batched      request propagation + primary queueing
     prepare batched -> prepared    pre-prepare fan-out + prepare quorum
     commit  prepared -> committed  nonce reveal round
     reply   committed -> receipt   replies + receipt assembly at client *)

(* ------------------------------------------------------------------ *)
(* Emitters: the only writers of the anchors [of_events] reads. Each    *)
(* checks tracing before it builds its arguments, so an id is passed   *)
(* lazily (a request's trace id hashes the request).                   *)

(* The client's "e2e" span, opened when a request is submitted. *)
let request_submitted obs ~node ~id ~proc =
  if Obs.tracing_enabled obs then
    Obs.span_begin obs ~node ~cat:"request" ~name:"e2e" ~id:(Lazy.force id)
      ~args:[ ("proc", proc) ]
      ()

let commit_mark seqno = Printf.sprintf "commit:%d" seqno

(* The client holds a verified receipt from batch [seqno]: its latency
   from the batch's first commit goes to [h]. *)
let receipt_issued obs h ~node ~id ~seqno =
  Option.iter
    (fun t_commit -> Obs.Histogram.observe h (Obs.now obs -. t_commit))
    (Obs.mark_lookup obs (commit_mark seqno));
  if Obs.tracing_enabled obs then begin
    let id = Lazy.force id in
    Obs.instant obs ~node ~cat:"request" ~name:"receipt.issued" ~id
      ~args:[ ("seqno", string_of_int seqno) ]
      ();
    Obs.span_end obs ~node ~cat:"request" ~name:"e2e" ~id ()
  end

(* Bridges the two flow identities: request flows are keyed by trace id,
   batch phases by seqno. The primary, where batching happens, hands each
   request it packs into batch [seqno] off to that batch. *)
let batched obs ~node ~seqno trace_id reqs =
  if Obs.tracing_enabled obs then
    List.iter
      (fun r ->
        Obs.instant obs ~node ~cat:"request" ~name:"request.batched" ~id:(trace_id r)
          ~args:[ ("seqno", string_of_int seqno) ]
          ())
      reqs

(* One replica's batch spans (cat "batch", id = seqno) and the phase
   latency histograms. The outer "consensus" span covers pre-prepare
   acceptance to commit; "phase.prepare" / "phase.commit" nest inside it.
   Every begin gets an end: commit, or a cancelled end when a view change
   rolls the batch back. *)
type recorder = {
  obs : Obs.t;
  node : int;
  (* Shared across the registry: the primary of each batch is the only
     observer, so every batch is counted exactly once cluster-wide. *)
  h_pp_to_prepared : Obs.Histogram.h;
  h_pp_to_commit : Obs.Histogram.h;
  h_prepared_to_commit : Obs.Histogram.h;
}

let recorder obs ~node =
  {
    obs;
    node;
    h_pp_to_prepared = Obs.histogram obs "lat.preprepare_to_prepared_ms";
    h_pp_to_commit = Obs.histogram obs "lat.preprepare_to_commit_ms";
    h_prepared_to_commit = Obs.histogram obs "lat.prepared_to_commit_ms";
  }

(* A batch's phase clock at one replica (virtual-clock stamps). [primary]:
   this replica proposed the batch, and so observes its latencies. *)
type batch = { seqno : int; primary : bool; mutable t_pp : float; mutable t_prepared : float }

let batch ~seqno ~primary = { seqno; primary; t_pp = 0.0; t_prepared = 0.0 }

let batch_begin r b ~view ~txs =
  b.t_pp <- Obs.now r.obs;
  if Obs.tracing_enabled r.obs then begin
    let id = string_of_int b.seqno in
    Obs.span_begin r.obs ~node:r.node ~cat:"batch" ~name:"consensus" ~id
      ~args:[ ("view", string_of_int view); ("txs", string_of_int txs) ]
      ();
    Obs.span_begin r.obs ~node:r.node ~cat:"batch" ~name:"phase.prepare" ~id ()
  end

let batch_prepared r b =
  b.t_prepared <- Obs.now r.obs;
  if b.primary then Obs.Histogram.observe r.h_pp_to_prepared (b.t_prepared -. b.t_pp);
  if Obs.tracing_enabled r.obs then begin
    let id = string_of_int b.seqno in
    Obs.span_end r.obs ~node:r.node ~cat:"batch" ~name:"phase.prepare" ~id ();
    Obs.span_begin r.obs ~node:r.node ~cat:"batch" ~name:"phase.commit" ~id ()
  end

let batch_committed r b ~txs ~governance =
  let now = Obs.now r.obs in
  (* First committer cluster-wide stamps the mark; clients measure their
     commit-to-receipt latency against it ([receipt_issued]). *)
  Obs.mark r.obs (commit_mark b.seqno);
  if b.primary then begin
    Obs.Histogram.observe r.h_pp_to_commit (now -. b.t_pp);
    Obs.Histogram.observe r.h_prepared_to_commit (now -. b.t_prepared)
  end;
  if Obs.tracing_enabled r.obs then begin
    let id = string_of_int b.seqno in
    Obs.span_end r.obs ~node:r.node ~cat:"batch" ~name:"phase.commit" ~id ();
    Obs.span_end r.obs ~node:r.node ~cat:"batch" ~name:"consensus" ~id ();
    Obs.instant r.obs ~node:r.node ~cat:"batch" ~name:"batch.committed" ~id
      ~args:[ ("txs", string_of_int txs) ]
      ();
    if Lazy.force governance then
      Obs.instant r.obs ~node:r.node ~cat:"gov" ~name:"gov.batch" ~id ()
  end

(* [prepared]: which phase span is open. *)
let batch_cancelled r b ~prepared =
  if Obs.tracing_enabled r.obs then begin
    let id = string_of_int b.seqno in
    let args = [ ("cancelled", "true") ] in
    Obs.span_end r.obs ~node:r.node ~cat:"batch"
      ~name:(if prepared then "phase.commit" else "phase.prepare")
      ~id ~args ();
    Obs.span_end r.obs ~node:r.node ~cat:"batch" ~name:"consensus" ~id ~args ()
  end

(* ------------------------------------------------------------------ *)
(* Reconstruction                                                      *)

type segments = {
  cp_id : string; (* request trace id *)
  cp_seqno : int; (* batch that finally carried it *)
  cp_submit_ms : float;
  cp_queue_ms : float;
  cp_prepare_ms : float;
  cp_commit_ms : float;
  cp_reply_ms : float;
  cp_total_ms : float;
}

let segment_names = [ "queue"; "prepare"; "commit"; "reply" ]

let seg_value s = function
  | "queue" -> s.cp_queue_ms
  | "prepare" -> s.cp_prepare_ms
  | "commit" -> s.cp_commit_ms
  | "reply" -> s.cp_reply_ms
  | _ -> 0.0

let of_events events =
  let e2e_begin = Hashtbl.create 64 in
  let e2e_end = Hashtbl.create 64 in
  let receipt_seqno = Hashtbl.create 64 in
  (* id -> (ts, node, seqno), last wins: a rolled-back batch re-proposes
     the request, and the receipt is bound to the final proposal. *)
  let batched = Hashtbl.create 64 in
  let prepared = Hashtbl.create 64 in (* (node, seqno id) -> last good ts *)
  let committed = Hashtbl.create 64 in (* seqno id -> earliest ts *)
  List.iter
    (fun (e : Obs.event) ->
      match (e.Obs.ev_ph, e.Obs.ev_cat, e.Obs.ev_name) with
      | Obs.Span_begin, "request", "e2e" ->
          if not (Hashtbl.mem e2e_begin e.Obs.ev_id) then
            Hashtbl.replace e2e_begin e.Obs.ev_id e.Obs.ev_ts
      | Obs.Span_end, "request", "e2e" ->
          Hashtbl.replace e2e_end e.Obs.ev_id e.Obs.ev_ts
      | Obs.Instant, "request", "receipt.issued" -> (
          match List.assoc_opt "seqno" e.Obs.ev_args with
          | Some s -> Hashtbl.replace receipt_seqno e.Obs.ev_id s
          | None -> ())
      | Obs.Instant, "request", "request.batched" -> (
          match List.assoc_opt "seqno" e.Obs.ev_args with
          | Some s ->
              Hashtbl.replace batched e.Obs.ev_id (e.Obs.ev_ts, e.Obs.ev_node, s)
          | None -> ())
      | Obs.Span_end, "batch", "phase.prepare" ->
          if not (List.mem_assoc "cancelled" e.Obs.ev_args) then
            Hashtbl.replace prepared (e.Obs.ev_node, e.Obs.ev_id) e.Obs.ev_ts
      | Obs.Instant, "batch", "batch.committed" ->
          if not (Hashtbl.mem committed e.Obs.ev_id) then
            Hashtbl.replace committed e.Obs.ev_id e.Obs.ev_ts
      | _ -> ())
    events;
  let requests =
    Hashtbl.fold (fun id t_end acc -> (id, t_end) :: acc) e2e_end []
    |> List.sort compare
  in
  List.filter_map
    (fun (id, t_end) ->
      match Hashtbl.find_opt e2e_begin id with
      | None -> None
      | Some t_begin ->
          let seqno_str =
            match Hashtbl.find_opt receipt_seqno id with
            | Some s -> Some s
            | None -> (
                match Hashtbl.find_opt batched id with
                | Some (_, _, s) -> Some s
                | None -> None)
          in
          let total = t_end -. t_begin in
          let clamp v = Float.max 0.0 v in
          (match seqno_str with
          | None ->
              (* No batch anchor (tracing raced the run's end): attribute
                 everything to the queue segment rather than dropping. *)
              Some
                {
                  cp_id = id;
                  cp_seqno = -1;
                  cp_submit_ms = t_begin;
                  cp_queue_ms = total;
                  cp_prepare_ms = 0.0;
                  cp_commit_ms = 0.0;
                  cp_reply_ms = 0.0;
                  cp_total_ms = total;
                }
          | Some s ->
              let t_batched, node =
                match Hashtbl.find_opt batched id with
                | Some (ts, node, _) -> (ts, Some node)
                | None -> (t_begin, None)
              in
              let t_committed =
                match Hashtbl.find_opt committed s with
                | Some ts -> ts
                | None -> t_end
              in
              let t_prepared =
                match node with
                | Some n -> (
                    match Hashtbl.find_opt prepared (n, s) with
                    | Some ts -> Float.min ts t_committed
                    | None -> t_committed)
                | None -> t_committed
              in
              Some
                {
                  cp_id = id;
                  cp_seqno = (try int_of_string s with _ -> -1);
                  cp_submit_ms = t_begin;
                  cp_queue_ms = clamp (t_batched -. t_begin);
                  cp_prepare_ms = clamp (t_prepared -. t_batched);
                  cp_commit_ms = clamp (t_committed -. t_prepared);
                  cp_reply_ms = clamp (t_end -. t_committed);
                  cp_total_ms = total;
                }))
    requests

(* (segment, mean, p50, p99) per segment plus the end-to-end total. *)
let summarize segs =
  let stat extract =
    let xs = List.map extract segs in
    let n = List.length xs in
    if n = 0 then (0.0, 0.0, 0.0)
    else
      ( List.fold_left ( +. ) 0.0 xs /. float_of_int n,
        Obs.Histogram.percentile_of_list 0.50 xs,
        Obs.Histogram.percentile_of_list 0.99 xs )
  in
  List.map
    (fun name ->
      let mean, p50, p99 = stat (fun s -> seg_value s name) in
      (name, mean, p50, p99))
    segment_names
  @ [
      (let mean, p50, p99 = stat (fun s -> s.cp_total_ms) in
       ("total", mean, p50, p99));
    ]

let render segs =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "critical path over %d completed requests (virtual ms)\n"
       (List.length segs));
  Buffer.add_string buf
    (Printf.sprintf "  %-9s %9s %9s %9s\n" "segment" "mean" "p50" "p99");
  List.iter
    (fun (name, mean, p50, p99) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-9s %9.2f %9.2f %9.2f\n" name mean p50 p99))
    (summarize segs);
  Buffer.contents buf
