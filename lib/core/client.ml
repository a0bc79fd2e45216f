module Sched = Iaccf_sim.Sched
module Network = Iaccf_sim.Network
module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module Request = Iaccf_types.Request
module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Schnorr = Iaccf_crypto.Schnorr
module D = Iaccf_crypto.Digest32
module Obs = Iaccf_obs.Obs
module Critical_path = Iaccf_obs.Critical_path

type outcome = {
  oc_output : (string, string) result;
  oc_receipt : Receipt.t;
  oc_txid : Status.txid;
  oc_index : int;
  oc_latency_ms : float;
}

type pending = {
  p_req : Request.t;
  p_sent_at : float;
  (* (view, seqno) -> replica -> reply *)
  p_replies : (int * int, (int, Message.reply) Hashtbl.t) Hashtbl.t;
  mutable p_replyx : Message.replyx option;
  mutable p_done : bool;
  mutable p_retries : int;
  p_callback : (outcome -> unit) option;
}

type t = {
  addr : int;
  sk : Schnorr.secret_key;
  pk : Schnorr.public_key;
  service : D.t;
  sched : Sched.t;
  network : Wire.t Network.t;
  chain : Govchain.t;
  verify_receipts : bool;
  sign_requests : bool;
  retry_ms : float;
  obs : Obs.t;
  (* Registry-wide counters (shared by every client on the registry); the
     per-client accessors below read the client's own mutable tallies. *)
  c_submitted : Obs.counter;
  c_completed : Obs.counter;
  c_failed : Obs.counter;
  c_busy : Obs.counter;
  h_e2e : Obs.Histogram.h;
  h_commit_receipt : Obs.Histogram.h;
  mutable next_client_seqno : int;
  mutable min_idx : int;
  pending : (string, pending) Hashtbl.t;
  mutable completed : int;
  mutable failed_verifications : int;
  mutable latencies_rev : float list;
  mutable waiting_gov : bool;
}

let replica_addresses t =
  List.map
    (fun r -> r.Config.replica_id)
    (Govchain.latest_config t.chain).Config.replicas

let public_key t = t.pk
let address t = t.addr
let govchain t = t.chain
let completed t = t.completed
let failed_verifications t = t.failed_verifications
let latencies_ms t = List.rev t.latencies_rev
let in_flight t = Hashtbl.length t.pending
let min_index t = t.min_idx

let sub_tbl tbl key =
  match Hashtbl.find_opt tbl key with
  | Some sub -> sub
  | None ->
      let sub = Hashtbl.create 8 in
      Hashtbl.replace tbl key sub;
      sub

let broadcast t msg =
  List.iter
    (fun dst -> Network.send t.network ~src:t.addr ~dst msg)
    (replica_addresses t)

(* Assemble and verify a receipt from the collected replies (Alg. 3). *)
let try_complete t p =
  if not p.p_done then begin
    match p.p_replyx with
    | None -> ()
    | Some x ->
        let pp = x.Message.x_pp in
        let key = (pp.Message.view, pp.Message.seqno) in
        let replies = sub_tbl p.p_replies key in
        let config = Govchain.config_for_seqno t.chain pp.Message.seqno in
        if pp.Message.gov_index > Govchain.last_gov_index t.chain then begin
          (* Missing governance receipts: fetch before verifying (§5.2). *)
          if not t.waiting_gov then begin
            t.waiting_gov <- true;
            broadcast t
              (Wire.Gov_receipts_request
                 { gr_from_index = Govchain.last_gov_index t.chain })
          end
        end
        else begin
          let quorum = Config.quorum config in
          let backups =
            Hashtbl.fold
              (fun r (reply : Message.reply) acc ->
                if r = pp.Message.primary then acc else (r, reply) :: acc)
              replies []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          if List.length backups >= quorum - 1 then begin
            let chosen = List.filteri (fun i _ -> i < quorum - 1) backups in
            let receipt =
              Receipt.of_replyx x
                (List.map
                   (fun (id, r) -> (id, r.Message.r_signature, r.Message.r_nonce))
                   chosen)
            in
            let verdict =
              if t.verify_receipts then
                Govchain.verify_receipt t.chain receipt
              else Ok ()
            in
            match verdict with
            | Ok () ->
                p.p_done <- true;
                Hashtbl.remove t.pending (D.to_raw (Request.hash p.p_req));
                t.completed <- t.completed + 1;
                Obs.incr t.c_completed;
                let idx = x.Message.x_tx.Batch.index in
                if idx + 1 > t.min_idx then t.min_idx <- idx + 1;
                let latency = Sched.now t.sched -. p.p_sent_at in
                t.latencies_rev <- latency :: t.latencies_rev;
                Obs.Histogram.observe t.h_e2e latency;
                Critical_path.receipt_issued t.obs t.h_commit_receipt ~node:t.addr
                  ~id:(lazy (Request.trace_id p.p_req))
                  ~seqno:pp.Message.seqno;
                let output =
                  App.decode_output x.Message.x_tx.Batch.result.Batch.output
                in
                (match p.p_callback with
                | Some f ->
                    f
                      {
                        oc_output = output;
                        oc_receipt = receipt;
                        oc_txid =
                          {
                            Status.view = pp.Message.view;
                            seqno = pp.Message.seqno;
                          };
                        oc_index = idx;
                        oc_latency_ms = latency;
                      }
                | None -> ())
            | Error _ ->
                (* A reply carried a bad signature: drop the replyx and the
                   offending replies; the retry timer re-requests. *)
                t.failed_verifications <- t.failed_verifications + 1;
                Obs.incr t.c_failed;
                p.p_replyx <- None;
                Hashtbl.remove p.p_replies key
          end
        end
  end

let rec arm_retry t p =
  ignore
    (Sched.schedule t.sched ~delay:t.retry_ms (fun () ->
         if (not p.p_done) && Hashtbl.mem t.pending (D.to_raw (Request.hash p.p_req)) then begin
           p.p_retries <- p.p_retries + 1;
           Obs.incr (Obs.counter t.obs "client.retries");
           (* A reply names a batch, not a request, so buffered replies may
              all belong to other batches of ours: a replyx request alone
              cannot revive a request the replicas never admitted (or
              dropped). Always retransmit the request — replicas dedup by
              hash and resend the reply material if it already executed —
              and, while replies wait for their receipt material,
              additionally ask for it. *)
           if
             p.p_replyx = None
             && Hashtbl.fold (fun _ tbl acc -> acc || Hashtbl.length tbl > 0) p.p_replies false
           then broadcast t (Wire.Replyx_request { rr_tx_hash = Request.hash p.p_req });
           broadcast t (Wire.Request_msg p.p_req);
           try_complete t p;
           arm_retry t p
         end))

let on_message t ~src msg =
  match msg with
  | Wire.Reply_msg reply ->
      Hashtbl.iter
        (fun _ p ->
          if not p.p_done then begin
            let key = (reply.Message.r_view, reply.Message.r_seqno) in
            (* src authenticates the sender in the simulator; the signature
               inside is checked during receipt verification. *)
            if src = reply.Message.r_replica then begin
              Hashtbl.replace (sub_tbl p.p_replies key) reply.Message.r_replica reply;
              try_complete t p
            end
          end)
        t.pending
  | Wire.Replyx_msg x -> (
      let h = D.to_raw (Request.hash x.Message.x_tx.Batch.request) in
      match Hashtbl.find_opt t.pending h with
      | Some p when not p.p_done ->
          p.p_replyx <- Some x;
          try_complete t p
      | _ -> ())
  | Wire.Busy_msg { b_tx_hash; _ } ->
      (* Admission backpressure: the primary shed this request. Count it;
         the standing retry timer is the retransmit path, so the request
         is re-offered on the next tick (by which time the queue has
         drained or the rejection repeats). *)
      (match Hashtbl.find_opt t.pending (D.to_raw b_tx_hash) with
      | Some p when not p.p_done -> Obs.incr t.c_busy
      | _ -> ())
  | Wire.Gov_receipts_msg rs ->
      t.waiting_gov <- false;
      let before = Govchain.last_gov_index t.chain in
      (match Govchain.sync_from t.chain rs with
      | Ok () -> ()
      | Error _ ->
          t.failed_verifications <- t.failed_verifications + 1;
          Obs.incr t.c_failed);
      (* Only an answer that moved the chain can complete anything, else
         the retry tick asks again: each answer re-asking all N replicas
         would grow the traffic without bound. *)
      if Govchain.last_gov_index t.chain > before then
        Hashtbl.iter (fun _ p -> try_complete t p) t.pending
  | Wire.Request_msg _ | Wire.Pre_prepare_msg _ | Wire.Prepare_msg _
  | Wire.Commit_msg _ | Wire.View_change_msg _ | Wire.New_view_msg _
  | Wire.Fetch_missing _ | Wire.Batch_package_msg _ | Wire.Fetch_ledger _
  | Wire.Snapshot_offer _ | Wire.Fetch_snapshot_chunk _ | Wire.Snapshot_chunk _
  | Wire.Ledger_suffix_chunk _
  | Wire.Replyx_request _ | Wire.Gov_receipts_request _
  | Wire.Ack_msg _ | Wire.Status_query _ | Wire.Status_info _
  | Wire.Read_query _ | Wire.Read_answer _ | Wire.Audit_query _
  | Wire.Audit_answer _ ->
      ()

let create ~address ~seed ~genesis ~pipeline ~sched ~network
    ?(verify_receipts = true) ?(sign_requests = true) ?(retry_ms = 300.0) ?obs
    () =
  let sk, pk = Schnorr.keypair_of_seed seed in
  let obs = match obs with Some o -> o | None -> Obs.passive () in
  Obs.set_node_name obs address (Printf.sprintf "client-%d" address);
  let t =
    {
      addr = address;
      sk;
      pk;
      service = Genesis.hash genesis;
      sched;
      network;
      chain = Govchain.create genesis ~pipeline;
      verify_receipts;
      sign_requests;
      retry_ms;
      obs;
      c_submitted = Obs.counter obs "client.submitted";
      c_completed = Obs.counter obs "client.completed";
      c_failed = Obs.counter obs "client.failed_verifications";
      c_busy = Obs.counter obs "client.busy_rejections";
      h_e2e = Obs.histogram obs "lat.request_e2e_ms";
      h_commit_receipt = Obs.histogram obs "lat.commit_to_receipt_ms";
      next_client_seqno = 0;
      min_idx = 0;
      pending = Hashtbl.create 16;
      completed = 0;
      failed_verifications = 0;
      latencies_rev = [];
      waiting_gov = false;
    }
  in
  Network.register network address (fun ~src msg -> on_message t ~src msg);
  t

let submit t ~proc ~args ?on_complete () =
  let req =
    if t.sign_requests then
      Request.make ~sk:t.sk ~client_pk:t.pk ~service:t.service ~min_index:t.min_idx
        ~client_seqno:t.next_client_seqno ~proc ~args ()
    else
      Request.of_fields ~client_pk:t.pk ~service:t.service ~min_index:t.min_idx
        ~client_seqno:t.next_client_seqno ~proc ~args ()
  in
  t.next_client_seqno <- t.next_client_seqno + 1;
  let p =
    {
      p_req = req;
      p_sent_at = Sched.now t.sched;
      p_replies = Hashtbl.create 4;
      p_replyx = None;
      p_done = false;
      p_retries = 0;
      p_callback = on_complete;
    }
  in
  Hashtbl.replace t.pending (D.to_raw (Request.hash req)) p;
  Obs.incr t.c_submitted;
  (* The span id IS the request's causal trace id: flow events and the
     primary's batching instant key off the same hash prefix. *)
  Critical_path.request_submitted t.obs ~node:t.addr ~id:(lazy (Request.trace_id req)) ~proc;
  broadcast t (Wire.Request_msg req);
  arm_retry t p
