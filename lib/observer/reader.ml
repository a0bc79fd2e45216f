module Sched = Iaccf_sim.Sched
module Network = Iaccf_sim.Network
module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module D = Iaccf_crypto.Digest32
module Kv = Iaccf_kv.Store
module Tree = Iaccf_merkle.Tree
module Obs = Iaccf_obs.Obs
open Iaccf_core

type read_result = {
  rd_key : string;
  rd_value : string option;
  rd_verified : bool;
  rd_index : int option;
  rd_receipt : Receipt.t option;
  rd_error : string option;
}

type audit_result = {
  au_index : int;
  au_leaf : D.t;
  au_root : D.t;
  au_ok : bool;
}

type pending_read = {
  pr_key : string;
  pr_min_index : int;
  pr_cb : read_result -> unit;
  mutable pr_done : bool;
  (* A parked answer waiting for governance receipts before re-verifying. *)
  mutable pr_parked : Wire.t option;
}

type waiter = {
  w_txid : Status.txid;
  w_deadline : float;
  w_observer : int;
  w_cb : Status.t -> unit;
  mutable w_done : bool;
}

type t = {
  addr : int;
  sched : Sched.t;
  network : Wire.t Network.t;
  chain : Govchain.t;
  obs : Obs.t;
  c_verified : Obs.counter;
  c_unverified : Obs.counter;
  c_failed : Obs.counter;
  c_stale : Obs.counter;
  c_violations : Obs.counter;
  mutable next_nonce : int;
  reads : (int, pending_read) Hashtbl.t; (* nonce -> pending *)
  audits : (int, audit_result -> unit) Hashtbl.t; (* ledger index -> cb *)
  (* Last status this reader saw per transaction ID, to detect an observer
     whose answers violate the status state machine (COMMITTED <-> INVALID
     flips, PENDING -> UNKNOWN regressions). *)
  known_status : (int * int, Status.t) Hashtbl.t;
  mutable waiters : waiter list;
  mutable verified : int;
  mutable failed : int;
  mutable stale_detected : int;
  mutable violations : int;
  mutable waiting_gov : bool;
}

let verified_reads t = t.verified
let failed_verifications t = t.failed
let stale_detected t = t.stale_detected
let status_violations t = t.violations

let replica_addresses t =
  List.map
    (fun r -> r.Config.replica_id)
    (Govchain.latest_config t.chain).Config.replicas

let broadcast_replicas t msg =
  List.iter
    (fun dst -> Network.send t.network ~src:t.addr ~dst msg)
    (replica_addresses t)

let fail t p err =
  t.failed <- t.failed + 1;
  Obs.incr t.c_failed;
  p.pr_done <- true;
  {
    rd_key = p.pr_key;
    rd_value = None;
    rd_verified = false;
    rd_index = None;
    rd_receipt = None;
    rd_error = Some err;
  }
  |> p.pr_cb

(* Verify one observer read answer end to end: the supplied write set must
   hash to the write-set hash the receipt binds, the key/value must agree
   with that write set, the receipt must verify against the service
   configuration, and the writing transaction's ledger index must clear the
   caller's freshness floor. Nothing the observer said is taken on faith. *)
let verify_answer t p ~value ~seqno ~write_set ~receipt =
  ignore seqno;
  match receipt.Receipt.subject with
  | Receipt.Batch_subject -> Error "receipt has no transaction subject"
  | Receipt.Tx_subject { tx; _ } ->
      let ws = Kv.normalize_writes write_set in
      if not (D.equal (Kv.write_set_hash ws) tx.Batch.result.Batch.write_set_hash)
      then Error "write set does not match receipt's write-set hash"
      else begin
        let binding_ok =
          match (List.assoc_opt p.pr_key ws, value) with
          | Some (Kv.Put v), Some v' -> v = v'
          | Some Kv.Delete, None -> true
          | _ -> false
        in
        if not binding_ok then
          Error "served value not bound by the writing transaction"
        else
          match Govchain.verify_receipt t.chain receipt with
          | Error e -> Error ("receipt verification failed: " ^ e)
          | Ok () ->
              if tx.Batch.index < p.pr_min_index then Error "stale"
              else Ok tx.Batch.index
      end

let settle_read t nonce p msg =
  match msg with
  | Wire.Read_answer { ra_value; ra_seqno; ra_write_set; ra_receipt; _ } -> (
      match ra_receipt with
      | None ->
          (* Unverifiable: absent key, a key last written before the
             observer's snapshot horizon, or a write still inside the
             pipeline window (evidence not yet in the ledger). Surfaced as
             unverified so the caller can retry or fall back to a replica
             write. *)
          Obs.incr t.c_unverified;
          p.pr_done <- true;
          Hashtbl.remove t.reads nonce;
          p.pr_cb
            {
              rd_key = p.pr_key;
              rd_value = ra_value;
              rd_verified = false;
              rd_index = None;
              rd_receipt = None;
              rd_error = None;
            }
      | Some receipt ->
          if
            receipt.Receipt.pp.Message.gov_index
            > Govchain.last_gov_index t.chain
          then begin
            (* Receipt signed under a configuration we have not verified
               yet: fetch the governance sub-ledger receipts first (§5.2)
               and re-verify when they arrive. *)
            p.pr_parked <- Some msg;
            if not t.waiting_gov then begin
              t.waiting_gov <- true;
              broadcast_replicas t
                (Wire.Gov_receipts_request
                   { gr_from_index = Govchain.last_gov_index t.chain })
            end
          end
          else begin
            p.pr_parked <- None;
            Hashtbl.remove t.reads nonce;
            match
              verify_answer t p ~value:ra_value ~seqno:ra_seqno
                ~write_set:ra_write_set ~receipt
            with
            | Ok index ->
                t.verified <- t.verified + 1;
                Obs.incr t.c_verified;
                p.pr_done <- true;
                p.pr_cb
                  {
                    rd_key = p.pr_key;
                    rd_value = ra_value;
                    rd_verified = true;
                    rd_index = Some index;
                    rd_receipt = Some receipt;
                    rd_error = None;
                  }
            | Error "stale" ->
                t.stale_detected <- t.stale_detected + 1;
                Obs.incr t.c_stale;
                fail t p "stale: writer index below the reader's floor"
            | Error e -> fail t p e
          end)
  | _ -> ()

let note_status t ~view ~seqno status =
  let key = (view, seqno) in
  (match Hashtbl.find_opt t.known_status key with
  | Some prev when not (Status.transition_ok ~from:prev ~to_:status) ->
      t.violations <- t.violations + 1;
      Obs.incr t.c_violations
  | _ -> ());
  Hashtbl.replace t.known_status key status

let on_message t ~src msg =
  ignore src;
  match msg with
  | Wire.Read_answer { ra_nonce; _ } -> (
      match Hashtbl.find_opt t.reads ra_nonce with
      | Some p when not p.pr_done -> settle_read t ra_nonce p msg
      | _ -> ())
  | Wire.Status_info { si_view; si_seqno; si_status; _ } ->
      note_status t ~view:si_view ~seqno:si_seqno si_status;
      let txid = { Status.view = si_view; seqno = si_seqno } in
      List.iter
        (fun w ->
          if (not w.w_done) && w.w_txid = txid then
            match si_status with
            | Status.Committed | Status.Invalid ->
                w.w_done <- true;
                w.w_cb si_status
            | Status.Pending | Status.Unknown -> ())
        t.waiters;
      t.waiters <- List.filter (fun w -> not w.w_done) t.waiters
  | Wire.Audit_answer { au_index; au_leaf; au_m_index; au_m_size; au_path; au_root } -> (
      match Hashtbl.find_opt t.audits au_index with
      | Some cb ->
          Hashtbl.remove t.audits au_index;
          let ok =
            Tree.verify_path ~leaf:au_leaf ~index:au_m_index ~size:au_m_size
              ~path:au_path ~root:au_root
          in
          if not ok then begin
            t.failed <- t.failed + 1;
            Obs.incr t.c_failed
          end;
          cb { au_index; au_leaf; au_root; au_ok = ok }
      | None -> ())
  | Wire.Gov_receipts_msg rs ->
      t.waiting_gov <- false;
      (match Govchain.sync_from t.chain rs with
      | Ok () -> ()
      | Error _ ->
          t.failed <- t.failed + 1;
          Obs.incr t.c_failed);
      Hashtbl.iter
        (fun nonce p ->
          match p.pr_parked with
          | Some parked when not p.pr_done -> settle_read t nonce p parked
          | _ -> ())
        t.reads
  | _ -> ()

let create ~address ~genesis ~pipeline ~sched ~network ?obs () =
  let obs = match obs with Some o -> o | None -> Obs.passive () in
  Obs.set_node_name obs address (Printf.sprintf "reader-%d" address);
  let t =
    {
      addr = address;
      sched;
      network;
      chain = Govchain.create genesis ~pipeline;
      obs;
      c_verified = Obs.counter obs "reader.reads_verified";
      c_unverified = Obs.counter obs "reader.reads_unverified";
      c_failed = Obs.counter obs "reader.verify_failed";
      c_stale = Obs.counter obs "reader.stale_detected";
      c_violations = Obs.counter obs "reader.status_violations";
      next_nonce = 0;
      reads = Hashtbl.create 16;
      audits = Hashtbl.create 8;
      known_status = Hashtbl.create 32;
      waiters = [];
      verified = 0;
      failed = 0;
      stale_detected = 0;
      violations = 0;
      waiting_gov = false;
    }
  in
  Network.register network address (fun ~src msg -> on_message t ~src msg);
  t

let read t ~observer ~key ?(min_index = 0) on_result =
  let nonce = t.next_nonce in
  t.next_nonce <- t.next_nonce + 1;
  Hashtbl.replace t.reads nonce
    {
      pr_key = key;
      pr_min_index = min_index;
      pr_cb = on_result;
      pr_done = false;
      pr_parked = None;
    };
  Network.send t.network ~src:t.addr ~dst:observer
    (Wire.Read_query { rq_key = key; rq_nonce = nonce })

let poll_status t ~observer ~txid =
  Network.send t.network ~src:t.addr ~dst:observer
    (Wire.Status_query { sq_view = txid.Status.view; sq_seqno = txid.Status.seqno })

let last_status t ~txid =
  Option.value
    (Hashtbl.find_opt t.known_status (txid.Status.view, txid.Status.seqno))
    ~default:Status.Unknown

let wait_for_commit t ~observer ~txid ?(deadline_ms = 10_000.0)
    ?(initial_backoff_ms = 10.0) on_result =
  let w =
    {
      w_txid = txid;
      w_deadline = Sched.now t.sched +. deadline_ms;
      w_observer = observer;
      w_cb = on_result;
      w_done = false;
    }
  in
  t.waiters <- w :: t.waiters;
  (* Poll with exponential backoff: cheap while the transaction is racing
     through the pipeline, gentle on the observer once it is clearly slow. *)
  let rec tick backoff =
    if not w.w_done then
      if Sched.now t.sched >= w.w_deadline then begin
        w.w_done <- true;
        w.w_cb (last_status t ~txid)
      end
      else begin
        poll_status t ~observer:w.w_observer ~txid:w.w_txid;
        ignore
          (Sched.schedule t.sched ~delay:backoff (fun () ->
               tick (Float.min (backoff *. 2.0) 500.0)))
      end
  in
  tick initial_backoff_ms

let fetch_audit_path t ~observer ~index on_result =
  Hashtbl.replace t.audits index on_result;
  Network.send t.network ~src:t.addr ~dst:observer
    (Wire.Audit_query { aq_index = index })
