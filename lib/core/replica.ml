module Sched = Iaccf_sim.Sched
module Network = Iaccf_sim.Network
module Store = Iaccf_kv.Store
module Storage = Iaccf_storage.Store
module Checkpoint = Iaccf_kv.Checkpoint
module Ledger = Iaccf_ledger.Ledger
module Entry = Iaccf_ledger.Entry
module Tree = Iaccf_merkle.Tree
module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module Request = Iaccf_types.Request
module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Schnorr = Iaccf_crypto.Schnorr
module Profile = Iaccf_crypto.Profile
module D = Iaccf_crypto.Digest32
module Bitmap = Iaccf_util.Bitmap
module Rng = Iaccf_util.Rng
module Obs = Iaccf_obs.Obs
module Critical_path = Iaccf_obs.Critical_path
module SyncSession = Iaccf_statesync.Session
module SyncServer = Iaccf_statesync.Server
module SyncValidate = Iaccf_statesync.Validate
module SyncMetrics = Iaccf_statesync.Metrics

type params = {
  pipeline : int;
  checkpoint_interval : int;
  max_batch : int;
  batch_delay_ms : float;
  vc_timeout_ms : float;
  variant : Variant.t;
  snapshot_interval : int;
  admission_queue : int; (* > 0: shed fresh requests past this queue depth *)
}

let default_params =
  {
    pipeline = 2;
    checkpoint_interval = 50;
    max_batch = 100;
    batch_delay_ms = 1.0;
    vc_timeout_ms = 400.0;
    variant = Variant.full;
    snapshot_interval = 0;
    admission_queue = 0;
  }

type stats = {
  signatures_made : int;
  signatures_verified : int;
  macs_computed : int;
  batches_committed : int;
  txs_executed : int;
  txs_committed : int;
  view_changes : int;
  checkpoints_taken : int;
}

(* The tallies live as obs counters (instance-scoped, under the
   "replica.<id>." prefix); [stats] snapshots them back into the record
   shape the callers always read. *)
type counters = {
  c_batches_committed : Obs.counter;
  c_txs_executed : Obs.counter;
  c_requests_committed : Obs.counter;
  c_requests_received : Obs.counter;
  c_view_changes : Obs.counter;
  c_checkpoints_taken : Obs.counter;
  (* Admission control: registry-wide names (the primary of the moment is
     the only writer, so one cell per registry counts the service-wide
     admission decisions; mirrors the client.* counters). *)
  c_load_admitted : Obs.counter;
  c_load_rejected : Obs.counter;
  g_queue_depth : Obs.gauge;
}

let make_counters obs rid =
  let c name = Obs.counter obs (Printf.sprintf "replica.%d.%s" rid name) in
  {
    c_batches_committed = c "batches_committed";
    c_txs_executed = c "txs_executed";
    c_requests_committed = c "requests_committed";
    c_requests_received = c "requests_received";
    c_view_changes = c "view_changes";
    c_checkpoints_taken = c "checkpoints_taken";
    c_load_admitted = Obs.counter obs "load.admitted";
    c_load_rejected = Obs.counter obs "load.rejected";
    g_queue_depth = Obs.gauge obs "queue.depth";
  }

(* What executing a batch changes outside its own record, captured before
   it runs so that an aborted execution or a rollback can restore it. The
   key-value state is the persistent map the batch started from. *)
type undo = {
  u_ledger : int;
  u_kv : string Iaccf_kv.State.t;
  u_gov_index : int;
  u_dc : D.t;
  u_phase : Schedule.phase;
  u_cfg : Config.t;
}

type batch_record = {
  br_pp : Message.pre_prepare;
  br_txs : Batch.tx_entry list;
  br_ev_prepares : Message.prepare list;
  br_ev_nonces : (int * string) list;
  br_undo : undo;
  (* The batch's g-tree, built once when it ran, kept until its first
     replies are sent. Catch-up records never hold one. *)
  mutable br_g_tree : Tree.t option;
  mutable br_prepared : bool;
  mutable br_committed : bool;
  br_clock : Critical_path.batch; (* trace spans and phase latency stamps *)
}

type t = {
  rid : int;
  auth : Auth.t; (* signing, checks and the Table 3 ablations *)
  genesis : Genesis.t;
  service : D.t;
  app : App.t;
  params : params;
  sched : Sched.t;
  network : Wire.t Network.t;
  client_address : Schnorr.public_key -> int option;
  rng : Rng.t;
  obs : Obs.t;
  profile : Profile.t; (* wall-clock apply cost accounting *)
  ctr : counters;
  cp : Critical_path.recorder; (* batch spans and phase histograms *)
  rule : Schedule.rule; (* checkpoint and reconfiguration schedule *)
  mutable cfg : Config.t;
  mutable view : int;
  mutable seqno : int; (* s: next sequence number to assign/accept *)
  mutable ready : bool;
  mutable running : bool;
  mutable activated : bool;
  mutable last_prepared : int;
  mutable last_committed : int;
  mutable gov_index : int;
  mutable current_dc : D.t;
  mutable phase : Schedule.phase;
  store : Store.t;
  ledger : Ledger.t;
  storage : Storage.t option;  (* durable ledger backend *)
  pool : Pool.t; (* T, and where each executed request landed *)
  records : (int, batch_record) Hashtbl.t;
  votes : Votes.t; (* prepares and revealed nonces, and the commit rule *)
  view_changes : (int, (int, Message.view_change) Hashtbl.t) Hashtbl.t;
  pending_pps : (int, Message.pre_prepare * D.t list) Hashtbl.t;
  (* Catch-up (lib/statesync): the checkpoints' owner, which also serves
     them, and the requesting side's session. *)
  server : SyncServer.t;
  sync_client : SyncSession.t;
  sync : SyncMetrics.t;
  mutable gov_receipts_rev : Receipt.t list;
  mutable progress_marker : int;
  mutable batch_timer_armed : bool;
  mutable pending_new_view : (Message.new_view * Message.view_change list) option;
  mutable fetch_target : int option; (* replica we are fetching state from *)
  (* During a reconfiguration, the outgoing configuration's replicas
     still receive protocol messages until the new one has started (5.1). *)
  mutable extra_recipients : int list;
  mutable stall_count : int; (* consecutive no-progress timer ticks *)
  (* The highest view above ours that signed consensus messages came from,
     and their senders: proof that a new view exists we never saw. *)
  mutable ahead_view : int;
  mutable ahead_from : int list;
  (* Rollback-proof memory backing view-change messages (Alg. 2 reads PP
     from the message store, not the roll-backable ledger): *)
  prepared_pps : (int, Message.pre_prepare) Hashtbl.t; (* seqno -> best pp *)
  batch_ledger_end : (int, int) Hashtbl.t;
      (* seqno -> ledger length right after the batch's entries; defines the
         canonical cut point when a view change rebuilds the suffix *)
  archived_content : (int * string, Batch.kind * Batch.tx_entry list) Hashtbl.t;
      (* (seqno, raw g_root) -> batch content, stashed on rollback. A batch
         re-proposed in a later view keeps its original transaction entries
         (and hence ledger indices and g_root), as required for receipts to
         stay valid across view changes (Alg. 2). *)
  index : Status_index.t; (* transaction status and read index *)
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let id t = t.rid
let storage t = t.storage
let config t = t.cfg
let view t = t.view
let next_seqno t = t.seqno
let last_committed t = t.last_committed
let ledger t = t.ledger
let store t = t.store
let obs t = t.obs

let stats t =
  {
    signatures_made = Auth.signatures_made t.auth;
    signatures_verified = Auth.signatures_verified t.auth;
    macs_computed = Auth.macs_computed t.auth;
    batches_committed = Obs.value t.ctr.c_batches_committed;
    txs_executed = Obs.value t.ctr.c_txs_executed;
    txs_committed = Obs.value t.ctr.c_requests_committed;
    view_changes = Obs.value t.ctr.c_view_changes;
    checkpoints_taken = Obs.value t.ctr.c_checkpoints_taken;
  }
let pending_requests t = Pool.size t.pool
let gov_receipts t = List.rev t.gov_receipts_rev
let g_trees_held t =
  Hashtbl.fold (fun _ rec_ n -> if Option.is_some rec_.br_g_tree then n + 1 else n) t.records 0
let active t = t.activated && t.running
let quorum t = Config.quorum t.cfg
let primary_id t = Config.primary_of_view t.cfg t.view
let is_primary t = t.activated && primary_id t = t.rid
let replica_ids t = List.map (fun r -> r.Config.replica_id) t.cfg.Config.replicas
let in_config t = Config.replica t.cfg t.rid <> None
let keep_ledger t = Auth.keep_ledger t.auth

(* A batch's requests are its entries' (the ones its g_root binds). *)
let requests_of txs = List.map (fun (tx : Batch.tx_entry) -> tx.Batch.request) txs

let batch_end_length t seqno =
  if seqno = 0 then 1
  else
    match Hashtbl.find_opt t.batch_ledger_end seqno with
    | Some n -> n
    | None -> Ledger.length t.ledger

let note_view_ahead t ~view ~src =
  if view > t.view then
    if view > t.ahead_view then begin
      t.ahead_view <- view;
      t.ahead_from <- [ src ]
    end
    else if view = t.ahead_view && not (List.mem src t.ahead_from) then
      t.ahead_from <- src :: t.ahead_from

(* A replica running a view above ours, once f+1 have shown it: at least
   one of them is honest, so that view has a new-view we never saw. *)
let view_ahead t =
  if t.ahead_view > t.view && List.length t.ahead_from > Config.f t.cfg then
    Some (List.hd t.ahead_from)
  else None

(* Reason-coded tallies, registry-wide: why a pre-prepare was not executed
   on arrival (replica.reject.*: missing_requests and missing_evidence
   fetch the batch package; kind, gov_index, replayed_request and exec are
   refused; replica.pp.*: buffered for a later seqno or view, or stale and
   dropped), how often executed batches were rolled back
   (replica.rollback), and requests dropped for a client signature that
   does not verify (replica.reject.request_signature). *)
let tally t name = Obs.incr (Obs.counter t.obs name)

let checkpoint_at t seqno = SyncServer.checkpoint t.server seqno

let sub_tbl tbl key =
  match Hashtbl.find_opt tbl key with
  | Some sub -> sub
  | None ->
      let sub = Hashtbl.create 8 in
      Hashtbl.replace tbl key sub;
      sub

(* What seqno [s] must carry under the schedule (Schedule.slot). *)
let slot t s =
  Schedule.slot t.rule t.phase ~latest_cp:(SyncServer.latest t.server)
    ~digest:(SyncServer.digest t.server) s

(* Message's checks with this replica's signature check (Auth). Structure
   checks come first (they cost nothing); only a well-formed message pays
   for the signature math. *)
let check t cls = Auth.verify t.auth t.cfg ~cls
let verify_pp_sig t = Message.verify_pre_prepare ~check:(check t "pre_prepare") t.cfg
let verify_prepare_sig t = Message.verify_prepare ~check:(check t "prepare")
let verify_vc_sig t = Message.verify_view_change ~check:(check t "view_change")
let verify_nv_sig t = Message.verify_new_view ~check:(check t "new_view") t.cfg

(* Ledger entries: a view-change set justifies its view; a new view names
   the set before it and is signed. *)
let vc_set_ok t vcs = Newview.set_fault ~quorum:(quorum t) ~verify:(verify_vc_sig t) vcs = None
let new_view_ok t vcs nv = Newview.names_fault nv vcs = None && verify_nv_sig t nv

(* The install gate: the one check of an extent adopted without
   execution, live (a catch-up session) or cold (restore_from_storage). *)
let check_extent t ~cp_seqno entries =
  SyncValidate.check_suffix ~ledger:t.ledger ~next_seqno:t.seqno ~cp_seqno
    ~verify_pp:(verify_pp_sig t) ~vc_set:(vc_set_ok t) ~new_view:(new_view_ok t) entries

(* What a catch-up session needs from the replica to gate an install. *)
let sync_hooks t =
  {
    SyncSession.verify_pp = verify_pp_sig t;
    check_suffix = check_extent t;
    peers = (fun () -> List.filter (fun r -> r <> t.rid) (replica_ids t));
  }

(* ------------------------------------------------------------------ *)
(* Network plumbing                                                    *)

let send t ~dst msg =
  if t.running then begin
    Auth.sent t.auth msg;
    Network.send t.network ~src:t.rid ~dst msg
  end

let fetch_ledger t ~dst offer =
  send t ~dst
    (Wire.Fetch_ledger { fl_from_len = Ledger.length t.ledger; fl_offer = offer })

(* Fetch from [src] until caught up with it. *)
let fetch_from t src offer =
  t.fetch_target <- Some src;
  fetch_ledger t ~dst:src offer

let broadcast_replicas t msg =
  let recipients = List.sort_uniq compare (replica_ids t @ t.extra_recipients) in
  List.iter (fun rid -> if rid <> t.rid then send t ~dst:rid msg) recipients

let send_to_client t pk msg =
  match t.client_address pk with None -> () | Some addr -> send t ~dst:addr msg

(* Count a request the pending pool (T) took in. *)
let received t admitted = if admitted then Obs.incr t.ctr.c_requests_received

(* Admission queue depth (primary only: the queue under admission control
   is the primary's pending pool; backups' pools just mirror broadcasts).
   The gauge's high-watermark is the bench-facing peak depth. *)
let update_queue_gauge t =
  if is_primary t then
    Obs.set_gauge t.ctr.g_queue_depth (float_of_int (Pool.size t.pool))

(* Admission control (primary only): fresh requests are shed while the
   pending queue sits at or above the watermark. *)
let shedding t =
  t.params.admission_queue > 0 && is_primary t && Pool.size t.pool >= t.params.admission_queue

(* ------------------------------------------------------------------ *)
(* Evidence (P_{s-P}, K_{s-P}, E_{s-P})                                *)

(* The quorum of the configuration a batch ran under. Its evidence and
   its receipts are checked against that configuration, which a vote may
   since have replaced with one of another size. *)
let batch_quorum rec_ = Config.quorum rec_.br_undo.u_cfg

(* Commitment evidence for the batch at [s_past] (none before seqno 1):
   the primary's selection, and a backup's match of the bitmap a
   pre-prepare names. Both are the vote module's one rule. *)
let evidence_for t s_past =
  if s_past < 1 then Some ([], [], Bitmap.empty)
  else
    Option.bind (Hashtbl.find_opt t.records s_past) (fun rec_ ->
        Votes.evidence_for t.votes rec_.br_pp ~quorum:(batch_quorum rec_))

let evidence_matching t s_past bitmap =
  if s_past < 1 then if Bitmap.equal bitmap Bitmap.empty then Some ([], []) else None
  else
    Option.bind (Hashtbl.find_opt t.records s_past) (fun rec_ ->
        Votes.evidence_matching t.votes rec_.br_pp ~quorum:(batch_quorum rec_) bitmap)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let execute_requests t ~base_index reqs =
  (* Apply cost lands in the profiler (wall clock), never in obs metrics:
     snapshots must stay byte-identical across same-seed runs. *)
  Profile.time t.profile Profile.Apply ~cls:"batch" Profile.Replica_key
    (fun () ->
      let writes_rev = ref [] in
      let txs =
        List.mapi
          (fun k (req : Request.t) ->
            let output, write_set_hash, writes =
              App.execute_ws t.app ~config:t.cfg ~caller:req.Request.client_pk
                ~store:t.store ~proc:req.Request.proc ~args:req.Request.args
            in
            writes_rev := writes :: !writes_rev;
            Obs.incr t.ctr.c_txs_executed;
            {
              Batch.request = req;
              index = base_index + k;
              result = { Batch.output; write_set_hash };
            })
          reqs
      in
      (txs, List.rev !writes_rev))

(* ------------------------------------------------------------------ *)
(* Transaction status and reads (Status_index)                         *)

let tx_status t ~view ~seqno =
  Status_index.reached t.index (t.seqno - 1);
  Status_index.status t.index ~view ~seqno

let stable_committed t = Status_index.stable_upto t.index
let last_write t = Status_index.last_write t.index
let tx_write_set t = Status_index.write_set t.index

let append_ledger t entry = if keep_ledger t then ignore (Ledger.append t.ledger entry)
let ledger_len t = if keep_ledger t then Ledger.length t.ledger else t.seqno * 4
let m_root_now t = if keep_ledger t then Ledger.m_root t.ledger else D.zero
let truncate_ledger t n = if keep_ledger t then Ledger.truncate t.ledger n

let capture t =
  {
    u_ledger = ledger_len t;
    u_kv = Store.map t.store;
    u_gov_index = t.gov_index;
    u_dc = t.current_dc;
    u_phase = t.phase;
    u_cfg = t.cfg;
  }

let restore t u =
  truncate_ledger t u.u_ledger;
  Store.reset_to t.store u.u_kv;
  t.gov_index <- u.u_gov_index;
  t.current_dc <- u.u_dc;
  t.phase <- u.u_phase;
  t.cfg <- u.u_cfg

(* Whether re-execution reproduced the recorded results, transaction by
   transaction. *)
let same_results (a : Batch.tx_entry list) (b : Batch.tx_entry list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Batch.tx_entry) (y : Batch.tx_entry) ->
         String.equal x.Batch.result.Batch.output y.Batch.result.Batch.output
         && D.equal x.Batch.result.Batch.write_set_hash
              y.Batch.result.Batch.write_set_hash)
       a b

(* Retire the requests of a batch in the ledger. *)
let retire_batch t (pp : Message.pre_prepare) txs =
  List.iter
    (fun (tx : Batch.tx_entry) ->
      Pool.execute t.pool tx.Batch.request ~seqno:pp.Message.seqno ~index:tx.Batch.index)
    txs

(* Append an executed batch to the ledger and retire its requests. *)
let append_batch t pp txs =
  append_ledger t (Entry.Pre_prepare pp);
  List.iter (fun tx -> append_ledger t (Entry.Tx tx)) txs;
  retire_batch t pp txs

(* Record an executed batch: its record, where its entries end in the
   ledger, and the write sets its execution produced. Re-executions
   (re-proposals, state-transfer replay) overwrite with identical content. *)
let add_record t pp ~txs ~writes ~ev_prepares ~ev_nonces ~undo ~committed =
  let rec_ =
    {
      br_pp = pp;
      br_txs = txs;
      br_ev_prepares = ev_prepares;
      br_ev_nonces = ev_nonces;
      br_undo = undo;
      br_g_tree = None;
      br_prepared = committed;
      br_committed = committed;
      br_clock = Critical_path.batch ~seqno:pp.Message.seqno ~primary:(pp.Message.primary = t.rid);
    }
  in
  let s = pp.Message.seqno in
  Hashtbl.replace t.records s rec_;
  Hashtbl.replace t.batch_ledger_end s (ledger_len t);
  Status_index.record_writes t.index ~seqno:s writes;
  rec_

(* The ledger entries recording batch [s_past]'s prepares and nonces. *)
let evidence_entries t ~s_past ev_prepares ev_nonces =
  match Hashtbl.find_opt t.records s_past with
  | None -> []
  | Some rec_ ->
      let v = rec_.br_pp.Message.view in
      [
        Entry.Prepare_evidence { pe_view = v; pe_seqno = s_past; pe_prepares = ev_prepares };
        Entry.Nonce_evidence { ne_view = v; ne_seqno = s_past; ne_nonces = ev_nonces };
      ]

(* The entries an executed batch keeps when execution reproduces their
   results. A re-proposal after a view change prefers its original
   entries, whose indices fresh execution would not reproduce; a recorded
   ledger extent requires its own. *)
type original = Fresh | Prefer of Batch.tx_entry list | Require of Batch.tx_entry list

(* Every executed batch runs through here, whoever proposed it: capture
   the undo, append the evidence entries, then execute the requests and
   build the g-tree of the transaction entries, once. It is a fault when
   execution does not reproduce [Require]d entries, or when a batch
   received in a pre-prepare ([against]) puts a request below its minimum
   index or misses the pre-prepare's roots: the undo is restored and the
   result is [None]. *)
let run_batch t ?against ~evidence reqs original =
  let undo = capture t in
  List.iter (append_ledger t) evidence;
  let entries =
    let executed, writes = execute_requests t ~base_index:(ledger_len t + 1) reqs in
    match original with
    | (Prefer txs | Require txs) when same_results txs executed -> Some (txs, writes)
    | Require _ -> None
    | Prefer _ | Fresh -> Some (executed, writes)
  in
  let fits (pp : Message.pre_prepare) txs g_tree =
    List.for_all Batch.placed txs
    && D.equal (Tree.root g_tree) pp.Message.g_root
    && D.equal (m_root_now t) pp.Message.m_root
  in
  let entries = Option.map (fun (txs, writes) -> (txs, writes, Batch.g_tree txs)) entries in
  match (entries, against) with
  | Some (txs, writes, g_tree), None -> Some (undo, txs, writes, g_tree)
  | Some (txs, writes, g_tree), Some pp when fits pp txs g_tree ->
      Some (undo, txs, writes, g_tree)
  | _ ->
      restore t undo;
      None

(* The configuration the key-value store records under the reserved key,
   when it is newer than ours. *)
let stored_config t =
  match Iaccf_kv.State.find_opt App.config_key (Store.map t.store) with
  | None -> None
  | Some bytes -> (
      match Config.deserialize bytes with
      | exception _ -> None
      | c -> if c.Config.config_no > t.cfg.Config.config_no then Some c else None)

(* Governance transactions move i_g; a checkpoint batch moves d_C. *)
let move_gov_index_and_dc t (pp : Message.pre_prepare) txs =
  List.iter
    (fun (tx : Batch.tx_entry) ->
      if Request.is_governance tx.Batch.request then t.gov_index <- tx.Batch.index)
    txs;
  match pp.Message.kind with
  | Batch.Checkpoint { cp_digest; _ } -> t.current_dc <- cp_digest
  | Batch.Regular | Batch.End_of_config _ | Batch.Start_of_config _ -> ()

(* Shared post-execution bookkeeping: i_g and d_C, checkpoints, governance
   phase transitions, configuration activation (§5.1, §3.4). *)
let post_execute_batch t (pp : Message.pre_prepare) txs =
  let s = pp.Message.seqno in
  move_gov_index_and_dc t pp txs;
  let take_checkpoint () =
    SyncServer.take t.server (Checkpoint.make ~seqno:s (Store.map t.store));
    Obs.incr t.ctr.c_checkpoints_taken;
    Obs.instant t.obs ~node:t.rid ~cat:"checkpoint" ~name:"checkpoint"
      ~args:[ ("seqno", string_of_int s) ]
      ()
  in
  let step =
    Schedule.step t.rule t.phase s ~passed:(fun () ->
        (* The vote procedure installs a passed configuration under the
           reserved key. *)
        Option.map (fun c -> (c, m_root_now t)) (stored_config t))
  in
  (match (t.phase, step.Schedule.next) with
  | Schedule.Normal, Schedule.Ending _ -> t.extra_recipients <- replica_ids t
  | (Schedule.Ending _ | Schedule.Starting _), Schedule.Normal -> t.extra_recipients <- []
  | _ -> ());
  Option.iter (fun c -> t.cfg <- c) step.Schedule.activate;
  if step.Schedule.checkpoint then take_checkpoint ();
  t.phase <- step.Schedule.next

(* A replica the new configuration leaves out keeps voting until it has
   committed the activation batch, whose nonce it must reveal. *)
let retire_if_handed_over t =
  if (not (in_config t)) && Schedule.handed_over t.phase ~last_committed:t.last_committed
  then t.activated <- false

(* A committed checkpoint batch seals the digest it records. Only live
   sealing writes a snapshot file: during cold-start replay the files are
   already on disk. *)
let seal_from_kind t (pp : Message.pre_prepare) =
  match pp.Message.kind with
  | Batch.Checkpoint { cp_seqno; cp_digest } ->
      SyncServer.seal t.server ~cp_seqno ~cp_digest ~seal_seqno:pp.Message.seqno
        ~persist:t.running
  | Batch.Regular | Batch.End_of_config _ | Batch.Start_of_config _ -> ()

(* ------------------------------------------------------------------ *)
(* Receipts and replies                                                *)

let designated_for t (tx : Batch.tx_entry) =
  let ids = replica_ids t in
  let h = Request.hash tx.Batch.request in
  let b = Char.code (D.to_raw h).[0] in
  List.nth ids ((b + tx.Batch.index) mod List.length ids)

let own_signature_for t rec_ =
  let v = rec_.br_pp.Message.view and s = rec_.br_pp.Message.seqno in
  if rec_.br_pp.Message.primary = t.rid then Some rec_.br_pp.Message.signature
  else
    Option.map
      (fun (p : Message.prepare) -> p.Message.p_signature)
      (Votes.prepare_of t.votes ~view:v ~seqno:s t.rid)

(* The one reply path. This replica's reply for the batch, its signature
   on it with the nonce it revealed, goes to each client in [reply_to];
   then the receipt material for each transaction [pick] selects goes to
   [replyx_to], or else to that transaction's client. *)
let send_replies t rec_ ?g_tree ~reply_to ~pick ?replyx_to () =
  let v = rec_.br_pp.Message.view and s = rec_.br_pp.Message.seqno in
  (match (own_signature_for t rec_, Votes.own_nonce t.votes ~view:v ~seqno:s) with
  | Some signature, Some nonce ->
      let reply =
        Wire.Reply_msg
          {
            Message.r_view = v;
            r_seqno = s;
            r_replica = t.rid;
            r_signature = signature;
            r_nonce = nonce;
          }
      in
      List.iter (fun pk -> send_to_client t pk reply) reply_to
  | _ -> ());
  List.iter
    (fun (x : Message.replyx) ->
      match replyx_to with
      | Some dst -> send t ~dst (Wire.Replyx_msg x)
      | None -> send_to_client t x.Message.x_tx.Batch.request.Request.client_pk (Wire.Replyx_msg x))
    (Receipt.replyxs ?g_tree rec_.br_pp rec_.br_txs pick)

(* The batch's clients, each once, in batch order. *)
let batch_clients rec_ =
  let seen = Hashtbl.create 4 in
  List.filter
    (fun pk ->
      let key = Schnorr.public_key_to_bytes pk in
      let fresh = not (Hashtbl.mem seen key) in
      if fresh then Hashtbl.add seen key ();
      fresh)
    (List.map (fun (tx : Batch.tx_entry) -> tx.Batch.request.Request.client_pk) rec_.br_txs)

(* Answer for a request executed at ([seqno], [index]): the batch's
   reply, then the request's receipt material when [receipts]. A batch not
   yet committed, or adopted from a checkpoint without a record, gets no
   answer. *)
let answer_executed t (seqno, index) ~reply_to ~receipts ?replyx_to () =
  match Hashtbl.find_opt t.records seqno with
  | Some rec_ when rec_.br_committed ->
      send_replies t rec_ ~reply_to ?replyx_to
        ~pick:(fun tx -> receipts && tx.Batch.index = index)
        ()
  | _ -> ()

let build_receipt t ~seqno ~tx_position =
  match Hashtbl.find_opt t.records seqno with
  | Some rec_ when rec_.br_committed -> (
      let txs = rec_.br_txs in
      match (Votes.quorum_backups t.votes rec_.br_pp ~quorum:(batch_quorum rec_), tx_position) with
      | None, _ -> None
      | Some _, Some i when i < 0 || i >= List.length txs -> None
      | Some chosen, _ ->
          Some
            (Receipt.make rec_.br_pp
               (List.map (fun (r, p, n) -> (r, p.Message.p_signature, n)) chosen)
               (match tx_position with
               | None -> Receipt.Batch_subject
               | Some i -> Receipt.tx_subject txs i)))
  | _ -> None

let record_gov_receipts t rec_ =
  let keep tx_position =
    Option.iter
      (fun r -> t.gov_receipts_rev <- r :: t.gov_receipts_rev)
      (build_receipt t ~seqno:rec_.br_pp.Message.seqno ~tx_position)
  in
  (match rec_.br_pp.Message.kind with
  | Batch.End_of_config { phase; _ } when phase = t.params.pipeline -> keep None
  | Batch.End_of_config _ | Batch.Regular | Batch.Checkpoint _ | Batch.Start_of_config _ -> ());
  List.iteri
    (fun i (tx : Batch.tx_entry) -> if Request.is_governance tx.Batch.request then keep (Some i))
    rec_.br_txs

(* ------------------------------------------------------------------ *)
(* Batch packages (retransmission / state transfer)                    *)

let batch_package t ~seqno =
  Option.map
    (fun rec_ ->
      {
        Wire.bp_pp = rec_.br_pp;
        bp_requests = requests_of rec_.br_txs;
        bp_ev_prepares = rec_.br_ev_prepares;
        bp_ev_nonces = rec_.br_ev_nonces;
      })
    (Hashtbl.find_opt t.records seqno)

(* Keep the highest-view pre-prepare prepared at its seqno. *)
let note_prepared t (pp : Message.pre_prepare) =
  match Hashtbl.find_opt t.prepared_pps pp.Message.seqno with
  | Some prev when prev.Message.view >= pp.Message.view -> ()
  | _ -> Hashtbl.replace t.prepared_pps pp.Message.seqno pp

(* Accept a batch this replica executed, as primary or backup: append it,
   record it with its g-tree, open its trace spans and move to the next
   seqno. [batched] are the requests the primary just took from its
   queue. *)
let accept_batch t pp ~txs ~writes ~g_tree ~ev_prepares ~ev_nonces ~undo ~batched =
  append_batch t pp txs;
  update_queue_gauge t;
  let rec_ =
    add_record t pp ~txs ~writes ~ev_prepares ~ev_nonces ~undo ~committed:false
  in
  rec_.br_g_tree <- Some g_tree;
  Critical_path.batch_begin t.cp rec_.br_clock ~view:pp.Message.view ~txs:(List.length txs);
  Critical_path.batched t.obs ~node:t.rid ~seqno:pp.Message.seqno Request.trace_id batched;
  post_execute_batch t pp txs;
  t.seqno <- pp.Message.seqno + 1

(* ------------------------------------------------------------------ *)
(* Layer 1: the normal case (Alg. 1)                                  *)

(* The protocol engine is five layers, each calling only the layers above
   it: the normal case, roll-back, view changes, catch-up and the progress
   timer. *)

let rec check_prepared t =
  let q = t.last_prepared + 1 in
  match Hashtbl.find_opt t.records q with
  | None -> ()
  | Some rec_ ->
      if Votes.prepared_count t.votes rec_.br_pp >= quorum t - 1 then begin
        rec_.br_prepared <- true;
        t.last_prepared <- q;
        Critical_path.batch_prepared t.cp rec_.br_clock;
        note_prepared t rec_.br_pp;
        on_prepared t rec_;
        check_prepared t
      end

and on_prepared t rec_ =
  let v = rec_.br_pp.Message.view and s = rec_.br_pp.Message.seqno in
  (match Votes.own_nonce t.votes ~view:v ~seqno:s with
  | Some nonce ->
      let commit =
        { Message.c_view = v; c_seqno = s; c_replica = t.rid; c_nonce = nonce }
      in
      Auth.commit_sent t.auth ~view:v ~seqno:s ~replica:t.rid;
      Votes.add_nonce t.votes ~view:v ~seqno:s (t.rid, nonce);
      Obs.instant t.obs ~node:t.rid ~cat:"batch" ~name:"nonce.reveal" ~id:(string_of_int s) ();
      broadcast_replicas t (Wire.Commit_msg commit)
  | None -> ());
  (* Each of the batch's clients gets the reply once; the designated
     replica also sends each transaction's receipt material. *)
  let clients = batch_clients rec_ in
  Auth.replies_sent t.auth clients;
  send_replies t rec_ ?g_tree:rec_.br_g_tree ~reply_to:clients
    ~pick:(fun tx -> Auth.receipts t.auth && designated_for t tx = t.rid)
    ();
  rec_.br_g_tree <- None;
  check_committed t

and check_committed t =
  let q = t.last_committed + 1 in
  match Hashtbl.find_opt t.records q with
  | None -> ()
  | Some rec_ when rec_.br_prepared ->
      if Votes.committed t.votes rec_.br_pp ~quorum:(quorum t) then begin
        rec_.br_committed <- true;
        t.last_committed <- q;
        Status_index.commit t.index ~seqno:q ~view:rec_.br_pp.Message.view
          ~index_writes:true ~last_committed:q;
        t.stall_count <- 0;
        seal_from_kind t rec_.br_pp;
        Obs.incr t.ctr.c_batches_committed;
        Obs.add t.ctr.c_requests_committed (List.length rec_.br_txs);
        Critical_path.batch_committed t.cp rec_.br_clock ~txs:(List.length rec_.br_txs)
          ~governance:
            (lazy
              (List.exists
                 (fun (tx : Batch.tx_entry) -> Request.is_governance tx.Batch.request)
                 rec_.br_txs));
        record_gov_receipts t rec_;
        retire_if_handed_over t;
        SyncServer.retain t.server;
        try_send_pre_prepares t;
        check_committed t
      end
  | Some _ -> ()

(* Primary: emit as many batches as the pipeline allows (Alg. 1, line 4). *)
and try_send_pre_prepares t =
  if t.running && t.activated && t.ready && is_primary t then begin
    let progress = ref true in
    while !progress do
      progress := false;
      let s = t.seqno in
      if s - 1 - t.last_committed < t.params.pipeline then begin
        match evidence_for t (s - t.params.pipeline) with
        | None -> ()
        | Some (ev_prepares, ev_nonces, ev_bitmap) -> (
            match plan_batch t s with
            | None -> ()
            | Some (kind, reqs) ->
                emit_batch t ~kind ~reqs ~ev_prepares ~ev_nonces ~ev_bitmap ();
                progress := true)
      end
    done
  end

and plan_batch t s =
  match slot t s with
  | Schedule.Closed -> None
  | Schedule.Fixed kind -> Some (kind, [])
  | Schedule.Regular -> (
      (* A batch from T. Evidence (2) and the pre-prepare (1) would place
         its first transaction at [base_index] when evidence exists; this
         estimate only gates minimum indices, and run_batch re-checks. *)
      match Pool.take t.pool ~max:t.params.max_batch ~base_index:(ledger_len t + 3) with
      | [] -> None
      | reqs -> Some (Batch.Regular, reqs))

(* Re-proposals after a view change [Prefer] the batch's original entries
   so that its Merkle root, and every receipt bound to it, stays the same. *)
and emit_batch t ?(original = Fresh) ~kind ~reqs ~ev_prepares ~ev_nonces ~ev_bitmap () =
  let s = t.seqno in
  let v = t.view in
  let evidence = evidence_entries t ~s_past:(s - t.params.pipeline) ev_prepares ev_nonces in
  Option.iter
    (fun (undo, txs, writes, g_tree) ->
      let g_root = Tree.root g_tree in
      let m_root = m_root_now t in
      let nonce_com = Votes.commit_own t.votes ~view:v ~seqno:s in
      let payload =
        Message.pre_prepare_payload ~view:v ~seqno:s ~m_root ~g_root ~nonce_com ~ev_bitmap
          ~gov_index:undo.u_gov_index ~cp_digest:undo.u_dc ~kind ~primary:t.rid
      in
      let pp : Message.pre_prepare =
        {
          Message.view = v;
          seqno = s;
          m_root;
          g_root;
          nonce_com;
          ev_bitmap;
          gov_index = undo.u_gov_index;
          cp_digest = undo.u_dc;
          kind;
          primary = t.rid;
          signature = Auth.sign t.auth ~cls:"pre_prepare" payload;
        }
      in
      accept_batch t pp ~txs ~writes ~g_tree ~ev_prepares ~ev_nonces ~undo ~batched:reqs;
      broadcast_replicas t
        (Wire.Pre_prepare_msg { pp; batch = List.map Request.hash reqs });
      check_prepared t)
    (run_batch t ~evidence reqs original)

(* ------------------------------------------------------------------ *)
(* Layer 1: backup processing of pre-prepares (Alg. 1, line 15)       *)

(* Returns true when the pp was consumed (accepted or definitively
   rejected); false when it should stay buffered. *)
and process_pre_prepare t (pp : Message.pre_prepare) batch_hashes =
  let s = pp.Message.seqno in
  let v = pp.Message.view in
  if not (Pool.resolves t.pool batch_hashes) then begin
    tally t "replica.reject.missing_requests";
    send t ~dst:pp.Message.primary (Wire.Fetch_missing { fm_seqno = s });
    false
  end
  else
    match evidence_matching t (s - t.params.pipeline) pp.Message.ev_bitmap with
    | None ->
        tally t "replica.reject.missing_evidence";
        send t ~dst:pp.Message.primary (Wire.Fetch_missing { fm_seqno = s });
        false
    | Some (ev_prepares, ev_nonces) -> (
        let reject why =
          tally t ("replica.reject." ^ why);
          true (* reject; suspicion via timer *)
        in
        (* The pre-prepare's signature does not cover the hash list, so a
           primary can replay an executed request in it. *)
        match Pool.batch t.pool batch_hashes with
        | _ when not (Schedule.accepts (slot t s) pp.Message.kind) -> reject "kind"
        | _ when pp.Message.gov_index <> t.gov_index -> reject "gov_index"
        | None -> reject "replayed_request"
        | Some reqs -> (
            let evidence =
              evidence_entries t ~s_past:(s - t.params.pipeline) ev_prepares ev_nonces
            in
            (* A re-proposed batch keeps the entries archived for its root. *)
            let original =
              match Hashtbl.find_opt t.archived_content (s, (pp.Message.g_root :> string)) with
              | Some (_, txs) -> Prefer txs
              | None -> Fresh
            in
            match run_batch t ~against:pp ~evidence reqs original with
            | None ->
                (* Divergent execution or a lying primary: rolled back (Alg. 1,
                   line 23); the progress timer triggers a view change. *)
                reject "exec"
            | Some (undo, txs, writes, g_tree) ->
                let nonce_com = Votes.commit_own t.votes ~view:v ~seqno:s in
                let pph = Message.pp_hash pp in
                let payload =
                  Message.prepare_payload ~view:v ~seqno:s ~replica:t.rid ~nonce_com
                    ~pp_hash:pph
                in
                let prepare =
                  {
                    Message.p_view = v;
                    p_seqno = s;
                    p_replica = t.rid;
                    p_nonce_com = nonce_com;
                    p_pp_hash = pph;
                    p_signature = Auth.sign t.auth ~cls:"prepare" payload;
                  }
                in
                accept_batch t pp ~txs ~writes ~g_tree ~ev_prepares ~ev_nonces ~undo ~batched:[];
                Votes.add_prepare t.votes prepare;
                broadcast_replicas t (Wire.Prepare_msg prepare);
                check_prepared t;
                true))

and try_process_pending t =
  match Hashtbl.find_opt t.pending_pps t.seqno with
  | Some (pp, batch) when t.ready ->
      if pp.Message.view < t.view then begin
        (* Superseded by a view change. *)
        Hashtbl.remove t.pending_pps t.seqno;
        try_process_pending t
      end
      else if pp.Message.view > t.view then ()
        (* Keep: it may become processable once we adopt that view. *)
      else if process_pre_prepare t pp batch then begin
        (* Processing moves t.seqno on: remove the entry just consumed. *)
        Hashtbl.remove t.pending_pps pp.Message.seqno;
        try_process_pending t
      end
  | _ -> ()

and on_pre_prepare t (pp : Message.pre_prepare) batch =
  if t.running && t.activated && pp.Message.primary <> t.rid then begin
    if pp.Message.view < t.view then tally t "replica.pp.stale"
    else if verify_pp_sig t pp then begin
      note_view_ahead t ~view:pp.Message.view ~src:pp.Message.primary;
      if
        pp.Message.view = t.view && t.ready && pp.Message.seqno = t.seqno
        && Votes.own_nonce t.votes ~view:t.view ~seqno:pp.Message.seqno = None
      then begin
        if process_pre_prepare t pp batch then () else
          Hashtbl.replace t.pending_pps pp.Message.seqno (pp, batch);
        try_process_pending t
      end
      else if pp.Message.seqno >= t.seqno || (not t.ready) || pp.Message.view > t.view
      then begin
        (* While a view change is in flight our sequence number may roll
           back below this pre-prepare's: keep everything for the newest
           view until the new-view settles. *)
        tally t "replica.pp.buffered";
        match Hashtbl.find_opt t.pending_pps pp.Message.seqno with
        | Some (prev, _) when prev.Message.view > pp.Message.view -> ()
        | _ -> Hashtbl.replace t.pending_pps pp.Message.seqno (pp, batch)
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Layer 1: requests, prepares, commits                               *)

and arm_batch_timer t =
  if not t.batch_timer_armed then begin
    t.batch_timer_armed <- true;
    ignore
      (Sched.schedule t.sched ~delay:t.params.batch_delay_ms (fun () ->
           t.batch_timer_armed <- false;
           try_send_pre_prepares t))
  end

and on_request t (req : Request.t) =
  if t.running && t.activated then begin
    let d = Request.hash req in
    match Pool.executed_at t.pool d with
    | Some at ->
        (* A client retransmitting an executed request lost the replies:
           whichever replica it reaches answers with its reply and the
           receipt material (the designated replica may be cut off), so
           sustained loss cannot strand a completed request. *)
        answer_executed t at ~reply_to:[ req.Request.client_pk ]
          ~receipts:(Auth.receipts t.auth) ()
    | None when Pool.known t.pool d -> ()
    (* Admission control (primary only): shed fresh requests while the
       pending queue sits at or above the watermark — before signature
       verification, so backpressure costs no crypto. The Busy_msg names
       the request so the shared retransmit path can retry it. *)
    | None when shedding t ->
        Obs.incr t.ctr.c_load_rejected;
        update_queue_gauge t;
        Obs.instant t.obs ~node:t.rid ~cat:"request" ~name:"request.rejected"
          ~args:[ ("proc", req.Request.proc) ] ();
        send_to_client t req.Request.client_pk
          (Wire.Busy_msg { b_replica = t.rid; b_tx_hash = d })
    | None when Auth.verify_request t.auth ~service:t.service req ->
        received t (Pool.admit t.pool req);
        if is_primary t then Obs.incr t.ctr.c_load_admitted;
        update_queue_gauge t;
        Obs.instant t.obs ~node:t.rid ~cat:"request" ~name:"request.received"
          ~args:[ ("proc", req.Request.proc) ] ();
        if is_primary t then arm_batch_timer t;
        try_process_pending t
    | None -> tally t "replica.reject.request_signature"
  end

and on_prepare t (p : Message.prepare) =
  if t.running && t.activated && p.Message.p_replica <> t.rid && verify_prepare_sig t p
  then begin
    note_view_ahead t ~view:p.Message.p_view ~src:p.Message.p_replica;
    Votes.add_prepare t.votes p;
    check_prepared t
  end

(* The network authenticates [src]: a commit is stored only under the
   replica that sent it, so nobody can overwrite another's nonce. *)
and on_commit t ~src (c : Message.commit) =
  if t.running && t.activated && c.Message.c_replica <> t.rid && c.Message.c_replica = src
  then begin
    Auth.commit_received t.auth t.cfg c;
    Votes.add_nonce t.votes ~view:c.Message.c_view ~seqno:c.Message.c_seqno
      (c.Message.c_replica, c.Message.c_nonce);
    check_committed t;
    try_send_pre_prepares t
  end

(* ------------------------------------------------------------------ *)
(* Layer 2: roll-back (Appx. A, Lemma 1)                              *)

let rollback_to t target =
  let top = t.seqno - 1 in
  (* Remember the highest seqno ever reached before forgetting records:
     the status table keeps answering PENDING (never back to UNKNOWN) for
     rolled-back ids awaiting re-proposal. *)
  Status_index.reached t.index top;
  if top > target then begin
    tally t "replica.rollback";
    (match Hashtbl.find_opt t.records (target + 1) with
    | Some rec_ -> restore t rec_.br_undo
    | None -> ());
    for q = target + 1 to top do
      match Hashtbl.find_opt t.records q with
      | Some rec_ ->
          if not rec_.br_committed then
            Critical_path.batch_cancelled t.cp rec_.br_clock ~prepared:rec_.br_prepared;
          Hashtbl.replace t.archived_content
            (q, (rec_.br_pp.Message.g_root :> string))
            (rec_.br_pp.Message.kind, rec_.br_txs);
          (* Back in the pending pool: it will be proposed (and counted
             committed) again, so count the re-admission to keep
             requests_committed <= requests_received. *)
          List.iter (fun req -> received t (Pool.return t.pool req)) (requests_of rec_.br_txs);
          Hashtbl.remove t.records q;
          Hashtbl.remove t.batch_ledger_end q
      | None -> Hashtbl.remove t.batch_ledger_end q
    done;
    SyncServer.rollback t.server ~target;
    t.seqno <- target + 1;
    if t.last_prepared > target then t.last_prepared <- target;
    if t.last_committed > target then t.last_committed <- target
  end

(* Roll back past batch [upto] and cut the ledger to the committed
   prefix. *)
let drop_uncommitted t ~upto =
  rollback_to t upto;
  truncate_ledger t (batch_end_length t t.last_committed)

(* ------------------------------------------------------------------ *)
(* Layer 3: view changes (Alg. 2)                                     *)

(* Drop everything after batch [upto] and fetch the ledger from [src]
   until caught up with it. *)
let refetch t ~upto src =
  drop_uncommitted t ~upto;
  fetch_from t src SyncSession.If_far

let rec last_prepared_pps t =
  (* The P highest-seqno pre-prepares this replica ever prepared, surviving
     any roll-backs in between (Alg. 2 line 3). *)
  Hashtbl.fold (fun s pp acc -> (s, pp) :: acc) t.prepared_pps []
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> List.filteri (fun i _ -> i < t.params.pipeline)
  |> List.rev_map snd

(* [cause] says why, as replica.vc.cause.<cause>: "join" (f+1 view
   changes for a higher view), "stall", "gap_fetch_failed",
   "new_view_timeout" or "injected". *)
and send_view_change t ~cause v' =
  if t.running && t.activated && in_config t then begin
    Obs.incr t.ctr.c_view_changes;
    tally t ("replica.vc.cause." ^ cause);
    Obs.instant t.obs ~node:t.rid ~cat:"view" ~name:"view_change"
      ~args:[ ("view", string_of_int v'); ("cause", cause) ]
      ();
    let pps = last_prepared_pps t in
    t.view <- v';
    t.ready <- false;
    let payload =
      Message.view_change_payload ~view:v' ~replica:t.rid ~last_prepared:pps
    in
    let vc =
      {
        Message.vc_view = v';
        vc_replica = t.rid;
        vc_last_prepared = pps;
        vc_signature = Auth.sign t.auth ~cls:"view_change" payload;
      }
    in
    Hashtbl.replace (sub_tbl t.view_changes v') t.rid vc;
    broadcast_replicas t (Wire.View_change_msg vc);
    maybe_new_view t
  end

and start_view_change t ~cause = send_view_change t ~cause (t.view + 1)

and on_view_change t (vc : Message.view_change) =
  if t.running && t.activated && vc.Message.vc_view >= t.view && verify_vc_sig t vc
  then begin
    Hashtbl.replace (sub_tbl t.view_changes vc.Message.vc_view)
      vc.Message.vc_replica vc;
    if
      vc.Message.vc_view > t.view
      && Hashtbl.length (sub_tbl t.view_changes vc.Message.vc_view) > Config.f t.cfg
    then send_view_change t ~cause:"join" vc.Message.vc_view
    else maybe_new_view t
  end

(* A new view's ledger is the canonical prefix up to [target], then the
   view-change set, then the new-view (Alg. 2). Roll back to [target],
   drop any stale view-change entries past its last batch, and append the
   set. *)
and install_vc_set t ~target vcs =
  rollback_to t target;
  truncate_ledger t (batch_end_length t target);
  append_ledger t (Entry.View_change_set vcs)

and maybe_new_view t =
  if
    t.running && t.activated && (not t.ready)
    && Config.primary_of_view t.cfg t.view = t.rid
  then begin
    let v' = t.view in
    let tbl = sub_tbl t.view_changes v' in
    if Hashtbl.length tbl >= quorum t then begin
      let vcs =
        Hashtbl.fold (fun _ vc acc -> vc :: acc) tbl []
        |> List.sort (fun a b -> compare a.Message.vc_replica b.Message.vc_replica)
        |> List.filteri (fun i _ -> i < quorum t)
      in
      let s_lp = Newview.last_prepared vcs in
      let target = Newview.resume ~pipeline:t.params.pipeline vcs in
      let content_of q =
        match (Hashtbl.find_opt t.records q, Newview.prepared_at vcs q) with
        | Some rec_, Some pp
          when D.equal rec_.br_pp.Message.g_root pp.Message.g_root ->
            Some (rec_.br_pp.Message.kind, rec_.br_txs)
        | Some rec_, None when q <= t.last_committed ->
            Some (rec_.br_pp.Message.kind, rec_.br_txs)
        | Some _, None -> None
        | (Some _ | None), Some pp ->
            Hashtbl.find_opt t.archived_content (q, (pp.Message.g_root :> string))
        | None, None -> None
      in
      (* The batches to re-propose, saved before the roll back. *)
      let contents = List.init (s_lp - target) (fun i -> content_of (target + 1 + i)) in
      if t.last_committed < target || List.mem None contents then begin
        (* Our uncommitted prefix may diverge from the canonical chain:
           drop it and fetch the committed entries from a replica that
           prepared the high-water batch (Alg. 2). *)
        let reports pp (vc : Message.view_change) =
          List.exists (Message.pre_prepare_equal pp) vc.Message.vc_last_prepared
        in
        match
          Option.bind (Newview.prepared_at vcs s_lp) (fun pp -> List.find_opt (reports pp) vcs)
        with
        | Some vc -> refetch t ~upto:t.last_committed vc.Message.vc_replica
        | None -> ()
      end
      else begin
        install_vc_set t ~target vcs;
        let nv_m_root = m_root_now t in
        let nv_vc_bitmap = Newview.senders vcs and nv_vc_hash = Newview.digest vcs in
        let nv_signature =
          Auth.sign t.auth ~cls:"new_view"
            (Message.new_view_payload ~view:v' ~m_root:nv_m_root ~vc_bitmap:nv_vc_bitmap
               ~vc_hash:nv_vc_hash ~primary:t.rid)
        in
        let nv =
          {
            Message.nv_view = v';
            nv_m_root;
            nv_vc_bitmap;
            nv_vc_hash;
            nv_primary = t.rid;
            nv_signature;
          }
        in
        append_ledger t (Entry.New_view nv);
        broadcast_replicas t (Wire.New_view_msg { nv; vcs });
        t.ready <- true;
        Obs.instant t.obs ~node:t.rid ~cat:"view" ~name:"new_view"
          ~args:[ ("view", string_of_int v') ]
          ();
        (* Re-propose the prepared batches in the new view (Alg. 2 line 17),
           then resume normal batching. *)
        List.iter
          (fun (kind, txs) ->
            match evidence_for t (t.seqno - t.params.pipeline) with
            | Some (ev_prepares, ev_nonces, ev_bitmap) ->
                emit_batch t ~original:(Prefer txs) ~kind ~reqs:(requests_of txs) ~ev_prepares
                  ~ev_nonces ~ev_bitmap ()
            | None -> ())
          (List.filter_map Fun.id contents);
        try_send_pre_prepares t
      end
    end
  end

and on_new_view t (nv : Message.new_view) vcs =
  if
    t.running && t.activated
    && nv.Message.nv_view >= t.view
    && nv.Message.nv_primary <> t.rid
    && Newview.new_view_fault ~quorum:(quorum t) ~verify:(verify_vc_sig t)
         ~verify_nv:(verify_nv_sig t) nv vcs
       = None
  then begin
    t.view <- nv.Message.nv_view;
    t.ready <- false;
    t.pending_new_view <- Some (nv, vcs);
    try_complete_new_view t
  end

and try_complete_new_view t =
  match t.pending_new_view with
  | None -> ()
  | Some (nv, vcs) ->
      let target = Newview.resume ~pipeline:t.params.pipeline vcs in
      (* Our prefix diverges from the new view's canonical chain (we may
         have missed earlier view-change entries, or hold uncommitted
         batches the quorum never saw): drop back to the committed prefix
         and fetch the primary's ledger (Alg. 2's reconciliation). *)
      let reconcile () = refetch t ~upto:t.last_committed nv.Message.nv_primary in
      if t.last_committed < target then reconcile ()
      else begin
        install_vc_set t ~target vcs;
        if D.equal (m_root_now t) nv.Message.nv_m_root then begin
          t.pending_new_view <- None;
          append_ledger t (Entry.New_view nv);
          t.ready <- true;
          Obs.instant t.obs ~node:t.rid ~cat:"view" ~name:"new_view.adopted"
            ~args:[ ("view", string_of_int nv.Message.nv_view) ]
            ();
          try_process_pending t;
          (* Re-emitted pre-prepares may have been dropped before we
             adopted the view; pull the next batch explicitly. *)
          if not (Hashtbl.mem t.pending_pps t.seqno) then
            send t ~dst:(primary_id t) (Wire.Fetch_missing { fm_seqno = t.seqno })
        end
        else begin
          truncate_ledger t (Ledger.length t.ledger - 1);
          reconcile ()
        end
      end

(* ------------------------------------------------------------------ *)
(* Layer 4: catch-up (batch packages, ledger extents, snapshots)      *)

let rec on_batch_package t (bp : Wire.batch_package) =
  if t.running && t.activated then begin
    (* Adopt the requests and evidence; the buffered pre-prepare (or this
       package applied directly if we are the one behind) can then proceed. *)
    List.iter (fun req -> received t (Pool.admit t.pool req)) bp.Wire.bp_requests;
    List.iter (Votes.add_prepare t.votes) bp.Wire.bp_ev_prepares;
    let past = bp.Wire.bp_pp.Message.seqno - t.params.pipeline in
    (match Hashtbl.find_opt t.records past with
    | Some rec_ ->
        List.iter
          (Votes.add_nonce t.votes ~view:rec_.br_pp.Message.view ~seqno:past)
          bp.Wire.bp_ev_nonces;
        check_committed t
    | None -> ());
    if
      bp.Wire.bp_pp.Message.seqno = t.seqno
      && not (Hashtbl.mem t.pending_pps t.seqno)
    then
      Hashtbl.replace t.pending_pps t.seqno
        (bp.Wire.bp_pp, List.map Request.hash bp.Wire.bp_requests);
    try_process_pending t;
    check_prepared t
  end

(* What the catch-up server reads of this replica for one request. It
   serves the prefix covering batches up to last_prepared. *)
and served_ledger t =
  let served =
    match Hashtbl.find_opt t.records (t.last_prepared + 1) with
    | Some rec_ when t.last_prepared < t.seqno - 1 -> rec_.br_undo.u_ledger
    | _ -> Ledger.length t.ledger
  in
  {
    SyncServer.served;
    entry = Ledger.get t.ledger;
    batch_end = Hashtbl.find_opt t.batch_ledger_end;
  }

(* The one catch-up request: a snapshot offer or a suffix extent, as the
   requester's policy allows. *)
and on_fetch_ledger t ~src ~from_len ~offer =
  if keep_ledger t then begin
    let l = served_ledger t in
    match
      SyncServer.answer t.server l offer ~from_len
        ~pruned_upto:(Option.fold ~none:0 ~some:Storage.pruned_before t.storage)
    with
    | Some (SyncServer.Offer { cp_seqno; total; bytes }) ->
        send t ~dst:src
          (Wire.Snapshot_offer
             {
               so_cp_seqno = cp_seqno;
               so_total = total;
               so_bytes = bytes;
               so_upto = l.served;
               so_view = t.view;
             })
    | Some (SyncServer.Extent entries) ->
        send t ~dst:src
          (Wire.Ledger_suffix_chunk
             {
               lc_from = from_len;
               lc_entries = entries;
               lc_upto = l.served;
               lc_view = t.view;
             })
    | None -> ()
  end

(* Apply one batch of a received or recovered ledger extent: append its
   evidence verbatim, re-execute it keeping the recorded entries, check it
   against its pre-prepare, and commit it. [false], with nothing changed,
   if it does not check out. *)
and apply_batch t (pp : Message.pre_prepare) ~evidence txs =
  let s = pp.Message.seqno in
  if s <> t.seqno || not (verify_pp_sig t pp) then false
  else begin
    (* A batch we execute feeds its evidence to the message stores, so
       later evidence assembly works. *)
    List.iter
      (function
        | Entry.Prepare_evidence { pe_prepares; _ } ->
            List.iter (Votes.add_prepare t.votes) pe_prepares
        | Entry.Nonce_evidence { ne_view; ne_seqno; ne_nonces } ->
            List.iter (Votes.add_nonce t.votes ~view:ne_view ~seqno:ne_seqno) ne_nonces
        | _ -> ())
      evidence;
    (* Indices are adopted from the recorded entries (they are bound by
       the signed g_root and may be lower than the physical position if
       the batch was re-proposed after a view change). *)
    match run_batch t ~against:pp ~evidence (requests_of txs) (Require txs) with
    | None -> false
    | Some (undo, txs, writes, _) ->
        append_batch t pp txs;
        ignore (add_record t pp ~txs ~writes ~ev_prepares:[] ~ev_nonces:[] ~undo ~committed:true);
        note_prepared t pp;
        post_execute_batch t pp txs;
        commit_applied t pp ~index_writes:true;
        true
  end

(* A batch of a ledger extent is in the ledger: it seals what it seals,
   and this replica moves past it as committed. *)
and commit_applied t (pp : Message.pre_prepare) ~index_writes =
  let s = pp.Message.seqno in
  seal_from_kind t pp;
  t.seqno <- s + 1;
  t.last_prepared <- max t.last_prepared s;
  t.last_committed <- max t.last_committed s;
  Status_index.commit t.index ~seqno:s ~view:pp.Message.view ~index_writes
    ~last_committed:t.last_committed;
  retire_if_handed_over t

(* A view-change set or new view of a ledger extent, once appended. *)
and note_protocol t = function
  | Entry.View_change_set vcs ->
      List.iter
        (fun (vc : Message.view_change) ->
          Hashtbl.replace (sub_tbl t.view_changes vc.Message.vc_view) vc.Message.vc_replica vc)
        vcs
  | Entry.New_view nv -> if nv.Message.nv_view > t.view then t.view <- nv.Message.nv_view
  | _ -> ()

(* A new-view entry from a ledger extent follows the view-change set it
   names and binds the ledger up to it; the set was checked when it was
   appended. *)
and ingests_new_view t (nv : Message.new_view) =
  match Ledger.get t.ledger (Ledger.length t.ledger - 1) with
  | Entry.View_change_set vcs ->
      D.equal (m_root_now t) nv.Message.nv_m_root && new_view_ok t vcs nv
  | _ -> false

(* Apply a received ledger extent (grouped by Entry.batches) batch by
   batch, adopting view changes along the way, until the first batch or
   view-change entry that does not check out. State transfer thus
   reconstructs exactly the sender's ledger, including the view-change and
   new-view entries that batch replay alone would miss. *)
and apply_items t items =
  let rec go progressed = function
    | [] | Entry.Malformed _ :: _ -> progressed
    | Entry.Batch { evidence; pp; txs } :: rest ->
        if apply_batch t pp ~evidence txs then go true rest else progressed
    | Entry.Protocol (Entry.View_change_set vcs as e) :: rest when vc_set_ok t vcs ->
        append_ledger t e;
        note_protocol t e;
        go progressed rest
    | Entry.Protocol (Entry.New_view nv as e) :: rest when ingests_new_view t nv ->
        append_ledger t e;
        note_protocol t e;
        go true rest
    | Entry.Protocol _ :: _ -> progressed
  in
  go false items

and on_ledger_suffix_chunk t ~src ~lc_from ~lc_entries ~lc_upto ~lc_view =
  if t.running && keep_ledger t then begin
    match
      SyncSession.on_suffix t.sync_client ~src ~from:lc_from lc_entries ~upto:lc_upto
        ~view:lc_view
    with
    | Some actions -> run_sync_actions t actions
    | None ->
        (* Not for a session: incremental catch-up, applied as it arrives. *)
        if lc_from = Ledger.length t.ledger && apply_items t (Entry.batches lc_entries)
        then begin
          if lc_view > t.view && t.pending_new_view = None then t.view <- lc_view;
          if in_config t && not t.activated then t.activated <- true;
          (match t.fetch_target with
          | Some target when Ledger.length t.ledger < lc_upto || not t.activated ->
              fetch_ledger t ~dst:target SyncSession.If_far
          | Some _ -> t.fetch_target <- None
          | None ->
              if Ledger.length t.ledger < lc_upto then
                fetch_ledger t ~dst:src SyncSession.Never);
          resume_after_catch_up t
        end
  end

and resume_after_catch_up t =
  try_complete_new_view t;
  maybe_new_view t;
  try_process_pending t;
  check_prepared t;
  try_send_pre_prepares t

(* The requesting side of a snapshot catch-up lives in Session; the
   replica carries out its actions. Accepting an offer drops our
   speculative (uncommitted) tail: everything received is verified before
   installation, so a bogus offer costs only that tail, which a real
   catch-up would discard anyway. *)
and on_snapshot_offer t ~src ~cp_seqno ~total ~bytes ~upto ~view =
  if t.running && keep_ledger t then
    run_sync_actions t
      (SyncSession.on_offer t.sync_client (sync_hooks t) ~src ~cp_seqno ~total
         ~bytes ~upto ~view ~last_committed:t.last_committed ~rollback:(fun () ->
           drop_uncommitted t ~upto:t.last_committed;
           Ledger.length t.ledger))

and run_sync_actions t actions =
  List.iter
    (function
      | SyncSession.Request_chunks { peer; cp_seqno; indices } ->
          List.iter
            (fun i ->
              send t ~dst:peer
                (Wire.Fetch_snapshot_chunk { fc_cp_seqno = cp_seqno; fc_index = i }))
            indices
      | SyncSession.Request_suffix { peer; from_len } ->
          send t ~dst:peer
            (Wire.Fetch_ledger { fl_from_len = from_len; fl_offer = SyncSession.Never })
      | SyncSession.Retarget peer -> fetch_from t peer SyncSession.If_far
      | SyncSession.Install i -> install_snapshot t i)
    actions

and install_snapshot t (i : SyncSession.install) =
  let cp_seqno = i.cp.Checkpoint.seqno in
  adopt_checkpoint t i.cp i.digest i.extent;
  SyncServer.seal t.server ~cp_seqno ~cp_digest:i.digest ~seal_seqno:i.seal_seqno
    ~persist:false;
  if i.view > t.view && t.pending_new_view = None then t.view <- i.view;
  if in_config t && not t.activated then t.activated <- true;
  let skipped = max 0 (batch_end_length t cp_seqno - i.suffix_from) in
  Obs.incr t.sync.installs;
  Obs.add t.sync.entries_skipped skipped;
  Obs.Histogram.observe t.sync.duration_ms (Obs.now t.obs -. i.started);
  Obs.instant t.obs ~node:t.rid ~cat:"statesync" ~name:"statesync.install"
    ~args:[ ("cp_seqno", string_of_int cp_seqno); ("entries_skipped", string_of_int skipped) ]
    ();
  if Ledger.length t.ledger < i.upto then fetch_ledger t ~dst:i.peer SyncSession.Never;
  resume_after_catch_up t

(* Checkpoint-based bootstrap (§3.4), from a peer or from disk: install
   the checkpoint's state, adopt the extent the install gate checked
   (check_extent) as it stands, without re-execution or a second check,
   execute the batches past it, read the configuration back from the
   installed state, and record the checkpoint. The key-value store comes
   from the checkpoint, so adopted batches have no write sets to index.
   Joining mid-reconfiguration is not supported. *)
and adopt_checkpoint t cp digest extent =
  Store.reset_to t.store cp.Checkpoint.state;
  let rest =
    SyncValidate.adopt t.ledger extent (fun item ~upto ->
        match item with
        | Entry.Batch { pp; txs; _ } ->
            retire_batch t pp txs;
            move_gov_index_and_dc t pp txs;
            Hashtbl.replace t.batch_ledger_end pp.Message.seqno upto;
            commit_applied t pp ~index_writes:false
        | Entry.Protocol e -> note_protocol t e
        | Entry.Malformed _ -> ())
  in
  ignore (apply_items t rest);
  Option.iter (fun c -> t.cfg <- c) (stored_config t);
  SyncServer.adopt t.server cp digest

(* ------------------------------------------------------------------ *)
(* Layer 5: the progress timer (retransmission, then view change)     *)

(* While a session is in flight, the ordinary stall and view-change
   escalation stays out of its way. A passive joiner keeps pulling state
   until our configuration includes us and we have caught up (§5.1). *)
let rec progress_tick t =
  if t.running then begin
    (* One trace instant per tick: where the replica stood. *)
    if t.activated then
      Obs.instant t.obs ~node:t.rid ~cat:"replica" ~name:"replica.tick"
        ~args:
          [
            ("view", string_of_int t.view);
            ("seqno", string_of_int t.seqno);
            ("last_committed", string_of_int t.last_committed);
            ("last_prepared", string_of_int t.last_prepared);
            ("stall", string_of_int t.stall_count);
            ("ready", string_of_bool t.ready);
            ("requests", string_of_int (Pool.size t.pool));
            ("pending", string_of_int (Hashtbl.length t.pending_pps));
          ]
        ();
    run_sync_actions t (SyncSession.tick t.sync_client);
    if SyncSession.syncing t.sync_client then arm_progress_timer t
    else if t.activated then progress_tick_active t
    else begin
      Option.iter (fun dst -> fetch_ledger t ~dst SyncSession.If_far) t.fetch_target;
      arm_progress_timer t
    end
  end

and progress_tick_active t =
  let working =
    Pool.size t.pool > 0
    || t.last_committed < t.seqno - 1
    || Hashtbl.length t.pending_pps > 0
    || not t.ready
  in
  if working && t.last_committed = t.progress_marker then begin
    t.stall_count <- t.stall_count + 1;
    let has_gap =
      Hashtbl.fold (fun s _ acc -> acc || s > t.seqno) t.pending_pps false
    in
    (* First stall with a gap: likely just lost messages. Drop the
       speculative suffix and bulk-fetch from the committed prefix; if
       that does not restore progress by the next tick, suspect the
       primary instead. Where the fleet has visibly moved to a later view
       and the primary to fetch from would be ourselves, or where we
       would escalate, catch up to that view instead. *)
    let gap_fetch = has_gap && t.ready && t.stall_count <= 1 in
    match view_ahead t with
    | Some src when t.ready && not (gap_fetch && primary_id t <> t.rid) ->
        (* The fleet moved to a view whose new-view we never received (we
           were down when it went out). Our own view change would find
           nobody to join it, so catch up from a replica in that view: the
           New_view entries move us into the view through apply_items.
           Roll back P batches below our committed prefix first: every
           later new view's rollback target is at or above that point, so
           what remains is a prefix of the sender's ledger. *)
        refetch t ~upto:(max 0 (t.last_committed - t.params.pipeline)) src
    | _ when gap_fetch ->
        drop_uncommitted t ~upto:t.last_committed;
        fetch_ledger t ~dst:(primary_id t) SyncSession.If_far
    | _ ->
        start_view_change t
          ~cause:
            (if not t.ready then "new_view_timeout"
             else if has_gap then "gap_fetch_failed"
             else "stall")
  end
  else if not working then t.stall_count <- 0;
  t.progress_marker <- t.last_committed;
  arm_progress_timer t

and arm_progress_timer t =
  (* Exponential backoff under repeated stalls (as in PBFT) so competing
     view changes can converge instead of racing each other. *)
  let backoff = float_of_int (1 lsl min t.stall_count 6) in
  ignore
    (Sched.schedule t.sched ~delay:(t.params.vc_timeout_ms *. backoff) (fun () ->
         progress_tick t))

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let on_message t ~src msg =
  if t.running then begin
    Option.iter (Network.send t.network ~src:t.rid ~dst:src) (Auth.ack t.auth ~self:t.rid ~src msg);
    (match msg with
    | Wire.Request_msg r -> on_request t r
    | Wire.Pre_prepare_msg { pp; batch } -> on_pre_prepare t pp batch
    | Wire.Prepare_msg p -> on_prepare t p
    | Wire.Commit_msg c -> on_commit t ~src c
    | Wire.View_change_msg vc -> on_view_change t vc
    | Wire.New_view_msg { nv; vcs } -> on_new_view t nv vcs
    | Wire.Fetch_missing { fm_seqno } -> (
        match batch_package t ~seqno:fm_seqno with
        | Some bp -> send t ~dst:src (Wire.Batch_package_msg bp)
        | None -> ())
    | Wire.Batch_package_msg bp -> on_batch_package t bp
    | Wire.Fetch_ledger { fl_from_len; fl_offer } ->
        on_fetch_ledger t ~src ~from_len:fl_from_len ~offer:fl_offer
    | Wire.Snapshot_offer { so_cp_seqno; so_total; so_bytes; so_upto; so_view } ->
        on_snapshot_offer t ~src ~cp_seqno:so_cp_seqno ~total:so_total
          ~bytes:so_bytes ~upto:so_upto ~view:so_view
    | Wire.Fetch_snapshot_chunk { fc_cp_seqno; fc_index } -> (
        match
          SyncServer.chunk t.server ~cp_seqno:fc_cp_seqno ~index:fc_index
        with
        | Some (total, data) ->
            send t ~dst:src
              (Wire.Snapshot_chunk
                 {
                   sc_cp_seqno = fc_cp_seqno;
                   sc_index = fc_index;
                   sc_total = total;
                   sc_data = data;
                 })
        | None -> ())
    | Wire.Snapshot_chunk { sc_cp_seqno; sc_index; sc_total = _; sc_data } ->
        run_sync_actions t
          (SyncSession.on_chunk t.sync_client ~src ~cp_seqno:sc_cp_seqno
             ~index:sc_index sc_data)
    | Wire.Ledger_suffix_chunk { lc_from; lc_entries; lc_upto; lc_view } ->
        on_ledger_suffix_chunk t ~src ~lc_from ~lc_entries ~lc_upto ~lc_view
    | Wire.Replyx_request { rr_tx_hash } ->
        (* The client may not know which batch its transaction landed in;
           the pool does. *)
        Option.iter
          (fun at -> answer_executed t at ~reply_to:[] ~receipts:true ~replyx_to:src ())
          (Pool.executed_at t.pool rr_tx_hash)
    | Wire.Gov_receipts_request { gr_from_index } ->
        let receipts =
          List.filter
            (fun r -> r.Receipt.pp.Message.gov_index >= gr_from_index)
            (gov_receipts t)
        in
        send t ~dst:src (Wire.Gov_receipts_msg receipts)
    | Wire.Gov_receipts_msg _ | Wire.Reply_msg _ | Wire.Replyx_msg _ -> ()
    | Wire.Ack_msg _ | Wire.Busy_msg _ -> ()
    | Wire.Status_query _ | Wire.Status_info _ | Wire.Read_query _ | Wire.Read_answer _
    | Wire.Audit_query _ | Wire.Audit_answer _ ->
        (* Status, read and audit serving belongs to observers
           (Iaccf_observer); replicas ignore these to keep the consensus
           path untouched. *)
        ());
  end

let dispatch = on_message

(* The arrival hook: a request that [on_request] would check, were it
   delivered now, has its client signature checked ahead on the
   background worker. Only the wall time of the check it stands in for
   moves (see Sigcheck.ahead). *)
let on_arrival t ~src:_ = function
  | Wire.Request_msg req
    when t.running && t.activated
         && (not (Pool.known t.pool (Request.hash req)))
         && not (shedding t) ->
      Auth.precheck_request t.auth ~service:t.service req
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

(* Cold-start restore (§3.4 bootstrap, from disk instead of a peer): replay
   a recovered store's entries through the same validation path as state
   transfer, so the key-value store, Merkle tree, and protocol bookkeeping
   are all re-derived from — and checked against — the durable ledger.
   Whatever fails replay stays on disk for [Store.attach] to judge. *)
let restore_from_storage t storage =
  if Storage.length storage > 0 then begin
    let all = Storage.history storage in
    (match all with
    | Entry.Genesis g :: _ ->
        if not (D.equal (Genesis.hash g) t.service) then
          raise
            (Storage.Storage_error
               "persisted store belongs to a different service (genesis mismatch)")
    | _ ->
        raise (Storage.Storage_error "persisted store does not begin with a genesis entry"));
    let entries = List.tl all in
    (* Resume from the newest durable snapshot whose digest a signed
       checkpoint batch in the durable history seals, if the install gate
       passes the history up to it: install its state and adopt that
       extent without re-execution, replaying only the batches past it. *)
    let gated (cp, digest) =
      Result.to_option (check_extent t ~cp_seqno:cp.Checkpoint.seqno entries)
      |> Option.map (fun extent -> (cp, digest, extent))
    in
    match Option.bind (SyncServer.restore_point t.server ~verify_pp:(verify_pp_sig t) entries) gated with
    | Some (cp, digest, extent) ->
        adopt_checkpoint t cp digest extent;
        Obs.incr t.sync.cold_snapshot_restore
    | None ->
        ignore (apply_items t (Entry.batches entries));
        if Storage.length storage > 1 then Obs.incr t.sync.cold_genesis_replay
  end

let create ~id ~sk ~genesis ~app ~params ~sched ~network ~client_address ~rng
    ?obs ?profile ?storage () =
  if params.checkpoint_interval <= params.pipeline then
    invalid_arg "Replica.create: checkpoint interval must exceed the pipeline depth";
  let cfg = genesis.Genesis.initial_config in
  let obs = match obs with Some o -> o | None -> Obs.passive () in
  let profile = match profile with Some p -> p | None -> Profile.disabled in
  Obs.set_node_name obs id (Printf.sprintf "replica-%d" id);
  let auth = Auth.create params.variant ~sk ~rid:id ~obs ~profile in
  let store = Store.create () in
  let sync = SyncMetrics.make obs in
  let cp0 = Checkpoint.make ~seqno:0 (Store.map store) in
  let votes = Votes.create ~nonce_key:(Rng.bytes rng 32) in
  let server =
    SyncServer.create ~metrics:sync ~obs ~node:id ~interval:params.checkpoint_interval
      ~snapshot_interval:params.snapshot_interval
      ~dir:(Option.map (fun s -> (Storage.config s).Storage.dir) storage)
  in
  SyncServer.take server cp0;
  let t =
    {
      rid = id;
      auth;
      genesis;
      service = Genesis.hash genesis;
      app;
      params;
      sched;
      network;
      client_address;
      rng;
      obs;
      profile;
      ctr = make_counters obs id;
      cp = Critical_path.recorder obs ~node:id;
      rule =
        {
          Schedule.pipeline = params.pipeline;
          interval = params.checkpoint_interval;
          checkpoints = Auth.checkpoints auth;
        };
      cfg;
      view = 0;
      seqno = 1;
      ready = true;
      running = false;
      activated = Config.replica cfg id <> None;
      last_prepared = 0;
      last_committed = 0;
      gov_index = 0;
      current_dc = Checkpoint.digest cp0;
      phase = Schedule.Normal;
      store;
      ledger = Ledger.create genesis;
      storage;
      pool = Pool.create ();
      records = Hashtbl.create 64;
      votes;
      view_changes = Hashtbl.create 8;
      pending_pps = Hashtbl.create 8;
      server;
      sync_client = SyncSession.create ~obs ~node:id ~metrics:sync;
      sync;
      gov_receipts_rev = [];
      progress_marker = 0;
      batch_timer_armed = false;
      pending_new_view = None;
      fetch_target = None;
      extra_recipients = [];
      stall_count = 0;
      ahead_view = 0;
      ahead_from = [];
      prepared_pps = Hashtbl.create 16;
      batch_ledger_end = Hashtbl.create 32;
      archived_content = Hashtbl.create 16;
      index = Status_index.create ~pipeline:params.pipeline;
    }
  in
  (match storage with
  | Some s ->
      if not (keep_ledger t) then
        invalid_arg "Replica.create: storage requires the keep_ledger variant";
      (* Restore any persisted history first: the replica replays — and
         revalidates — the store's entries before the store becomes the
         ledger's write-through backend. *)
      restore_from_storage t s;
      Storage.attach s t.ledger
  | None -> ());
  Network.register network id ~arrival:(on_arrival t) (fun ~src msg -> on_message t ~src msg);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    arm_progress_timer t
  end

let stop t = t.running <- false

let preload_state t kvs =
  if t.seqno <> 1 then invalid_arg "Replica.preload_state: already executing";
  Store.reset_to t.store (Iaccf_kv.State.of_list kvs)

let inject_view_change t = start_view_change t ~cause:"injected"

let join t ~from = if t.running then fetch_from t from SyncSession.If_far
let join_snapshot t ~from = if t.running then fetch_from t from SyncSession.Always

(* Ledger compaction: drop the durable prefix behind the newest sealed,
   durably-snapshotted checkpoint. The in-memory ledger keeps the full
   history (live peers are still served everything); only disk shrinks,
   and the dropped prefix survives as the store's audit package. *)
let prune t =
  match t.storage with
  | None -> invalid_arg "Replica.prune: no durable storage attached"
  | Some storage ->
      let cut = SyncServer.prune_point t.server ~batch_end:(Hashtbl.find_opt t.batch_ledger_end) in
      let dropped = Option.fold ~none:0 ~some:(Storage.prune_before storage) cut in
      Obs.add t.sync.prune_entries dropped;
      dropped
