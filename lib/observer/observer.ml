module Sched = Iaccf_sim.Sched
module Network = Iaccf_sim.Network
module Schnorr = Iaccf_crypto.Schnorr
module D = Iaccf_crypto.Digest32
module Ledger = Iaccf_ledger.Ledger
module Entry = Iaccf_ledger.Entry
module State = Iaccf_kv.State
module Kv = Iaccf_kv.Store
module Obs = Iaccf_obs.Obs
open Iaccf_core

(* Observer addresses sit far above both replica ids (< Bitmap.max_replicas
   = 64) and client addresses (Cluster.client_base = 100, counting up), so
   the three tiers never collide. *)
let default_base = 9000

type t = {
  addr : int;
  inner : Replica.t;
  network : Wire.t Network.t;
  obs : Obs.t;
  c_status : Obs.counter;
  c_reads : Obs.counter;
  c_reads_unindexed : Obs.counter;
  c_audit : Obs.counter;
  c_audit_refused : Obs.counter;
}

let address t = t.addr
let replica t = t.inner
let synced_upto t = Replica.last_committed t.inner
let stop_tailing t = Replica.stop t.inner

let serve_status t ~src ~view ~seqno =
  Obs.incr t.c_status;
  Network.send t.network ~src:t.addr ~dst:src
    (Wire.Status_info
       {
         si_view = view;
         si_seqno = seqno;
         si_status = Replica.tx_status t.inner ~view ~seqno;
         si_committed = Replica.stable_committed t.inner;
       })

let serve_read t ~src ~key ~nonce =
  Obs.incr t.c_reads;
  let value = State.find_opt key (Kv.map (Replica.store t.inner)) in
  let seqno, pos, write_set, receipt =
    match Replica.last_write t.inner key with
    | Some (seqno, pos) ->
        let write_set =
          Option.value
            (Replica.tx_write_set t.inner ~seqno ~tx_position:pos)
            ~default:[]
        in
        (seqno, pos, write_set, Replica.build_receipt t.inner ~seqno ~tx_position:(Some pos))
    | None ->
        (* Key never written by a locally executed transaction (unwritten,
           or last written before an installed snapshot's horizon): the
           value is served without evidence and the reader must treat it
           as unverified. *)
        if value <> None then Obs.incr t.c_reads_unindexed;
        (0, 0, [], None)
  in
  Network.send t.network ~src:t.addr ~dst:src
    (Wire.Read_answer
       {
         ra_key = key;
         ra_nonce = nonce;
         ra_value = value;
         ra_seqno = seqno;
         ra_tx_position = pos;
         ra_write_set = write_set;
         ra_receipt = receipt;
       })

let serve_audit t ~src ~index =
  let ledger = Replica.ledger t.inner in
  if index < 0 || index >= Ledger.length ledger then Obs.incr t.c_audit_refused
  else begin
    let entry = Ledger.get ledger index in
    if not (Entry.in_merkle_tree entry) then Obs.incr t.c_audit_refused
    else begin
      Obs.incr t.c_audit;
      (* The entry's leaf index in M is the number of Merkle-bound entries
         before it; transaction entries are bound via the per-batch g_root
         instead and are refused above. *)
      let m_index = Ledger.m_size_at ledger index in
      Network.send t.network ~src:t.addr ~dst:src
        (Wire.Audit_answer
           {
             au_index = index;
             au_leaf = Entry.leaf_digest entry;
             au_m_index = m_index;
             au_m_size = Ledger.m_size ledger;
             au_path = Ledger.m_path ledger m_index;
             au_root = Ledger.m_root ledger;
           })
    end
  end

(* The observer's front door: read-tier queries are answered here — from
   local state only, even when the inner replica has been stopped — and
   everything else (suffix chunks, snapshot transfer, pre-prepares it
   tails) is fed through the passive replica's normal dispatch. *)
let handle t ~src msg =
  match msg with
  | Wire.Status_query { sq_view; sq_seqno } ->
      serve_status t ~src ~view:sq_view ~seqno:sq_seqno
  | Wire.Read_query { rq_key; rq_nonce } ->
      serve_read t ~src ~key:rq_key ~nonce:rq_nonce
  | Wire.Audit_query { aq_index } -> serve_audit t ~src ~index:aq_index
  | msg -> Replica.dispatch t.inner ~src msg

(* An observer at network address [addr] tailing replica [source]. With
   [snapshot] it bootstraps from the source's newest sealed snapshot
   instead of replaying the whole ledger; keys last written before the
   snapshot horizon are then served without verification evidence (their
   writer never executed locally; counted in
   observer.<addr>.reads_unindexed). *)
let create ~addr ~source ~genesis ~app ~params ~sched ~network ~rng ?obs
    ?(snapshot = false) () =
  let obs = match obs with Some o -> o | None -> Obs.passive () in
  let sk, _ = Schnorr.keypair_of_seed (Printf.sprintf "observer-%d" addr) in
  (* The inner replica's id is not in any configuration, so it never
     activates: it cannot vote, sign prepares, or emit batches — it only
     tails the ledger via the state-sync protocol and replays it through
     the verified state-transfer path. [client_address] is [None] for
     every key so it never sends client replies either. *)
  let inner =
    Replica.create ~id:addr ~sk ~genesis ~app ~params ~sched ~network
      ~client_address:(fun _ -> None) ~rng ~obs ()
  in
  let c name = Obs.counter obs (Printf.sprintf "observer.%d.%s" addr name) in
  let t =
    {
      addr;
      inner;
      network;
      obs;
      c_status = c "status_served";
      c_reads = c "reads_served";
      c_reads_unindexed = c "reads_unindexed";
      c_audit = c "audit_paths_served";
      c_audit_refused = c "audit_refused";
    }
  in
  Obs.set_node_name obs addr (Printf.sprintf "observer-%d" addr);
  (* Take over the network address: Replica.create registered the inner
     replica's handler; re-registering replaces it with the front door. *)
  Network.register network addr (fun ~src msg -> handle t ~src msg);
  Replica.start inner;
  (* Continuous tailing: join sets the fetch target and sends the first
     catch-up request; as a never-activated replica, the inner replica's
     progress tick keeps re-fetching from the target forever, pulling each
     new committed suffix as the source's ledger grows. *)
  if snapshot then Replica.join_snapshot inner ~from:source
  else Replica.join inner ~from:source;
  t

let spawn cluster ~addr ?(source = 0) ?(snapshot = false) () =
  create ~addr ~source ~genesis:(Cluster.genesis cluster)
    ~app:(Cluster.app cluster) ~params:(Cluster.params cluster)
    ~sched:(Cluster.sched cluster) ~network:(Cluster.network cluster)
    ~rng:(Cluster.fork_rng cluster) ~obs:(Cluster.obs cluster) ~snapshot ()
