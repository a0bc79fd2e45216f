module Sched = Iaccf_sim.Sched
module Network = Iaccf_sim.Network
module Schnorr = Iaccf_crypto.Schnorr
module D = Iaccf_crypto.Digest32

type endorsement = { e_peer : int; e_sig : string }

type msg =
  | Propose of { pr_id : D.t; pr_payload : string; pr_client : int }
  | Endorse of { en_id : D.t; en_endorsement : endorsement }
  | Order of { or_id : D.t; or_payload : string; or_client : int; or_endorsements : endorsement list }
  | Deliver of { dl_seq : int; dl_id : D.t; dl_client : int; dl_endorsements : endorsement list; dl_payload : string }
  | FbReply of { fr_id : D.t; fr_peer : int }

type peer = {
  f_id : int;
  f_sk : Schnorr.secret_key;
  mutable f_committed : int;
  f_store : Iaccf_kv.Store.t;
}

type cluster = {
  peers : peer array;
  pks : Schnorr.public_key array;
  policy : int;
  orderer : int; (* address *)
  sched : Sched.t;
  network : msg Network.t;
  mutable next_seq : int;
  mutable sigs_made : int;
  mutable sigs_verified : int;
}

let tx_digest id payload = D.of_string (D.to_raw id ^ payload)

let on_peer_message t (p : peer) ~src msg =
  match msg with
  | Propose { pr_id; pr_payload; pr_client = _ } ->
      (* Endorsement: simulate chaincode execution against local state and
         sign the transaction — one signature per tx per endorser. *)
      let tx = Iaccf_kv.Store.begin_tx p.f_store in
      Iaccf_kv.Store.put tx ("fabric/" ^ D.to_hex pr_id) pr_payload;
      ignore (Iaccf_kv.Store.commit tx);
      t.sigs_made <- t.sigs_made + 1;
      let e_sig = Schnorr.sign p.f_sk (D.to_raw (tx_digest pr_id pr_payload)) in
      Network.send t.network ~src:p.f_id ~dst:src
        (Endorse { en_id = pr_id; en_endorsement = { e_peer = p.f_id; e_sig } })
  | Deliver { dl_seq = _; dl_id; dl_client; dl_endorsements; dl_payload } ->
      (* Validation: verify every endorsement signature, then apply. *)
      let valid =
        List.length dl_endorsements >= t.policy
        && List.for_all
             (fun e ->
               t.sigs_verified <- t.sigs_verified + 1;
               Schnorr.verify t.pks.(e.e_peer)
                 (D.to_raw (tx_digest dl_id dl_payload))
                 ~signature:e.e_sig)
             dl_endorsements
      in
      if valid then begin
        let tx = Iaccf_kv.Store.begin_tx p.f_store in
        Iaccf_kv.Store.put tx ("state/" ^ D.to_hex dl_id) dl_payload;
        ignore (Iaccf_kv.Store.commit tx);
        p.f_committed <- p.f_committed + 1;
        Network.send t.network ~src:p.f_id ~dst:dl_client
          (FbReply { fr_id = dl_id; fr_peer = p.f_id })
      end
  | Endorse _ | Order _ | FbReply _ -> ()

let on_orderer_message t ~src:_ msg =
  match msg with
  | Order { or_id; or_payload; or_client; or_endorsements } ->
      (* Raft leader append: sequence and deliver to all peers. *)
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      Array.iter
        (fun p ->
          Network.send t.network ~src:t.orderer ~dst:p.f_id
            (Deliver
               {
                 dl_seq = seq;
                 dl_id = or_id;
                 dl_client = or_client;
                 dl_endorsements = or_endorsements;
                 dl_payload = or_payload;
               }))
        t.peers
  | Propose _ | Endorse _ | Deliver _ | FbReply _ -> ()

let spawn ~peers ~endorsement_policy ~sched ~network ~seed () =
  let keys =
    Array.init peers (fun i -> Schnorr.keypair_of_seed (Printf.sprintf "fabric-%d-%d" seed i))
  in
  let parr =
    Array.init peers (fun i ->
        { f_id = i; f_sk = fst keys.(i); f_committed = 0; f_store = Iaccf_kv.Store.create () })
  in
  let t =
    {
      peers = parr;
      pks = Array.map snd keys;
      policy = endorsement_policy;
      orderer = peers;
      sched;
      network;
      next_seq = 0;
      sigs_made = 0;
      sigs_verified = 0;
    }
  in
  Array.iter
    (fun p -> Network.register network p.f_id (fun ~src msg -> on_peer_message t p ~src msg))
    parr;
  Network.register network t.orderer (fun ~src msg -> on_orderer_message t ~src msg);
  t

let committed t = Array.fold_left (fun acc p -> max acc p.f_committed) 0 t.peers
let signatures_made t = t.sigs_made
let signatures_verified t = t.sigs_verified

type pending = {
  p_sent : float;
  p_payload : string;
  mutable p_endorsements : endorsement list;
  mutable p_ordered : bool;
  mutable p_replies : int list;
  mutable p_done : bool;
  p_cb : latency_ms:float -> unit;
}

type client = {
  cl_cluster : cluster;
  cl_address : int;
  cl_sched : Sched.t;
  cl_network : msg Network.t;
  mutable cl_seq : int;
  cl_pending : (string, pending) Hashtbl.t;
  mutable cl_completed : int;
  mutable cl_latencies : float list;
}

let client cluster ~address ~sched ~network =
  let c =
    {
      cl_cluster = cluster;
      cl_address = address;
      cl_sched = sched;
      cl_network = network;
      cl_seq = 0;
      cl_pending = Hashtbl.create 16;
      cl_completed = 0;
      cl_latencies = [];
    }
  in
  Network.register network address (fun ~src msg ->
      match msg with
      | Endorse { en_id; en_endorsement } -> (
          match Hashtbl.find_opt c.cl_pending (D.to_raw en_id) with
          | Some p when (not p.p_ordered) && not p.p_done ->
              if not (List.exists (fun e -> e.e_peer = en_endorsement.e_peer) p.p_endorsements)
              then begin
                p.p_endorsements <- en_endorsement :: p.p_endorsements;
                if List.length p.p_endorsements >= cluster.policy then begin
                  p.p_ordered <- true;
                  Network.send network ~src:address ~dst:cluster.orderer
                    (Order
                       {
                         or_id = en_id;
                         or_payload = p.p_payload;
                         or_client = address;
                         or_endorsements = p.p_endorsements;
                       })
                end
              end
          | _ -> ())
      | FbReply { fr_id; fr_peer = _ } -> (
          match Hashtbl.find_opt c.cl_pending (D.to_raw fr_id) with
          | Some p when not p.p_done ->
              if not (List.mem src p.p_replies) then begin
                p.p_replies <- src :: p.p_replies;
                (* Crash-fault model: the first commit reply suffices. *)
                p.p_done <- true;
                Hashtbl.remove c.cl_pending (D.to_raw fr_id);
                c.cl_completed <- c.cl_completed + 1;
                let latency = Sched.now sched -. p.p_sent in
                c.cl_latencies <- latency :: c.cl_latencies;
                p.p_cb ~latency_ms:latency
              end
          | _ -> ())
      | Propose _ | Order _ | Deliver _ -> ());
  c

let submit c ~payload ~on_complete =
  let id = D.of_string (Printf.sprintf "fab-%d-%d" c.cl_address c.cl_seq) in
  c.cl_seq <- c.cl_seq + 1;
  Hashtbl.replace c.cl_pending (D.to_raw id)
    {
      p_sent = Sched.now c.cl_sched;
      p_payload = payload;
      p_endorsements = [];
      p_ordered = false;
      p_replies = [];
      p_done = false;
      p_cb = on_complete;
    };
  (* Send the proposal to enough endorsing peers. *)
  for dst = 0 to min (c.cl_cluster.policy + 1) (Array.length c.cl_cluster.peers) - 1 do
    Network.send c.cl_network ~src:c.cl_address ~dst
      (Propose { pr_id = id; pr_payload = payload; pr_client = c.cl_address })
  done

let client_latencies c = List.rev c.cl_latencies
