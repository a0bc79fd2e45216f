module Sched = Iaccf_sim.Sched
module Network = Iaccf_sim.Network
module Schnorr = Iaccf_crypto.Schnorr
module D = Iaccf_crypto.Digest32
module Codec = Iaccf_util.Codec

type command = { c_id : D.t; c_payload : string; c_client : int; c_sig : string }

type qc = { qc_height : int; qc_block : D.t; qc_sigs : (int * string) list }

type block = {
  b_height : int;
  b_parent : D.t;
  b_justify : qc;
  b_cmds : command list;
  b_proposer : int;
  b_sig : string;
}

type msg =
  | Cmd of command
  | Proposal of block
  | Vote of { v_height : int; v_block : D.t; v_replica : int; v_sig : string }
  | NewQc of qc
      (* a leader with nothing to propose still announces the certificate
         so every replica commits and replies *)
  | HsReply of { r_cmd : D.t; r_replica : int }

let block_payload ~height ~parent ~justify_block ~cmds ~proposer =
  D.of_string
    (Codec.encode (fun w ->
         Codec.W.raw w "hs-block";
         Codec.W.u64 w height;
         Codec.W.raw w (D.to_raw parent);
         Codec.W.raw w (D.to_raw justify_block);
         Codec.W.list w (fun (c : command) -> Codec.W.raw w (D.to_raw c.c_id)) cmds;
         Codec.W.u64 w proposer))

let block_hash (b : block) =
  block_payload ~height:b.b_height ~parent:b.b_parent
    ~justify_block:b.b_justify.qc_block ~cmds:b.b_cmds ~proposer:b.b_proposer

let vote_payload ~height ~block =
  D.of_string
    (Codec.encode (fun w ->
         Codec.W.raw w "hs-vote";
         Codec.W.u64 w height;
         Codec.W.raw w (D.to_raw block)))

type replica = {
  hid : int;
  hsk : Schnorr.secret_key;
  mutable height : int; (* next height this replica expects *)
  blocks : (string, block) Hashtbl.t; (* block hash -> block *)
  votes : (int, (int, string) Hashtbl.t) Hashtbl.t; (* height -> replica -> sig *)
  mutable high_qc : qc;
  mutable last_committed : int;
  pool : (string, command) Hashtbl.t;
  mutable pool_order : command list; (* newest first *)
  mutable executed : int;
  mutable last_cmd_height : int; (* newest height whose block carries commands *)
}

type cluster = {
  n : int;
  f : int;
  max_batch : int;
  sched : Sched.t;
  network : msg Network.t;
  replicas : replica array;
  pks : Schnorr.public_key array;
  client_sk : Schnorr.secret_key;
  client_pk : Schnorr.public_key;
  mutable sigs_made : int;
  mutable sigs_verified : int;
}

let genesis_hash = D.of_string "hs-genesis"
let genesis_qc = { qc_height = -1; qc_block = genesis_hash; qc_sigs = [] }
let leader_of t height = height mod t.n
let quorum t = t.n - t.f

let sign t (r : replica) payload =
  t.sigs_made <- t.sigs_made + 1;
  Schnorr.sign r.hsk (D.to_raw payload)

let verify t ~replica payload ~signature =
  t.sigs_verified <- t.sigs_verified + 1;
  Schnorr.verify t.pks.(replica) (D.to_raw payload) ~signature

let verify_qc t (qc : qc) =
  qc.qc_height < 0
  || (List.length qc.qc_sigs >= quorum t
     && List.for_all
          (fun (rid, signature) ->
            rid < t.n
            && verify t ~replica:rid
                 (vote_payload ~height:qc.qc_height ~block:qc.qc_block)
                 ~signature)
          qc.qc_sigs)

let rec try_propose t (r : replica) : bool =
  (* The leader of the next height proposes once it holds the qc for the
     previous one; empty blocks keep the three-chain moving when needed. *)
  let h = r.high_qc.qc_height + 1 in
  if leader_of t h = r.hid && r.height <= h then begin
    let cmds =
      let rec take n acc = function
        | [] -> List.rev acc
        | c :: rest ->
            if n = 0 then List.rev acc
            else if Hashtbl.mem r.pool (D.to_raw c.c_id) then take (n - 1) (c :: acc) rest
            else take n acc rest
      in
      take t.max_batch [] (List.rev r.pool_order)
    in
    (* Empty blocks are proposed only while a command-carrying block still
       needs the three-chain to complete; the pacemaker then goes quiet. *)
    let must_flush = r.last_committed < r.last_cmd_height in
    if cmds <> [] || must_flush then begin
      let payload =
        block_payload ~height:h ~parent:r.high_qc.qc_block
          ~justify_block:r.high_qc.qc_block ~cmds ~proposer:r.hid
      in
      let b =
        {
          b_height = h;
          b_parent = r.high_qc.qc_block;
          b_justify = r.high_qc;
          b_cmds = cmds;
          b_proposer = r.hid;
          b_sig = sign t r payload;
        }
      in
      r.height <- h + 1;
      if cmds <> [] then r.last_cmd_height <- max r.last_cmd_height h;
      List.iter
        (fun (c : command) ->
          Hashtbl.remove r.pool (D.to_raw c.c_id);
          r.pool_order <- List.filter (fun c' -> c'.c_id <> c.c_id) r.pool_order)
        cmds;
      for dst = 0 to t.n - 1 do
        if dst <> r.hid then Network.send t.network ~src:r.hid ~dst (Proposal b)
      done;
      on_proposal t r b (* the leader processes its own proposal *);
      true
    end
    else false
  end
  else false

and commit_upto t (r : replica) b =
  (* Three-chain rule: b certified, b.parent = b', b'.parent = b'' with
     consecutive heights commits b'' — and, transitively, every uncommitted
     ancestor below it (blocks can arrive out of order under WAN jitter). *)
  match Hashtbl.find_opt r.blocks (D.to_raw b.b_parent) with
  | Some b1 when b1.b_height = b.b_height - 1 -> (
      match Hashtbl.find_opt r.blocks (D.to_raw b1.b_parent) with
      | Some b2 when b2.b_height = b1.b_height - 1 && b2.b_height > r.last_committed
        ->
          let rec ancestors blk acc =
            if blk.b_height <= r.last_committed then acc
            else begin
              match Hashtbl.find_opt r.blocks (D.to_raw blk.b_parent) with
              | Some parent -> ancestors parent (blk :: acc)
              | None -> blk :: acc
            end
          in
          let to_commit = ancestors b2 [] in
          r.last_committed <- b2.b_height;
          List.iter
            (fun blk ->
              r.executed <- r.executed + List.length blk.b_cmds;
              List.iter
                (fun (c : command) ->
                  Network.send t.network ~src:r.hid ~dst:c.c_client
                    (HsReply { r_cmd = c.c_id; r_replica = r.hid }))
                blk.b_cmds)
            to_commit
      | _ -> ())
  | _ -> ()

and on_proposal t (r : replica) (b : block) =
  let h = b.b_height in
  let payload =
    block_payload ~height:h ~parent:b.b_parent ~justify_block:b.b_justify.qc_block
      ~cmds:b.b_cmds ~proposer:b.b_proposer
  in
  if
    b.b_proposer = leader_of t h
    && (b.b_proposer = r.hid || verify t ~replica:b.b_proposer payload ~signature:b.b_sig)
    && verify_qc t b.b_justify
    && b.b_justify.qc_height = h - 1
    && D.equal b.b_parent b.b_justify.qc_block
  then begin
    Hashtbl.replace r.blocks (D.to_raw (block_hash b)) b;
    if b.b_cmds <> [] then r.last_cmd_height <- max r.last_cmd_height h;
    List.iter
      (fun (c : command) ->
        Hashtbl.remove r.pool (D.to_raw c.c_id);
        r.pool_order <- List.filter (fun c' -> c'.c_id <> c.c_id) r.pool_order)
      b.b_cmds;
    if h >= r.height then r.height <- h;
    (* A block arriving after its certificate still needs its commit. *)
    (match Hashtbl.find_opt r.blocks (D.to_raw r.high_qc.qc_block) with
    | Some hb -> commit_upto t r hb
    | None -> ());
    (* Vote to the next leader. *)
    let vote_sig = sign t r (vote_payload ~height:h ~block:(block_hash b)) in
    let next_leader = leader_of t (h + 1) in
    let vote = Vote { v_height = h; v_block = block_hash b; v_replica = r.hid; v_sig = vote_sig } in
    if next_leader = r.hid then on_vote t r (h, block_hash b, r.hid, vote_sig)
    else Network.send t.network ~src:r.hid ~dst:next_leader vote
  end

and on_vote t (r : replica) (height, blk, voter, signature) =
  if verify t ~replica:voter (vote_payload ~height ~block:blk) ~signature then begin
    let tbl =
      match Hashtbl.find_opt r.votes height with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 8 in
          Hashtbl.replace r.votes height tbl;
          tbl
    in
    Hashtbl.replace tbl voter signature;
    if Hashtbl.length tbl >= quorum t && height >= r.high_qc.qc_height then begin
      let sigs = Hashtbl.fold (fun rid s acc -> (rid, s) :: acc) tbl [] in
      let sigs = List.filteri (fun i _ -> i < quorum t) sigs in
      if height > r.high_qc.qc_height then begin
        r.high_qc <- { qc_height = height; qc_block = blk; qc_sigs = sigs };
        (match Hashtbl.find_opt r.blocks (D.to_raw blk) with
        | Some b -> commit_upto t r b
        | None -> ());
        if not (try_propose t r) then
          for dst = 0 to t.n - 1 do
            if dst <> r.hid then Network.send t.network ~src:r.hid ~dst (NewQc r.high_qc)
          done
      end
    end
  end

let on_new_qc t (r : replica) (qc : qc) =
  if qc.qc_height > r.high_qc.qc_height && verify_qc t qc then begin
    r.high_qc <- qc;
    (match Hashtbl.find_opt r.blocks (D.to_raw qc.qc_block) with
    | Some b -> commit_upto t r b
    | None -> ());
    ignore (try_propose t r)
  end

let on_cmd t (r : replica) (c : command) =
  if not (Hashtbl.mem r.pool (D.to_raw c.c_id)) then begin
    (* Clients sign commands; every replica verifies on first receipt, as
       in libhotstuff (and as IA-CCF verifies client requests). *)
    t.sigs_verified <- t.sigs_verified + 1;
    if Schnorr.verify t.client_pk (D.to_raw c.c_id) ~signature:c.c_sig then begin
      Hashtbl.replace r.pool (D.to_raw c.c_id) c;
      r.pool_order <- c :: r.pool_order;
      ignore (Sched.schedule t.sched ~delay:0.5 (fun () -> ignore (try_propose t r)))
    end
  end

let on_message t (r : replica) msg =
  match msg with
  | Cmd c -> on_cmd t r c
  | Proposal b -> on_proposal t r b
  | Vote { v_height; v_block; v_replica; v_sig } ->
      on_vote t r (v_height, v_block, v_replica, v_sig)
  | NewQc qc -> on_new_qc t r qc
  | HsReply _ -> ()

let spawn ~n ?(max_batch = 100) ~sched ~network ~seed () =
  let keys = Array.init n (fun i -> Schnorr.keypair_of_seed (Printf.sprintf "hs-%d-%d" seed i)) in
  let replicas =
    Array.init n (fun i ->
        {
          hid = i;
          hsk = fst keys.(i);
          height = 0;
          blocks = Hashtbl.create 64;
          votes = Hashtbl.create 64;
          high_qc = genesis_qc;
          last_committed = -1;
          pool = Hashtbl.create 64;
          pool_order = [];
          executed = 0;
          last_cmd_height = -1;
        })
  in
  let client_sk, client_pk = Schnorr.keypair_of_seed (Printf.sprintf "hs-client-%d" seed) in
  let t =
    {
      n;
      f = ((n + 2) / 3) - 1;
      max_batch;
      sched;
      network;
      replicas;
      pks = Array.map snd keys;
      client_sk;
      client_pk;
      sigs_made = 0;
      sigs_verified = 0;
    }
  in
  Array.iter
    (fun r -> Network.register network r.hid (fun ~src:_ msg -> on_message t r msg))
    replicas;
  t

let committed_commands t =
  Array.fold_left (fun acc r -> max acc r.executed) 0 t.replicas

let signatures_made t = t.sigs_made
let signatures_verified t = t.sigs_verified

(* --- client --- *)

type pending = {
  p_sent : float;
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
      | HsReply { r_cmd; r_replica = _ } -> (
          match Hashtbl.find_opt c.cl_pending (D.to_raw r_cmd) with
          | Some p when not p.p_done ->
              if not (List.mem src p.p_replies) then begin
                p.p_replies <- src :: p.p_replies;
                if List.length p.p_replies >= cluster.f + 1 then begin
                  p.p_done <- true;
                  Hashtbl.remove c.cl_pending (D.to_raw r_cmd);
                  c.cl_completed <- c.cl_completed + 1;
                  let latency = Sched.now sched -. p.p_sent in
                  c.cl_latencies <- latency :: c.cl_latencies;
                  p.p_cb ~latency_ms:latency
                end
              end
          | _ -> ())
      | Cmd _ | Proposal _ | Vote _ | NewQc _ -> ());
  c

let submit c ~payload ~on_complete =
  let id = D.of_string (Printf.sprintf "cmd-%d-%d-%s" c.cl_address c.cl_seq payload) in
  c.cl_seq <- c.cl_seq + 1;
  let c_sig = Schnorr.sign c.cl_cluster.client_sk (D.to_raw id) in
  let cmd = { c_id = id; c_payload = payload; c_client = c.cl_address; c_sig } in
  Hashtbl.replace c.cl_pending (D.to_raw id)
    { p_sent = Sched.now c.cl_sched; p_replies = []; p_done = false; p_cb = on_complete };
  for dst = 0 to c.cl_cluster.n - 1 do
    Network.send c.cl_network ~src:c.cl_address ~dst (Cmd cmd)
  done

let client_latencies c = List.rev c.cl_latencies
