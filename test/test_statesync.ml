(* State-sync building blocks (lib/statesync) and install-time rejection:
   checkpoint digest/serialization properties under random HAMT workloads,
   snapshot file durability, chunk assembly, and cluster-level negative
   tests where a forged or mismatched snapshot must fail verification at
   install and never reach the joiner's key-value store. *)

open Iaccf_core
module Checkpoint = Iaccf_kv.Checkpoint
module State = Iaccf_kv.State
module Snapshot = Iaccf_statesync.Snapshot
module Chunk = Iaccf_statesync.Chunk
module Network = Iaccf_sim.Network
module Ledger = Iaccf_ledger.Ledger
module D = Iaccf_crypto.Digest32

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let temp_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "iaccf-statesync-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o700;
  dir

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Checkpoint digest / serialization properties                        *)
(* ------------------------------------------------------------------ *)

(* A random workload: unique keys (duplicates would make insertion order
   semantically significant), values derived from a seed. *)
let workload_gen =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "(%d keys, seed %d)" n seed)
    QCheck.Gen.(pair (int_range 0 200) (int_bound 1_000_000))

let workload (n, seed) =
  List.init n (fun i ->
      ( Printf.sprintf "key/%d/%x" i (seed + (i * 7)),
        Printf.sprintf "value-%d-%d" seed i ))

(* Deterministic permutation so the property needs no global RNG state. *)
let permute seed xs =
  let rng = Iaccf_util.Rng.create seed in
  xs
  |> List.map (fun x -> (Iaccf_util.Rng.int rng 1_000_000, x))
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let prop_digest_order_independent =
  QCheck.Test.make ~name:"digest is insertion-order independent" ~count:50
    workload_gen (fun (n, seed) ->
      let kvs = workload (n, seed) in
      let a = Checkpoint.make ~seqno:42 (State.of_list kvs) in
      let b = Checkpoint.make ~seqno:42 (State.of_list (permute seed kvs)) in
      let c = Checkpoint.make ~seqno:42 (State.of_list (List.rev kvs)) in
      D.equal (Checkpoint.digest a) (Checkpoint.digest b)
      && D.equal (Checkpoint.digest a) (Checkpoint.digest c))

let prop_serialize_roundtrip =
  QCheck.Test.make ~name:"serialize/deserialize round-trip" ~count:50
    workload_gen (fun (n, seed) ->
      let kvs = workload (n, seed) in
      let cp = Checkpoint.make ~seqno:(seed mod 997) (State.of_list kvs) in
      let cp' = Checkpoint.deserialize (Checkpoint.serialize cp) in
      cp'.Checkpoint.seqno = cp.Checkpoint.seqno
      && D.equal (Checkpoint.digest cp') (Checkpoint.digest cp)
      && List.for_all
           (fun (k, v) -> State.find_opt k cp'.Checkpoint.state = Some v)
           kvs)

let prop_digest_binds_seqno =
  QCheck.Test.make ~name:"digest binds the sequence number" ~count:20
    workload_gen (fun (n, seed) ->
      let state = State.of_list (workload (n, seed)) in
      not
        (D.equal
           (Checkpoint.digest (Checkpoint.make ~seqno:1 state))
           (Checkpoint.digest (Checkpoint.make ~seqno:2 state))))

(* ------------------------------------------------------------------ *)
(* Snapshot files                                                      *)
(* ------------------------------------------------------------------ *)

let cp_of_seqno seqno =
  Checkpoint.make ~seqno
    (State.of_list (List.init 20 (fun i -> (Printf.sprintf "k%d" i, string_of_int (seqno + i)))))

let test_snapshot_roundtrip () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cp = cp_of_seqno 50 in
  let digest = Checkpoint.digest cp in
  let bytes = Snapshot.write ~dir cp in
  check Alcotest.bool "file has content" true (bytes > 0);
  (match Snapshot.load ~dir 50 ~digest with
  | None -> Alcotest.fail "snapshot did not load"
  | Some (cp', payload) ->
      check Alcotest.int "seqno" 50 cp'.Checkpoint.seqno;
      check Alcotest.bool "digest" true (D.equal digest (Checkpoint.digest cp'));
      check Alcotest.string "served bytes" (Checkpoint.serialize cp) payload);
  check Alcotest.bool "untrusted digest" true
    (Snapshot.load ~dir 50 ~digest:(Checkpoint.digest (cp_of_seqno 60)) = None);
  check Alcotest.bool "missing seqno" true
    (Snapshot.load ~dir 60 ~digest:(Checkpoint.digest (cp_of_seqno 60)) = None)

let test_snapshot_list_retain () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  List.iter (fun s -> ignore (Snapshot.write ~dir (cp_of_seqno s))) [ 50; 100; 150 ];
  check Alcotest.(list int) "newest first" [ 150; 100; 50 ] (Snapshot.list ~dir);
  Snapshot.retain ~dir ~keep:2;
  check Alcotest.(list int) "oldest dropped" [ 150; 100 ] (Snapshot.list ~dir)

let test_snapshot_corruption_rejected () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  ignore (Snapshot.write ~dir (cp_of_seqno 50));
  let file = Snapshot.path ~dir 50 in
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0 in
  let len = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd (len / 2) Unix.SEEK_SET);
  ignore (Unix.write_substring fd "\xff" 0 1);
  Unix.close fd;
  check Alcotest.bool "corrupt snapshot rejected" true
    (Snapshot.load ~dir 50 ~digest:(Checkpoint.digest (cp_of_seqno 50)) = None)

let test_snapshot_renamed_rejected () =
  (* A snapshot file renamed to claim a different checkpoint must not
     load, even against its own content's digest: the embedded seqno is
     authoritative. *)
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  ignore (Snapshot.write ~dir (cp_of_seqno 50));
  Sys.rename (Snapshot.path ~dir 50) (Snapshot.path ~dir 100);
  List.iter
    (fun s ->
      check Alcotest.bool "renamed snapshot rejected" true
        (Snapshot.load ~dir 100 ~digest:(Checkpoint.digest (cp_of_seqno s)) = None))
    [ 50; 100 ]

(* ------------------------------------------------------------------ *)
(* Chunk assembly                                                      *)
(* ------------------------------------------------------------------ *)

let prop_chunk_roundtrip =
  QCheck.Test.make ~name:"split/assemble round-trip" ~count:100
    QCheck.(pair (string_of_size Gen.(int_bound 5000)) (int_range 1 700))
    (fun (data, chunk_bytes) ->
      let chunks = Chunk.split ~chunk_bytes data in
      let asm =
        Chunk.create ~total:(List.length chunks) ~bytes:(String.length data)
      in
      (* Deliver out of order: odd indices first. *)
      let indexed = List.mapi (fun i c -> (i, c)) chunks in
      let odd, even = List.partition (fun (i, _) -> i mod 2 = 1) indexed in
      List.iter (fun (i, c) -> ignore (Chunk.add asm ~index:i c)) (odd @ even);
      Chunk.assembled asm = Some data)

(* Chunks cut by hand: full chunks, then the rest; an empty payload is one
   empty chunk. *)
let rec cut ~chunk_bytes data =
  let n = String.length data in
  if n <= chunk_bytes then [ data ]
  else
    String.sub data 0 chunk_bytes
    :: cut ~chunk_bytes (String.sub data chunk_bytes (n - chunk_bytes))

let prop_chunk_nth =
  QCheck.Test.make ~name:"nth and count agree with split" ~count:200
    QCheck.(
      pair
        (make ~print:Print.string
           Gen.(oneof [ return ""; string_size (int_bound 3000) ]))
        (int_range 1 700))
    (fun (data, chunk_bytes) ->
      let chunks = Chunk.split ~chunk_bytes data in
      let n = List.length chunks in
      chunks = cut ~chunk_bytes data
      && Chunk.count ~chunk_bytes data = n
      && List.for_all
           (fun i -> Chunk.nth ~chunk_bytes data i = if i < 0 then None else List.nth_opt chunks i)
           (List.init (n + 2) (fun i -> i - 1)))

let test_chunk_tamper_detected () =
  (* The assembler is mechanical: a tampered chunk reassembles, and the
     forgery is caught by checkpoint decode / digest verification. *)
  let cp = cp_of_seqno 50 in
  let payload = Checkpoint.serialize cp in
  let chunks = Chunk.split ~chunk_bytes:64 payload in
  let asm = Chunk.create ~total:(List.length chunks) ~bytes:(String.length payload) in
  List.iteri
    (fun i c ->
      let c =
        if i = 1 then (
          let b = Bytes.of_string c in
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
          Bytes.to_string b)
        else c
      in
      ignore (Chunk.add asm ~index:i c))
    chunks;
  match Chunk.assembled asm with
  | None -> Alcotest.fail "tampered payload should still assemble"
  | Some data ->
      check Alcotest.bool "bytes differ" true (data <> payload);
      let caught =
        match Checkpoint.deserialize data with
        | cp' -> not (D.equal (Checkpoint.digest cp') (Checkpoint.digest cp))
        | exception Iaccf_util.Codec.Decode_error _ -> true
      in
      check Alcotest.bool "tamper detected" true caught

let test_chunk_duplicates_and_bounds () =
  let asm = Chunk.create ~total:3 ~bytes:9 in
  check Alcotest.bool "add 0" true (Chunk.add asm ~index:0 "abc" = `Added);
  check Alcotest.bool "dup 0" true (Chunk.add asm ~index:0 "abc" = `Duplicate);
  check Alcotest.bool "out of range" true (Chunk.add asm ~index:7 "x" = `Invalid);
  check Alcotest.bool "negative" true (Chunk.add asm ~index:(-1) "x" = `Invalid);
  check Alcotest.bool "oversized rejected" true
    (Chunk.add asm ~index:1 (String.make 100 'y') = `Invalid);
  check Alcotest.(list int) "missing" [ 1; 2 ] (Chunk.missing asm);
  ignore (Chunk.add asm ~index:1 "def");
  ignore (Chunk.add asm ~index:2 "ghi");
  check Alcotest.(option string) "assembled" (Some "abcdefghi") (Chunk.assembled asm)

(* ------------------------------------------------------------------ *)
(* Install-time rejection (cluster level)                              *)
(* ------------------------------------------------------------------ *)

let drive cluster client n ~timeout_ms =
  let completed = ref 0 in
  for i = 1 to n do
    Client.submit client ~proc:"counter/add" ~args:(string_of_int i)
      ~on_complete:(fun _ -> incr completed)
      ()
  done;
  Cluster.run_until cluster ~timeout_ms (fun () -> !completed >= n)

(* Build a cluster whose checkpoint at [cp_seqno] is sealed (its digest is
   recorded in a later committed checkpoint batch), then offer joiner [jid]
   a forged snapshot for that checkpoint from a silent, unregistered
   network address. The joiner can assemble only the forged bytes; the real
   suffix is injected directly, so verification runs all the way to the
   digest-vs-sealed check. Returns the joiner. *)
let offer_forged_snapshot ~payload ~cp_seqno =
  let params =
    { Replica.default_params with checkpoint_interval = 10; max_batch = 2 }
  in
  let cluster = Cluster.make ~n:4 ~params () in
  let client = Cluster.add_client cluster () in
  let ok = drive cluster client 60 ~timeout_ms:300_000.0 in
  check Alcotest.bool "workload ran" true ok;
  Cluster.run cluster ~ms:1000.0;
  let r0 = Cluster.replica cluster 0 in
  check Alcotest.bool "checkpoint sealed" true
    (Replica.last_committed r0 > cp_seqno + params.Replica.checkpoint_interval);
  let joiner = Cluster.spawn_replica cluster ~id:5 in
  let net = Cluster.network cluster in
  let chunks = Chunk.split ~chunk_bytes:4096 payload in
  let attacker = 9 (* no handler: the joiner's requests to it vanish *) in
  Network.send net ~src:attacker ~dst:5
    (Wire.Snapshot_offer
       {
         so_cp_seqno = cp_seqno;
         so_total = List.length chunks;
         so_bytes = String.length payload;
         so_upto = Ledger.length (Replica.ledger r0);
         so_view = 0;
       });
  Cluster.run cluster ~ms:50.0;
  List.iteri
    (fun i c ->
      Network.send net ~src:attacker ~dst:5
        (Wire.Snapshot_chunk
           { sc_cp_seqno = cp_seqno; sc_index = i; sc_total = List.length chunks; sc_data = c }))
    chunks;
  (* The genuine suffix, carrying the sealing checkpoint batch. *)
  let entries = List.map snd (Ledger.entries (Replica.ledger r0) ~from:1 ()) in
  Network.send net ~src:attacker ~dst:5
    (Wire.Ledger_suffix_chunk
       {
         lc_from = 1;
         lc_entries = entries;
         lc_upto = Ledger.length (Replica.ledger r0);
         lc_view = 0;
       });
  Cluster.run cluster ~ms:3000.0;
  joiner

let verify_fails r =
  Iaccf_obs.Obs.counter_value (Replica.obs r) "statesync.verify_fail"

let test_install_rejects_wrong_digest () =
  (* Chunks assemble to a checkpoint for the right seqno but the wrong
     state: the digest sealed in the committed checkpoint batch must win. *)
  let forged = Checkpoint.make ~seqno:10 (State.of_list [ ("evil", "1") ]) in
  let joiner =
    offer_forged_snapshot ~payload:(Checkpoint.serialize forged) ~cp_seqno:10
  in
  check Alcotest.bool "digest mismatch rejected" true (verify_fails joiner >= 1);
  check Alcotest.(option string) "forged state never installed" None
    (Iaccf_kv.State.find_opt "evil" (Iaccf_kv.Store.map (Replica.store joiner)))

let test_install_rejects_wrong_seqno () =
  (* The payload decodes cleanly but for a different checkpoint than the
     offer named: rejected before any state is touched. *)
  let forged = Checkpoint.make ~seqno:9 (State.of_list [ ("evil", "1") ]) in
  let joiner =
    offer_forged_snapshot ~payload:(Checkpoint.serialize forged) ~cp_seqno:10
  in
  check Alcotest.bool "wrong-seqno snapshot rejected" true (verify_fails joiner >= 1);
  check Alcotest.(option string) "forged state never installed" None
    (Iaccf_kv.State.find_opt "evil" (Iaccf_kv.Store.map (Replica.store joiner)))

let test_install_rejects_garbage_bytes () =
  let joiner =
    offer_forged_snapshot ~payload:(String.make 2000 '\x42') ~cp_seqno:10
  in
  check Alcotest.bool "garbage rejected" true (verify_fails joiner >= 1)

(* ------------------------------------------------------------------ *)
(* The catch-up session, driven directly (no cluster)                  *)
(* ------------------------------------------------------------------ *)

module Session = Iaccf_statesync.Session
module Entry = Iaccf_ledger.Entry
module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch

let session_cp = Checkpoint.make ~seqno:10 (State.of_list (workload (8, 3)))
let session_chunks = Chunk.split ~chunk_bytes:16 (Checkpoint.serialize session_cp)

(* A pre-prepare whose batch seals [digest] as checkpoint 10. *)
let sealing_pp digest =
  {
    Message.view = 0;
    seqno = 20;
    m_root = D.of_string "m";
    g_root = D.of_string "g";
    nonce_com = D.of_string "n";
    ev_bitmap = Iaccf_util.Bitmap.empty;
    gov_index = 0;
    cp_digest = digest;
    kind = Batch.Checkpoint { cp_seqno = 10; cp_digest = digest };
    primary = 0;
    signature = "sig";
  }

(* Suffix extents: [n] entries that seal nothing, or the seal. *)
let plain n =
  List.init n (fun _ ->
      Entry.Pre_prepare { (sealing_pp (D.of_string "x")) with kind = Batch.Regular })

let seal digest = [ Entry.Pre_prepare (sealing_pp digest) ]

(* The gate these tests pass: the extent holds nothing below the
   checkpoint, so it is empty. *)
let pass_gate ~cp_seqno _ =
  Iaccf_statesync.Validate.check_suffix
    ~ledger:(Ledger.create (Cluster.standalone_genesis ~seed:1 ~n:4 ()))
    ~next_seqno:(cp_seqno + 1) ~cp_seqno ~verify_pp:(fun _ -> true)
    ~vc_set:(fun _ -> true) ~new_view:(fun _ _ -> true) []

(* A client whose session came from an offer by peer 1 for checkpoint 10,
   our ledger at length 5 and the peer's at 40; we are replica 3. *)
let open_session ?(peers = [ 0; 1; 2 ]) () =
  let obs = Iaccf_obs.Obs.passive () in
  let metrics = Iaccf_statesync.Metrics.make obs in
  let c = Session.create ~obs ~node:3 ~metrics in
  let hooks =
    {
      Session.verify_pp = (fun _ -> true);
      check_suffix = pass_gate;
      peers = (fun () -> peers);
    }
  in
  let actions =
    Session.on_offer c hooks ~src:1 ~cp_seqno:10 ~total:(List.length session_chunks)
      ~bytes:(String.length (Checkpoint.serialize session_cp))
      ~upto:40 ~view:0 ~last_committed:4 ~rollback:(fun () -> 5)
  in
  (c, metrics, actions)

let describe_action = function
  | Session.Request_chunks { peer; indices; _ } ->
      Printf.sprintf "chunks %d [%s]" peer
        (String.concat ";" (List.map string_of_int indices))
  | Session.Request_suffix { peer; from_len } ->
      Printf.sprintf "suffix %d from %d" peer from_len
  | Session.Retarget peer -> Printf.sprintf "retarget %d" peer
  | Session.Install { cp; _ } -> Printf.sprintf "install %d" cp.Checkpoint.seqno

let actions = Alcotest.(list string)
let show = List.map describe_action

let chunk c i =
  Session.on_chunk c ~src:1 ~cp_seqno:10 ~index:i (List.nth session_chunks i)

let suffix c ~from entries =
  Option.map show (Session.on_suffix c ~src:1 ~from entries ~upto:40 ~view:0)

let test_session_refuses_gaps_and_replays () =
  let c, _, _ = open_session () in
  check Alcotest.(option actions) "gap dropped" (Some []) (suffix c ~from:7 (plain 2));
  check Alcotest.(option actions) "extent accepted" (Some [ "suffix 1 from 7" ])
    (suffix c ~from:5 (plain 2));
  check Alcotest.(option actions) "replay dropped" (Some []) (suffix c ~from:5 (plain 2));
  check Alcotest.(option actions) "empty extent dropped" (Some []) (suffix c ~from:7 []);
  check Alcotest.(option actions) "other peer: not the session's" None
    (Option.map show (Session.on_suffix c ~src:2 ~from:7 (plain 2) ~upto:40 ~view:0))

let test_session_silent_tick_rerequests () =
  check Alcotest.bool "at least six chunks" true (List.length session_chunks >= 6);
  let c, _, opened = open_session () in
  check actions "offer accepted" [ "chunks 1 [0;1;2;3]"; "suffix 1 from 5" ] (show opened);
  check actions "chunk 1 pulls the next" [ "chunks 1 [4]" ] (show (chunk c 1));
  check actions "tick after progress" [] (show (Session.tick c));
  check actions "silent tick" [ "chunks 1 [0;2;3;4]"; "suffix 1 from 5" ]
    (show (Session.tick c));
  check Alcotest.bool "still syncing" true (Session.syncing c)

let test_session_second_silent_tick_retargets () =
  let c, _, _ = open_session () in
  ignore (Session.tick c);
  check actions "second silent tick" [ "retarget 2" ] (show (Session.tick c));
  check Alcotest.bool "session dropped" false (Session.syncing c);
  (* The last peer in id order wraps around to the first. *)
  let c, _, _ = open_session ~peers:[ 0; 1 ] () in
  ignore (Session.tick c);
  check actions "wraps around" [ "retarget 0" ] (show (Session.tick c))

let test_session_install_gate () =
  let digest = Checkpoint.digest session_cp in
  let last = List.length session_chunks - 1 in
  let installs l = List.filter (String.starts_with ~prefix:"install") (show l) in
  (* Snapshot first: no install until the sealing batch is buffered. *)
  let c, _, _ = open_session () in
  for i = 0 to last do
    check actions "no install without the seal" [] (installs (chunk c i))
  done;
  check Alcotest.(option actions) "suffix without the seal" (Some [ "suffix 1 from 8" ])
    (suffix c ~from:5 (plain 3));
  check Alcotest.(option actions) "seal arrives" (Some [ "suffix 1 from 9"; "install 10" ])
    (suffix c ~from:8 (seal digest));
  check Alcotest.bool "session over" false (Session.syncing c);
  (* Seal first: no install until the last chunk lands. *)
  let c, _, _ = open_session () in
  check Alcotest.(option actions) "seal buffered" (Some [ "suffix 1 from 6" ])
    (suffix c ~from:5 (seal digest));
  for i = 0 to last - 1 do
    check actions "no install before assembly" [] (installs (chunk c i))
  done;
  check actions "assembled" [ "install 10" ] (installs (chunk c last));
  (* A seal for different bytes fails verification and moves on. *)
  let c, metrics, _ = open_session () in
  for i = 0 to last do
    ignore (chunk c i)
  done;
  check
    Alcotest.(option actions)
    "digest mismatch" (Some [ "suffix 1 from 6"; "retarget 2" ])
    (suffix c ~from:5 (seal (D.of_string "other")));
  check Alcotest.int "counted" 1
    (Iaccf_obs.Obs.value metrics.Iaccf_statesync.Metrics.verify_fail)

(* ------------------------------------------------------------------ *)
(* The serving side's offer policy                                     *)
(* ------------------------------------------------------------------ *)

let test_should_offer_table () =
  List.iter
    (fun (label, offer, from_len, pruned_upto, expected) ->
      check Alcotest.bool label expected
        (Session.should_offer offer ~from_len ~cp_end:100 ~served:120 ~pruned_upto
           ~interval:10))
    [
      ("never, far behind", Session.Never, 1, 0, false);
      ("if-far, near", Session.If_far, 110, 0, false);
      ("if-far, far behind", Session.If_far, 1, 0, true);
      ("if-far, behind the prune", Session.If_far, 99, 100, true);
      ("if-far, past the checkpoint", Session.If_far, 100, 0, false);
      ("always, near", Session.Always, 110, 0, true);
    ]

(* One catch-up request per policy against a live replica: what comes back
   is an offer or a suffix extent. *)
let test_offer_policy_on_cluster () =
  let params =
    { Replica.default_params with checkpoint_interval = 10; max_batch = 2 }
  in
  let cluster = Cluster.make ~n:4 ~params () in
  let client = Cluster.add_client cluster () in
  check Alcotest.bool "workload ran" true (drive cluster client 60 ~timeout_ms:300_000.0);
  Cluster.run cluster ~ms:1000.0;
  let net = Cluster.network cluster in
  let replies = ref [] in
  Network.register net 9 (fun ~src:_ msg -> replies := msg :: !replies);
  let served = Ledger.length (Replica.ledger (Cluster.replica cluster 0)) in
  List.iter
    (fun (label, offer, from_len, expected) ->
      replies := [];
      Network.send net ~src:9 ~dst:0
        (Wire.Fetch_ledger { fl_from_len = from_len; fl_offer = offer });
      Cluster.run cluster ~ms:50.0;
      let got =
        List.filter_map
          (function
            | Wire.Snapshot_offer _ -> Some "offer"
            | Wire.Ledger_suffix_chunk _ -> Some "suffix"
            | _ -> None)
          !replies
      in
      check Alcotest.(list string) label [ expected ] got)
    [
      ("near behind", Session.If_far, served - 2, "suffix");
      ("far behind", Session.If_far, 1, "offer");
      ("always", Session.Always, served - 2, "offer");
      ("never", Session.Never, 1, "suffix");
    ]

(* ------------------------------------------------------------------ *)
(* The checkpoints' owner, driven directly (no cluster)                *)
(* ------------------------------------------------------------------ *)

module Server = Iaccf_statesync.Server

(* An owner taking a checkpoint every 10 batches, writing snapshot files
   into [dir] every 20. *)
let owner ?dir () =
  let obs = Iaccf_obs.Obs.passive () in
  let metrics = Iaccf_statesync.Metrics.make obs in
  let t =
    Server.create ~metrics ~obs ~node:0 ~interval:10 ~snapshot_interval:20 ~dir
  in
  Server.take t (cp_of_seqno 0);
  (t, metrics)

(* The checkpoints held at multiples of 10 up to 200. *)
let held t =
  List.filter (fun s -> Server.checkpoint t s <> None) (List.init 21 (fun i -> i * 10))

(* Take the checkpoints at 10, 20, ... up to [top]. *)
let take_upto t top =
  List.iter (fun i -> Server.take t (cp_of_seqno ((i + 1) * 10))) (List.init (top / 10) Fun.id)

let test_owner_retention () =
  let t, _ = owner () in
  take_upto t 50;
  check Alcotest.(list int) "taking drops nothing" [ 0; 10; 20; 30; 40; 50 ] (held t);
  Server.retain t;
  check Alcotest.(list int) "3C below the latest, and 0" [ 0; 20; 30; 40; 50 ] (held t);
  List.iter (fun s -> Server.take t (cp_of_seqno s)) [ 60; 70; 80; 90; 100 ];
  Server.retain t;
  check Alcotest.(list int) "window moves" [ 0; 70; 80; 90; 100 ] (held t);
  check Alcotest.int "latest" 100 (Server.latest t);
  check Alcotest.bool "digest kept" true
    (Server.digest t 70 = Some (Checkpoint.digest (cp_of_seqno 70)))

let test_owner_rollback () =
  let t, _ = owner () in
  take_upto t 40;
  Server.rollback t ~target:25;
  check Alcotest.(list int) "speculative checkpoints dropped" [ 0; 10; 20 ] (held t);
  check Alcotest.int "latest recomputed" 20 (Server.latest t);
  Server.rollback t ~target:30;
  check Alcotest.int "a rollback above the latest keeps it" 20 (Server.latest t);
  Server.rollback t ~target:5;
  check Alcotest.(list int) "down to 0" [ 0 ] (held t);
  check Alcotest.int "latest is 0" 0 (Server.latest t);
  (* An adopted checkpoint raises the latest only when it is later. *)
  let cp = cp_of_seqno 30 in
  Server.adopt t cp (Checkpoint.digest cp);
  check Alcotest.int "adopted" 30 (Server.latest t)

(* A checkpoint's digest is hashed on the background worker; one that a
   rollback drops before anyone reads it still counts its compressions. *)
let test_owner_rollback_counts_digest () =
  let t, _ = owner () in
  let cp = cp_of_seqno 10 in
  let blocks f =
    Iaccf_util.Worker.drain ();
    let before = Iaccf_crypto.Sha256.blocks () in
    f ();
    Iaccf_util.Worker.drain ();
    Iaccf_crypto.Sha256.blocks () - before
  in
  let direct = blocks (fun () -> ignore (Checkpoint.digest cp)) in
  let dropped =
    blocks (fun () ->
        Server.take t cp;
        Server.rollback t ~target:5)
  in
  check Alcotest.(list int) "dropped" [ 0 ] (held t);
  check Alcotest.bool "some hashing" true (direct > 0);
  check Alcotest.int "compressions of the unread digest" direct dropped

let seal t ?(persist = true) ?digest s =
  let cp_digest = Option.value digest ~default:(Checkpoint.digest (cp_of_seqno s)) in
  Server.seal t ~cp_seqno:s ~cp_digest ~seal_seqno:(s + 10) ~persist

let test_owner_snapshot_files () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t, metrics = owner ~dir () in
  let written () = Iaccf_obs.Obs.value metrics.Iaccf_statesync.Metrics.snapshots_written in
  take_upto t 100;
  seal t 10;
  check Alcotest.(list int) "off the snapshot interval" [] (Snapshot.list ~dir);
  seal t 20 ~persist:false;
  check Alcotest.(list int) "not persisted" [] (Snapshot.list ~dir);
  seal t 20;
  check Alcotest.(list int) "sealed before: not new" [] (Snapshot.list ~dir);
  seal t 40 ~digest:(D.of_string "other");
  check Alcotest.(list int) "a digest the checkpoint does not have" [] (Snapshot.list ~dir);
  seal t 60;
  check Alcotest.(list int) "newly sealed" [ 60 ] (Snapshot.list ~dir);
  seal t 80;
  seal t 100;
  check Alcotest.(list int) "two kept" [ 100; 80 ] (Snapshot.list ~dir);
  check Alcotest.int "counted" 3 (written ())

(* A checkpoint batch in the ledger sealing [digest] as checkpoint [s]. *)
let seal_entry s digest =
  Entry.Pre_prepare
    {
      (sealing_pp digest) with
      seqno = s + 10;
      kind = Batch.Checkpoint { cp_seqno = s; cp_digest = digest };
    }

let test_owner_restore_and_prune_points () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t, _ = owner ~dir () in
  take_upto t 60;
  List.iter (seal t) [ 20; 40; 60 ];
  check Alcotest.(list int) "files" [ 60; 40 ] (Snapshot.list ~dir);
  let digest s = Checkpoint.digest (cp_of_seqno s) in
  let entries = List.map (fun s -> seal_entry s (digest s)) [ 20; 40; 60 ] in
  let restore ?(verify_pp = fun _ -> true) entries =
    Option.map (fun (cp, _) -> cp.Checkpoint.seqno) (Server.restore_point t ~verify_pp entries)
  in
  (* The ledger length after a batch: 1000 + its seqno. *)
  let prune ?(in_ledger = fun _ -> true) () =
    Server.prune_point t ~batch_end:(fun s -> if in_ledger s then Some (1000 + s) else None)
  in
  check Alcotest.(option int) "restore from the newest" (Some 60) (restore entries);
  check Alcotest.(option int) "prune behind the newest" (Some 1060) (prune ());
  check Alcotest.(option int) "an unsigned seal vouches for nothing" (Some 40)
    (restore ~verify_pp:(fun pp -> pp.Message.seqno <> 70) entries);
  check Alcotest.(option int) "a seal for other bytes" (Some 40)
    (restore (seal_entry 60 (D.of_string "other") :: entries));
  check Alcotest.(option int) "no seal in the ledger" (Some 40)
    (restore (List.filteri (fun i _ -> i < 2) entries));
  check Alcotest.(option int) "sealing batch rolled out" (Some 1040)
    (prune ~in_ledger:(fun s -> s <> 60) ());
  (* A corrupt newest file: both skip to the next. *)
  let file = Snapshot.path ~dir 60 in
  let raw = Bytes.of_string (In_channel.with_open_bin file In_channel.input_all) in
  let last = Bytes.length raw - 1 in
  Bytes.set raw last (Char.chr (Char.code (Bytes.get raw last) lxor 0xff));
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc raw);
  check Alcotest.(option int) "restore skips a corrupt file" (Some 40) (restore entries);
  check Alcotest.(option int) "prune skips a corrupt file" (Some 1040) (prune ());
  (* A file renamed to the newest seqno: nothing vouches for it. *)
  Sys.remove file;
  Sys.rename (Snapshot.path ~dir 40) file;
  check Alcotest.(option int) "restore skips a renamed file" None (restore entries);
  check Alcotest.(option int) "prune skips a renamed file" None (prune ())

(* The install gate on a real suffix: one view change, so the ledger
   holds a view-change set and a new view, and the checkpoint to adopt is
   the last committed batch after them. *)
let test_check_suffix_protocol_entries () =
  let module Validate = Iaccf_statesync.Validate in
  let module Request = Iaccf_types.Request in
  let module Batch = Iaccf_types.Batch in
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  check Alcotest.bool "before the view change" true (drive cluster client 5 ~timeout_ms:60_000.0);
  List.iter Replica.inject_view_change (Cluster.replicas cluster);
  check Alcotest.bool "after the view change" true (drive cluster client 5 ~timeout_ms:60_000.0);
  let r = Cluster.replica cluster 1 in
  let entries = List.map snd (Ledger.entries (Replica.ledger r) ~from:1 ()) in
  check Alcotest.bool "the suffix holds a view-change set" true
    (List.exists (function Entry.View_change_set _ -> true | _ -> false) entries);
  let gate ?(vc_set = fun _ -> true) ?(new_view = fun _ _ -> true) ledger entries =
    Validate.check_suffix ~ledger ~next_seqno:1 ~cp_seqno:(Replica.last_committed r)
      ~verify_pp:(fun _ -> true) ~vc_set ~new_view entries
  in
  let fresh () = Ledger.create (Cluster.genesis cluster) in
  let dry_run ?vc_set ?new_view entries =
    Result.map ignore (gate ?vc_set ?new_view (fresh ()) entries)
  in
  let outcome = Alcotest.(result unit string) in
  check outcome "accepted" (Ok ()) (dry_run entries);
  (* The checked extent is the source ledger up to the first batch past
     the checkpoint, and it is adopted only at the ledger length it was
     checked at. *)
  let ledger = fresh () and source = Replica.ledger r in
  let extent = Result.get_ok (gate ledger entries) in
  let ends = ref [] in
  let rest = Validate.adopt ledger extent (fun _ ~upto -> ends := upto :: !ends) in
  let n = Ledger.length ledger in
  check Alcotest.(list int) "item ends ascend"
    (List.sort_uniq compare !ends) (List.rev !ends);
  check Alcotest.int "the last item ends the ledger" n (List.hd !ends);
  check Alcotest.bool "the rest starts past the checkpoint" true
    (match rest with
    | Entry.Batch { pp; _ } :: _ -> pp.Message.seqno > Replica.last_committed r
    | [] -> n = Ledger.length source
    | _ -> false);
  for i = 0 to n - 1 do
    check Alcotest.string "same entry"
      (Entry.serialize (Ledger.get source i))
      (Entry.serialize (Ledger.get ledger i));
    check Alcotest.int "same M size" (Ledger.m_size_at source i) (Ledger.m_size_at ledger i)
  done;
  check Alcotest.bool "same M root" true
    (D.equal (Ledger.m_root_at source n) (Ledger.m_root ledger));
  check Alcotest.bool "a moved ledger refused" true
    (match Validate.adopt ledger extent (fun _ ~upto:_ -> ()) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check outcome "view-change set refused" (Error "view-change set refused")
    (dry_run ~vc_set:(fun _ -> false) entries);
  check outcome "new view refused" (Error "new view refused")
    (dry_run ~new_view:(fun _ _ -> false) entries);
  (* A transaction moved below its minimum index. *)
  let lowered = ref None in
  let entries =
    List.map
      (function
        | Entry.Tx tx when !lowered = None ->
            let q = tx.Batch.request in
            let request =
              Request.of_fields ~client_pk:q.Request.client_pk ~service:q.Request.service
                ~min_index:(tx.Batch.index + 1) ~client_seqno:q.Request.client_seqno
                ~signature:q.Request.signature ~proc:q.Request.proc ~args:q.Request.args ()
            in
            lowered := Some tx.Batch.index;
            Entry.Tx { tx with Batch.request }
        | e -> e)
      entries
  in
  match dry_run entries with
  | Error m ->
      check Alcotest.bool "below its minimum index" true
        (String.ends_with ~suffix:"a transaction below its minimum index" m)
  | Ok () -> Alcotest.fail "a transaction below its minimum index passed"

let () =
  Random.self_init ();
  Alcotest.run "iaccf_statesync"
    [
      ( "checkpoint-properties",
        [
          qtest prop_digest_order_independent;
          qtest prop_serialize_roundtrip;
          qtest prop_digest_binds_seqno;
        ] );
      ( "snapshot-files",
        [
          Alcotest.test_case "write/load round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "list and retain" `Quick test_snapshot_list_retain;
          Alcotest.test_case "corruption rejected" `Quick test_snapshot_corruption_rejected;
          Alcotest.test_case "renamed file rejected" `Quick test_snapshot_renamed_rejected;
        ] );
      ( "chunks",
        [
          qtest prop_chunk_roundtrip;
          qtest prop_chunk_nth;
          Alcotest.test_case "tampered chunk detected" `Quick test_chunk_tamper_detected;
          Alcotest.test_case "duplicates and bounds" `Quick test_chunk_duplicates_and_bounds;
        ] );
      ( "install-rejection",
        [
          Alcotest.test_case "wrong digest" `Quick test_install_rejects_wrong_digest;
          Alcotest.test_case "wrong seqno" `Quick test_install_rejects_wrong_seqno;
          Alcotest.test_case "garbage bytes" `Quick test_install_rejects_garbage_bytes;
        ] );
      ( "session",
        [
          Alcotest.test_case "gaps and replays refused" `Quick
            test_session_refuses_gaps_and_replays;
          Alcotest.test_case "silent tick re-requests" `Quick
            test_session_silent_tick_rerequests;
          Alcotest.test_case "second silent tick retargets" `Quick
            test_session_second_silent_tick_retargets;
          Alcotest.test_case "install gate" `Quick test_session_install_gate;
          Alcotest.test_case "suffix dry run checks protocol entries" `Quick
            test_check_suffix_protocol_entries;
        ] );
      ( "checkpoint-owner",
        [
          Alcotest.test_case "retention window" `Quick test_owner_retention;
          Alcotest.test_case "rollback" `Quick test_owner_rollback;
          Alcotest.test_case "unread digest counted" `Quick test_owner_rollback_counts_digest;
          Alcotest.test_case "snapshot files" `Quick test_owner_snapshot_files;
          Alcotest.test_case "restore and prune points" `Quick
            test_owner_restore_and_prune_points;
        ] );
      ( "offer-policy",
        [
          Alcotest.test_case "policy table" `Quick test_should_offer_table;
          Alcotest.test_case "one request per policy" `Quick test_offer_policy_on_cluster;
        ] );
    ]
