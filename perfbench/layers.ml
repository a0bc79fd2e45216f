(* Per-layer metrics of the traced run. Layers are named after the
   library modules. Values come from the obs registry, replica stats and
   the crypto profiler the workload threaded through the deployment, from
   the benchmark's own spans, and from replays: the run's own inputs
   (ledger entries, Merkle leaves, receipts, wire messages) re-fed
   through each layer's public functions, timing every call. *)

open Iaccf_core
module Obs = Iaccf_obs.Obs
module Profile = Iaccf_crypto.Profile
module Sha256 = Iaccf_crypto.Sha256
module Tree = Iaccf_merkle.Tree
module Ledger = Iaccf_ledger.Ledger
module Entry = Iaccf_ledger.Entry
module Batch = Iaccf_types.Batch
module Framing = Iaccf_net.Framing
module Critical_path = Iaccf_obs.Critical_path
module Session = Iaccf_load.Session

(* Every per-layer metric, in the order BENCHMARK.json lists them. A
   traced run prints all of them; one that does not apply to a workload
   reads 0. *)
let all =
  [
    ("crypto.verify_client_us", "us");
    ("crypto.verify_replica_us", "us");
    ("crypto.sign_us", "us");
    ("crypto.verifies_per_tx", "count");
    ("crypto.signs_per_tx", "count");
    ("crypto.share", "ratio");
    ("crypto.cache_hit_ratio", "ratio");
    ("crypto.keys_precomputed", "count");
    ("sha256.ns_per_byte", "ns");
    ("merkle.append_us", "us");
    ("merkle.root_us", "us");
    ("merkle.path_verify_us", "us");
    ("kv.apply_us_per_tx", "us");
    ("ledger.entries_per_tx", "count");
    ("ledger.bytes_per_tx", "B");
    ("ledger.append_us", "us");
    ("ledger.entry_codec_us", "us");
    ("storage.appends_per_tx", "count");
    ("storage.bytes_per_tx", "B");
    ("storage.fsyncs_per_tx", "count");
    ("storage.package_write_ms", "ms");
    ("storage.package_read_ms", "ms");
    ("consensus.batch_size", "count");
    ("consensus.msgs_per_tx", "count");
    ("consensus.view_changes", "count");
    ("consensus.pp_to_commit_p50_ms", "ms");
    ("path.queue_p50_ms", "ms");
    ("path.prepare_p50_ms", "ms");
    ("path.commit_p50_ms", "ms");
    ("path.reply_p50_ms", "ms");
    ("admission.reject_ratio", "ratio");
    ("admission.queue_peak", "count");
    ("load.retries_per_tx", "count");
    ("load.keys_derived", "count");
    ("load.keygen_us", "us");
    ("statesync.bytes", "B");
    ("statesync.chunks", "count");
    ("statesync.entries_skipped", "count");
    ("statesync.installs", "count");
    ("statesync.verify_fail", "count");
    ("statesync.duration_p50_ms", "ms");
    ("statesync.cold_path", "count");
    ("net.drop_ratio", "ratio");
    ("wire.encode_us", "us");
    ("wire.decode_us", "us");
    ("wire.bytes_per_msg", "B");
    ("framing.us_per_frame", "us");
    ("net.bytes_per_tx", "B");
    ("net.frames_per_tx", "count");
    ("driver.submit_us", "us");
    ("net.dropped", "count");
    ("net.connect_retries", "count");
    ("audit.replay_ms", "ms");
    ("receipt.bytes", "B");
    ("trace.overhead_ratio", "ratio");
    ("layers.attributed_share", "ratio");
  ]

let to_metrics values =
  List.map
    (fun (name, unit) ->
      let v = match List.assoc_opt name values with Some v -> v | None -> 0.0 in
      Common.metric name unit v)
    all

(* Mean wall microseconds per call of [f] over [xs]; [f] runs once per
   element, and the clock is read once around the whole pass. *)
let time_each f xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let t0 = Unix.gettimeofday () in
      List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
      (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int (List.length xs)

(* --- replays --- *)

let sha256_ns_per_byte entries =
  let blobs = List.map Entry.serialize entries in
  let bytes = List.fold_left (fun acc s -> acc + String.length s) 0 blobs in
  let t0 = Unix.gettimeofday () in
  List.iter (fun s -> ignore (Sys.opaque_identity (Sha256.digest s))) blobs;
  Stats.ratio ((Unix.gettimeofday () -. t0) *. 1e9) (float_of_int bytes)

(* Merkle append and root over the ledger's own M leaves, with a root
   taken every [root_every] appends as a pre-prepare does once a batch. *)
let merkle ~root_every entries =
  let leaves =
    List.filter_map
      (fun e -> if Entry.in_merkle_tree e then Some (Entry.leaf_digest e) else None)
      entries
  in
  let tree = Tree.create () in
  let append_s = ref 0.0 and root_s = ref 0.0 and roots = ref 0 in
  List.iteri
    (fun i leaf ->
      let t0 = Unix.gettimeofday () in
      Tree.append tree leaf;
      let t1 = Unix.gettimeofday () in
      append_s := !append_s +. (t1 -. t0);
      if (i + 1) mod root_every = 0 then begin
        ignore (Sys.opaque_identity (Tree.root tree));
        root_s := !root_s +. (Unix.gettimeofday () -. t1);
        incr roots
      end)
    leaves;
  ( Stats.ratio (1e6 *. !append_s) (float_of_int (List.length leaves)),
    Stats.ratio (1e6 *. !root_s) (float_of_int !roots) )

let merkle_path_verify_us receipts =
  let checks =
    List.filter_map
      (fun (r : Receipt.t) ->
        match r.Receipt.subject with
        | Receipt.Tx_subject { tx; leaf_index; batch_size; path } ->
            Some (Batch.tx_leaf tx, leaf_index, batch_size, path, r.Receipt.pp.Iaccf_types.Message.g_root)
        | Receipt.Batch_subject -> None)
      receipts
  in
  time_each
    (fun (leaf, index, size, path, root) -> Tree.verify_path ~leaf ~index ~size ~path ~root)
    checks

let ledger_append_us genesis entries =
  let ledger = Ledger.create genesis in
  (* The genesis entry is already in a fresh ledger. *)
  time_each (fun e -> Ledger.append ledger e) (List.tl entries)

let entry_codec_us entries =
  time_each (fun e -> Entry.deserialize (Entry.serialize e)) entries

let wire_codec msgs =
  let encoded = List.map (fun m -> Wire_codec.encode_envelope ~src:0 ~dst:1 m) msgs in
  let bytes = List.fold_left (fun acc s -> acc + String.length s) 0 encoded in
  ( time_each (fun m -> Wire_codec.encode_envelope ~src:0 ~dst:1 m) msgs,
    time_each Wire_codec.decode_envelope encoded,
    Stats.ratio_i bytes (List.length encoded),
    encoded )

let framing_us_per_frame payloads =
  let dec = Framing.create () in
  time_each
    (fun p ->
      Framing.feed dec (Framing.encode p);
      match Framing.next dec with
      | `Frame f -> String.length f
      | `Need_more | `Corrupt _ -> failwith "framing replay: frame lost")
    payloads

(* Session key derivation, the open-loop generator's cost per cold
   identity, on a fresh table so every call derives. *)
let keygen_us ~genesis ~n =
  let table = Session.create ~key_cache:n ~seed:"perfbench-keygen" ~genesis ~n () in
  time_each (fun id -> Session.public_key table ~id) (List.init n Fun.id)

(* --- values read off the deployment --- *)

let profile_rows profile ~op ?principal () =
  List.filter
    (fun (r : Profile.row) ->
      r.Profile.r_op = op
      && match principal with None -> true | Some p -> r.Profile.r_principal = p)
    (Profile.rows profile)

let profile_wall_s profile ~op ?principal () =
  List.fold_left (fun acc (r : Profile.row) -> acc +. r.Profile.r_wall_s) 0.0
    (profile_rows profile ~op ?principal ())

let profile_count profile ~op ?principal () =
  List.fold_left (fun acc (r : Profile.row) -> acc + r.Profile.r_count) 0
    (profile_rows profile ~op ?principal ())

let us_per_op profile ~op ?principal () =
  Stats.ratio
    (1e6 *. profile_wall_s profile ~op ?principal ())
    (float_of_int (profile_count profile ~op ?principal ()))

let hist_p50 obs name = Obs.Histogram.percentile (Obs.histogram obs name) 0.5

(* Counters are read through [c], which subtracts their value at the
   start of the timed window, so set-up traffic is not charged to it.
   Precomputed key tables are counted over the run: replica keys get
   theirs at start-up. *)
let crypto ~profile ~obs ~c ~committed ~window_s =
  let verify_w = profile_wall_s profile ~op:Profile.Verify () in
  let sign_w = profile_wall_s profile ~op:Profile.Sign () in
  let mac_w = profile_wall_s profile ~op:Profile.Mac () in
  let hits = c "crypto.cache.hit" in
  let misses = c "crypto.cache.miss" in
  [
    ("crypto.verify_client_us",
     us_per_op profile ~op:Profile.Verify ~principal:Profile.Client_key ());
    ("crypto.verify_replica_us",
     us_per_op profile ~op:Profile.Verify ~principal:Profile.Replica_key ());
    ("crypto.sign_us", us_per_op profile ~op:Profile.Sign ());
    ("crypto.verifies_per_tx",
     Stats.ratio_i (profile_count profile ~op:Profile.Verify ()) committed);
    ("crypto.signs_per_tx",
     Stats.ratio_i (profile_count profile ~op:Profile.Sign ()) committed);
    ("crypto.share", Stats.ratio (verify_w +. sign_w +. mac_w) window_s);
    ("crypto.cache_hit_ratio", Stats.ratio_i hits (hits + misses));
    ("crypto.keys_precomputed", float_of_int (Obs.counter_value obs "crypto.keys.precomputed"));
    ("kv.apply_us_per_tx",
     Stats.ratio (1e6 *. profile_wall_s profile ~op:Profile.Apply ()) (float_of_int committed));
  ]

let consensus ~obs ~c ~replicas ~committed =
  let stats = List.map Replica.stats replicas in
  let batches = List.fold_left (fun acc s -> max acc s.Replica.batches_committed) 0 stats in
  let txs = List.fold_left (fun acc s -> max acc s.Replica.txs_committed) 0 stats in
  let vcs = List.fold_left (fun acc s -> max acc s.Replica.view_changes) 0 stats in
  let segs = Critical_path.summarize (Critical_path.of_events (Obs.events obs)) in
  let seg name = match List.find_opt (fun (n, _, _, _) -> n = name) segs with
    | Some (_, _, p50, _) -> p50 | None -> 0.0 in
  [
    ("consensus.batch_size", Stats.ratio_i txs batches);
    ("consensus.msgs_per_tx", Stats.ratio_i (c "net.sent") committed);
    ("consensus.view_changes", float_of_int vcs);
    ("consensus.pp_to_commit_p50_ms", hist_p50 obs "lat.preprepare_to_commit_ms");
    ("path.queue_p50_ms", seg "queue");
    ("path.prepare_p50_ms", seg "prepare");
    ("path.commit_p50_ms", seg "commit");
    ("path.reply_p50_ms", seg "reply");
  ]

(* Ledger-wide: entries and bytes over the transactions recorded. *)
let ledger_shape ledger =
  let txs = ref 0 in
  Ledger.iteri (fun _ e -> match e with Entry.Tx _ -> incr txs | _ -> ()) ledger;
  [
    ("ledger.entries_per_tx", Stats.ratio_i (Ledger.length ledger) !txs);
    ("ledger.bytes_per_tx", Stats.ratio_i (Ledger.total_bytes ledger) !txs);
  ]

let storage ~c ~committed =
  let per_tx name = Stats.ratio_i (c name) committed in
  [
    ("storage.appends_per_tx", per_tx "storage.appends");
    ("storage.bytes_per_tx", per_tx "storage.append_bytes");
    ("storage.fsyncs_per_tx", per_tx "storage.fsyncs");
  ]

let admission ~obs ~c =
  let admitted = c "load.admitted" in
  let rejected = c "load.rejected" in
  [
    ("admission.reject_ratio", Stats.ratio_i rejected (admitted + rejected));
    ("admission.queue_peak", Obs.gauge_max_value obs "queue.depth");
  ]

let statesync ~obs ~c =
  let c name = float_of_int (c name) in
  [
    ("statesync.bytes", c "statesync.bytes");
    ("statesync.chunks", c "statesync.chunks");
    ("statesync.entries_skipped", c "statesync.entries_skipped");
    ("statesync.installs", c "statesync.installs");
    ("statesync.verify_fail", c "statesync.verify_fail");
    ("statesync.duration_p50_ms", hist_p50 obs "statesync.duration_ms");
    ("statesync.cold_path",
     c "statesync.cold.genesis_replay" +. c "statesync.cold.snapshot_restore");
  ]

let sim_net ~c =
  let dropped =
    List.fold_left (fun acc k -> acc + c ("net.dropped." ^ k)) 0
      [ "cut"; "cut_oneway"; "prob"; "unregistered"; "intercepted" ]
  in
  [ ("net.drop_ratio", Stats.ratio_i dropped (c "net.sent")) ]

(* Counter reader relative to the registry's values now. *)
let since obs =
  let base = Hashtbl.create 64 in
  List.iter
    (fun (k, v) -> match int_of_string_opt v with Some n -> Hashtbl.replace base k n | None -> ())
    (Obs.snapshot obs);
  fun name ->
    Obs.counter_value obs name - Option.value (Hashtbl.find_opt base name) ~default:0

(* In-run layer timers over the traced wall time: the profiler's crypto
   and apply rows plus the benchmark's spans around layer calls, leaving
   out the spans that only drive the scheduler or the socket loop. *)
let attributed_share ~profile ~spans ~wall_s =
  let profiled = List.fold_left (fun acc (r : Profile.row) -> acc +. r.Profile.r_wall_s) 0.0 (Profile.rows profile) in
  let spanned =
    List.fold_left
      (fun acc (s : Spans.span) ->
        if s.Spans.s_name = "sim.run" || s.Spans.s_name = "driver.run" then acc
        else acc +. (s.Spans.s_dur_us /. 1e6))
      0.0 (Spans.spans spans)
  in
  Stats.ratio (profiled +. spanned) wall_s

(* The in-run layers of a simulator workload, read as soon as its timed
   window ends, before the post-window work adds to the same profiler
   and counters. Profiler rows are raw wall time, so their shares are
   taken of the raw window [raw_window_s]. *)
let in_run ~profile ~obs ~c ~spans ~replicas ~committed ~raw_window_s =
  ("layers.attributed_share", attributed_share ~profile ~spans ~wall_s:raw_window_s)
  :: crypto ~profile ~obs ~c ~committed ~window_s:raw_window_s
  @ consensus ~obs ~c ~replicas ~committed
  @ admission ~obs ~c @ statesync ~obs ~c @ sim_net ~c

(* Replays over a ledger, receipts and captured wire messages. *)
let replays ~genesis ~ledger ~receipts ~wire =
  let entries = List.map snd (Ledger.entries ledger ()) in
  let append_us, root_us = merkle ~root_every:4 entries in
  let enc_us, dec_us, bytes_per_msg, encoded = wire_codec wire in
  [
    ("sha256.ns_per_byte", sha256_ns_per_byte entries);
    ("merkle.append_us", append_us);
    ("merkle.root_us", root_us);
    ("merkle.path_verify_us", merkle_path_verify_us receipts);
    ("ledger.append_us", ledger_append_us genesis entries);
    ("ledger.entry_codec_us", entry_codec_us entries);
    ("wire.encode_us", enc_us);
    ("wire.decode_us", dec_us);
    ("wire.bytes_per_msg", bytes_per_msg);
    ("framing.us_per_frame", framing_us_per_frame encoded);
    ("receipt.bytes",
     Stats.ratio_i
       (List.fold_left (fun acc r -> acc + Receipt.size_bytes r) 0 receipts)
       (List.length receipts));
  ]

(* The layers read after the window: the audited ledger's shape, the
   replays, and the package and audit spans of {!Common.package_audit}. *)
let after_run ~spans ~genesis ~ledger ~receipts ~wire =
  ledger_shape ledger
  @ replays ~genesis ~ledger ~receipts ~wire
  @ [
      ("storage.package_write_ms", Spans.total_us spans "package.write" /. 1000.0);
      ("storage.package_read_ms", Spans.total_us spans "package.read" /. 1000.0);
      ("audit.replay_ms", Spans.total_us spans "audit.audit" /. 1000.0);
    ]

(* A sink that keeps the first [cap] messages it is given, and the
   reader of what it kept. *)
let keep_first ~cap =
  let kept = ref [] and n = ref 0 in
  ( (fun msg ->
      if !n < cap then begin
        kept := msg :: !kept;
        incr n
      end),
    fun () -> List.rev !kept )

(* Identity intercepts on every replica, handing each outbound message
   to [observe] and passing it on unchanged. *)
let tap cluster observe =
  List.iter
    (fun r ->
      Iaccf_sim.Network.set_intercept (Cluster.network cluster) (Replica.id r)
        (fun ~dst msg ->
          observe ~dst msg;
          [ (dst, msg) ]))
    (Cluster.replicas cluster)

(* The first [cap] outbound replica messages, for the wire and framing
   replays. *)
let capture_wire cluster ~cap =
  let keep, kept = keep_first ~cap in
  tap cluster (fun ~dst:_ msg -> keep msg);
  kept
