(* Storage tests: segmented store round-trips, segment rolling, torn-write
   recovery (including a kill-after-N-appends crash matrix), truncation,
   cluster persistence under SmallBank, and ledger packages. *)

open Iaccf_storage
module Entry = Iaccf_ledger.Entry
module Ledger = Iaccf_ledger.Ledger
module Tree = Iaccf_merkle.Tree
module D = Iaccf_crypto.Digest32
module Schnorr = Iaccf_crypto.Schnorr
module Request = Iaccf_types.Request
module Batch = Iaccf_types.Batch
module Genesis = Iaccf_types.Genesis
module Config = Iaccf_types.Config
module Message = Iaccf_types.Message
module Bitmap = Iaccf_util.Bitmap
module Rng = Iaccf_util.Rng
module Cluster = Iaccf_core.Cluster
module Client = Iaccf_core.Client
module Replica = Iaccf_core.Replica
module Forge = Iaccf_core.Forge
module Enforcer = Iaccf_core.Enforcer
module Receipt = Iaccf_core.Receipt
module Audit = Iaccf_core.Audit
module Smallbank = Iaccf_app.Smallbank

let check = Alcotest.check
let digest_testable = Alcotest.testable D.pp_full D.equal

(* --- Scratch directories --- *)

(* Every directory a case asks for is removed when the case ends (see
   [case] below), so a run leaves nothing in the temp directory. *)
let dir_counter = ref 0
let made_dirs = ref []

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "iaccf-storage-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  made_dirs := d :: !made_dirs;
  d

(* A test case that removes its directories when it ends, pass or fail,
   once no background sync can still write into them. *)
let case name f =
  Alcotest.test_case name `Quick (fun () ->
      Fun.protect f ~finally:(fun () ->
          Iaccf_util.Worker.drain ();
          List.iter rm_rf !made_dirs;
          made_dirs := []))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let chop_bytes path n =
  let s = read_file path in
  write_file path (String.sub s 0 (max 0 (String.length s - n)))

let flip_byte path off =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0xff));
  write_file path (Bytes.to_string s)

let segment_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 8 && String.sub f 0 8 = "segment-")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let dir_snapshot dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let tail_segment dir = List.nth (segment_files dir) (List.length (segment_files dir) - 1)

(* --- Sample entries (same shapes as the ledger tests) --- *)

let make_genesis prefix =
  let members =
    List.init 4 (fun i ->
        let _, pk = Schnorr.keypair_of_seed (Printf.sprintf "%sm%d" prefix i) in
        { Config.member_name = Printf.sprintf "%sm%d" prefix i; member_pk = pk })
  in
  let base = { Config.config_no = 0; members; replicas = []; vote_threshold = 1 } in
  let replicas =
    List.init 4 (fun i ->
        let _, pk = Schnorr.keypair_of_seed (Printf.sprintf "%sr%d" prefix i) in
        let msk, _ = Schnorr.keypair_of_seed (Printf.sprintf "%sm%d" prefix i) in
        {
          Config.replica_id = i;
          operator = Printf.sprintf "%sm%d" prefix i;
          replica_pk = pk;
          endorsement =
            Schnorr.sign msk
              (D.to_raw (Config.endorsement_payload base ~replica_id:i ~pk));
        })
  in
  Genesis.make { base with Config.replicas }

let genesis = make_genesis "s"

let sample_request ?(seqno = 0) ?(proc = "p") () =
  let sk, pk = Schnorr.keypair_of_seed "storage-client" in
  Request.make ~sk ~client_pk:pk ~service:(Genesis.hash genesis)
    ~client_seqno:seqno ~proc ~args:"a" ()

let tx_entry ?(index = 2) ?(seqno = 0) () =
  Entry.Tx
    {
      Batch.request = sample_request ~seqno ();
      index;
      result = { Batch.output = "o"; write_set_hash = D.of_string "w" };
    }

let sample_pp ?(seqno = 1) () =
  let sk, _ = Schnorr.keypair_of_seed "sr0" in
  Entry.Pre_prepare
    {
      Message.view = 0;
      seqno;
      m_root = D.of_string "m";
      g_root = D.of_string "g";
      nonce_com = D.of_string "n";
      ev_bitmap = Iaccf_util.Bitmap.empty;
      gov_index = 0;
      cp_digest = D.of_string "c";
      kind = Batch.Regular;
      primary = 0;
      signature = Schnorr.sign sk (D.to_raw (D.of_string "x"));
    }

(* Genesis followed by an alternating pre-prepare/tx tail. *)
let sample_entries n =
  Entry.Genesis genesis
  :: List.init n (fun i ->
         if i mod 2 = 0 then sample_pp ~seqno:(i + 1) ()
         else tx_entry ~index:(i + 1) ~seqno:i ())

let open_cfg ?readonly ?(segment_bytes = 1 lsl 20) ?(fsync = Store.No_fsync) dir =
  Store.open_store ?readonly { Store.dir; segment_bytes; fsync }

(* A store's only writer is the ledger it is attached to: [fill] attaches
   a ledger holding the first entry and appends the rest through it. *)
let fill store entries =
  let ledger = Ledger.of_entries [ List.hd entries ] in
  Store.attach store ledger;
  List.iter (fun e -> ignore (Ledger.append ledger e)) (List.tl entries);
  ledger

(* Keep writing a reopened store through a ledger rebuilt from it. *)
let resume store =
  let ledger = Store.to_ledger store in
  Store.attach store ledger;
  ledger

let append ledger e = ignore (Ledger.append ledger e)

(* Byte-equal entries; every caller reaches here through a recovery or an
   attach that checked the store's Merkle root. *)
let check_contents store entries =
  check Alcotest.int "length" (List.length entries) (Store.length store);
  List.iteri
    (fun i e ->
      check Alcotest.string
        (Printf.sprintf "entry %d" i)
        (Entry.serialize e)
        (Entry.serialize (Store.get store i)))
    entries

(* --- Store basics --- *)

let test_fresh_append_reopen () =
  let dir = fresh_dir () in
  let entries = sample_entries 10 in
  let s = open_cfg dir in
  let root = Ledger.m_root (fill s entries) in
  Store.close s;
  let s = open_cfg dir in
  let ri = Store.recovery s in
  check Alcotest.bool "root-of-trust verified" true ri.Store.ri_root_verified;
  check Alcotest.int "no torn frames" 0 ri.Store.ri_torn_frames;
  check digest_testable "root preserved" root (Ledger.m_root (resume s));
  check_contents s entries;
  Store.close s

let test_segment_rolling () =
  let dir = fresh_dir () in
  let entries = sample_entries 40 in
  let s = open_cfg ~segment_bytes:512 dir in
  ignore (fill s entries);
  check Alcotest.bool
    (Printf.sprintf "rolled into several segments (got %d)" (Store.segments s))
    true
    (Store.segments s > 3);
  Store.close s;
  let s = open_cfg ~segment_bytes:512 dir in
  check Alcotest.int "segments preserved" (List.length (segment_files dir))
    (Store.segments s);
  check_contents s entries;
  (* The store keeps appending into the recovered tail. *)
  append (resume s) (sample_pp ~seqno:99 ());
  Store.close s;
  let s = open_cfg ~segment_bytes:512 dir in
  check_contents s (entries @ [ sample_pp ~seqno:99 () ]);
  Store.close s

let test_torn_tail_truncated () =
  let dir = fresh_dir () in
  let entries = sample_entries 8 in
  let s = open_cfg dir in
  let ledger = fill s entries in
  Store.sync s;
  (* Two unsynced appends, then a kill mid-write: the last frame loses
     3 bytes. *)
  append ledger (sample_pp ~seqno:90 ());
  append ledger (sample_pp ~seqno:91 ());
  Store.crash s;
  chop_bytes (tail_segment dir) 3;
  let s = open_cfg dir in
  let ri = Store.recovery s in
  check Alcotest.int "torn frame truncated" 1 ri.Store.ri_torn_frames;
  check Alcotest.bool "torn bytes counted" true (ri.Store.ri_torn_bytes > 0);
  check Alcotest.bool "root-of-trust verified" true ri.Store.ri_root_verified;
  check_contents s (entries @ [ sample_pp ~seqno:90 () ]);
  Store.close s

let test_interior_corruption_rejected () =
  let dir = fresh_dir () in
  let s = open_cfg ~segment_bytes:512 dir in
  ignore (fill s (sample_entries 40));
  Store.close s;
  (* Damage in a non-tail segment is not a torn write; it must refuse to
     open rather than silently drop committed history. *)
  flip_byte (List.hd (segment_files dir)) 20;
  check Alcotest.bool "interior damage rejected" true
    (match open_cfg ~segment_bytes:512 dir with
    | (_ : Store.t) -> false
    | exception Store.Storage_error _ -> true)

let test_durable_prefix_protected () =
  let dir = fresh_dir () in
  let s = open_cfg dir in
  ignore (fill s (sample_entries 8));
  Store.close s;
  (* Everything was synced; chopping into the tail now cuts below the
     root-of-trust, which recovery must detect. *)
  chop_bytes (tail_segment dir) 1;
  check Alcotest.bool "loss of durable entries rejected" true
    (match open_cfg dir with
    | (_ : Store.t) -> false
    | exception Store.Storage_error _ -> true)

let test_truncate_durable () =
  let dir = fresh_dir () in
  let entries = sample_entries 12 in
  let s = open_cfg ~segment_bytes:512 dir in
  Ledger.truncate (fill s entries) 5;
  check Alcotest.int "in-memory truncated" 5 (Store.length s);
  Store.crash s;
  (* Truncation rewrote the root-of-trust before the crash, so reopening
     recovers exactly the five entries. *)
  let s = open_cfg ~segment_bytes:512 dir in
  let keep = List.filteri (fun i _ -> i < 5) entries in
  check_contents s keep;
  let extra = sample_pp ~seqno:77 () in
  append (resume s) extra;
  Store.close s;
  let s = open_cfg ~segment_bytes:512 dir in
  check_contents s (keep @ [ extra ]);
  Store.close s

(* --- Deferred syncs --- *)

(* Interval syncs run on the background worker. After a crash, the store's
   files, its length and its root must be what a synchronous sync every
   4 appends leaves, with as many syncs counted. *)
let test_deferred_syncs_match_sync () =
  let entries = sample_entries 30 in
  let run ~fsync ~after =
    let dir = fresh_dir () in
    let obs = Iaccf_obs.Obs.create ~metrics:true ~tracing:false () in
    let s = Store.open_store ~obs { Store.dir; segment_bytes = 512; fsync } in
    let ledger = fill s [ List.hd entries ] in
    List.iter
      (fun e ->
        append ledger e;
        after s)
      (List.tl entries);
    Store.crash s;
    (dir, Iaccf_obs.Obs.counter_value obs "storage.fsyncs")
  in
  let deferred, deferred_syncs =
    run ~fsync:(Store.Fsync_interval 4) ~after:(fun _ -> ())
  in
  let synced, synced_syncs =
    run ~fsync:Store.No_fsync ~after:(fun s -> if Store.length s mod 4 = 0 then Store.sync s)
  in
  check Alcotest.int "syncs" synced_syncs deferred_syncs;
  check
    Alcotest.(list (pair string string))
    "files" (dir_snapshot synced) (dir_snapshot deferred);
  let reopen dir =
    let s = open_cfg ~segment_bytes:512 dir in
    check Alcotest.bool "root-of-trust verified" true (Store.recovery s).Store.ri_root_verified;
    let root = Ledger.m_root (resume s) in
    let length = Store.length s in
    Store.close s;
    (length, root)
  in
  let length, root = reopen synced in
  let length', root' = reopen deferred in
  check Alcotest.int "length" length length';
  check digest_testable "root" root root'

(* The append that reaches the interval hands its sync to the worker; a
   truncation right behind it must still leave the root-of-trust at the
   truncated length, or reopening would find durable data lost. *)
let test_truncate_behind_deferred_sync () =
  let dir = fresh_dir () in
  let entries = sample_entries 15 in
  let s = open_cfg ~fsync:(Store.Fsync_interval 4) dir in
  Ledger.truncate (fill s entries) 6;
  Store.crash s;
  let s = open_cfg dir in
  check Alcotest.bool "root-of-trust verified" true (Store.recovery s).Store.ri_root_verified;
  check_contents s (List.filteri (fun i _ -> i < 6) entries);
  Store.close s

(* Once [close] returns, no sync of the store is left to write a file. *)
let test_close_drains_syncs () =
  let dir = fresh_dir () in
  let entries = sample_entries 21 in
  let s = open_cfg ~segment_bytes:512 ~fsync:(Store.Fsync_interval 2) dir in
  ignore (fill s entries);
  Store.close s;
  let closed = dir_snapshot dir in
  Iaccf_util.Worker.drain ();
  check Alcotest.(list (pair string string)) "files" closed (dir_snapshot dir);
  let s = open_cfg ~segment_bytes:512 dir in
  check_contents s entries;
  Store.close s

(* A durable ledger hashes exactly what an in-memory one does: the store
   frames the bytes the ledger serialized and keeps no Merkle tree of its
   own. Each side gets its own entries so nothing one run hashes is cached
   for the other. *)
let test_durable_ledger_hashes_once () =
  let blocks_of f =
    let before = Iaccf_crypto.Sha256.blocks () in
    f ();
    Iaccf_crypto.Sha256.blocks () - before
  in
  let push ledger entries () = List.iter (append ledger) (List.tl entries) in
  let entries = sample_entries 40 in
  let in_memory = blocks_of (push (Ledger.of_entries [ List.hd entries ]) entries) in
  let entries = sample_entries 40 in
  let s = open_cfg ~segment_bytes:512 (fresh_dir ()) in
  let durable = blocks_of (push (fill s [ List.hd entries ]) entries) in
  check Alcotest.int "SHA-256 compressions" in_memory durable;
  Store.close s

(* Two stores as long as each other but of different services: one's
   root-of-trust must not verify the other's entries. *)
let test_foreign_root_rejected () =
  let dir = fresh_dir () and other = fresh_dir () in
  let entries = sample_entries 8 in
  let s = open_cfg dir in
  ignore (fill s entries);
  Store.close s;
  let o = open_cfg other in
  ignore (fill o (Entry.Genesis (make_genesis "x") :: List.tl entries));
  Store.close o;
  let root_file d = Filename.concat d "root.iaccf" in
  write_file (root_file dir) (read_file (root_file other));
  check Alcotest.bool "foreign root-of-trust rejected" true
    (match open_cfg dir with
    | (_ : Store.t) -> false
    | exception Store.Storage_error _ -> true)

(* --- Compaction --- *)

let is_segment (f, _) = String.length f > 8 && String.sub f 0 8 = "segment-"

let test_prune_reopen () =
  let dir = fresh_dir () in
  let entries = sample_entries 40 in
  let s = open_cfg ~segment_bytes:512 dir in
  ignore (fill s entries);
  let dropped = Store.prune_before s 30 in
  check Alcotest.bool "whole segments dropped" true (dropped > 0);
  check Alcotest.int "base moved by the dropped entries" dropped (Store.pruned_before s);
  Store.close s;
  let s = open_cfg ~segment_bytes:512 dir in
  check Alcotest.int "base survives reopen" dropped (Store.pruned_before s);
  check Alcotest.bool "root-of-trust verified from the frontier" true
    (Store.recovery s).Store.ri_root_verified;
  check Alcotest.(list string) "history = the pre-prune entries"
    (List.map Entry.serialize entries)
    (List.map Entry.serialize (Store.history s));
  check Alcotest.bool "get below the base raises" true
    (match Store.get s (dropped - 1) with
    | (_ : Entry.t) -> false
    | exception Store.Storage_error _ -> true);
  check Alcotest.bool "prune without a ledger refused" true
    (match Store.prune_before s 35 with
    | (_ : int) -> false
    | exception Store.Storage_error _ -> true);
  (* The full history re-attaches and the pruned store keeps growing. *)
  let ledger = Ledger.of_entries (Store.history s) in
  Store.attach s ledger;
  append ledger (sample_pp ~seqno:500 ());
  Store.close s;
  let s = open_cfg ~segment_bytes:512 dir in
  check Alcotest.bool "grown pruned store verifies" true
    (Store.recovery s).Store.ri_root_verified;
  check digest_testable "grown pruned store's root" (Ledger.m_root ledger)
    (Ledger.m_root (Ledger.of_entries (Store.history s)));
  Store.close s

(* A crash after the prune marker is durable but before the unlinks
   leaves the pre-prune segments beside the marker: reopening finishes the
   unlink and recovers the same store. *)
let test_prune_crash_before_unlink () =
  let dir = fresh_dir () in
  let entries = sample_entries 40 in
  let s = open_cfg ~segment_bytes:512 dir in
  ignore (fill s entries);
  let before = dir_snapshot dir in
  let dropped = Store.prune_before s 30 in
  Store.close s;
  let after = dir_snapshot dir in
  let unlinked =
    List.filter
      (fun (f, _) -> not (List.mem_assoc f after))
      (List.filter is_segment before)
  in
  check Alcotest.bool "prune unlinked segments" true (unlinked <> []);
  let copy = fresh_dir () in
  Unix.mkdir copy 0o755;
  List.iter
    (fun (f, data) -> write_file (Filename.concat copy f) data)
    (after @ unlinked);
  let s = open_cfg ~segment_bytes:512 copy in
  check Alcotest.(list string) "stale segments unlinked on open"
    (List.map fst (List.filter is_segment after))
    (List.map fst (List.filter is_segment (dir_snapshot copy)));
  check Alcotest.int "base" dropped (Store.pruned_before s);
  check Alcotest.bool "root-of-trust verified" true
    (Store.recovery s).Store.ri_root_verified;
  check Alcotest.(list string) "history intact"
    (List.map Entry.serialize entries)
    (List.map Entry.serialize (Store.history s));
  Store.close s

(* A stale or foreign audit package must stop a prune before anything is
   unlinked: the export would not reproduce the ledger's root. *)
let test_prune_refuses_foreign_package () =
  let dir = fresh_dir () in
  let entries = sample_entries 40 in
  let s = open_cfg ~segment_bytes:512 dir in
  ignore (fill s entries);
  let foreign = Entry.Genesis (make_genesis "x") :: List.tl entries in
  Package.write_file (Store.package_path s)
    (Package.of_entries (List.filteri (fun i _ -> i < 5) foreign));
  let segments = segment_files dir in
  check Alcotest.bool "foreign package refused" true
    (match Store.prune_before s 30 with
    | (_ : int) -> false
    | exception Store.Storage_error _ -> true);
  check Alcotest.(list string) "nothing unlinked" segments (segment_files dir);
  check Alcotest.int "nothing pruned" 0 (Store.pruned_before s);
  Store.close s

(* [history] reads each segment file once and walks its frames. It must
   give what [get] gives index by index, with the audit package's entries
   below the base: on a multi-segment store, after a prune, and after a
   torn tail was recovered. *)
let test_history_matches_get () =
  let dir = fresh_dir () in
  let entries = sample_entries 60 in
  let check_history what s expected =
    let base = Store.pruned_before s in
    let history = List.map Entry.serialize (Store.history s) in
    check Alcotest.(list string) (what ^ ": history") (List.map Entry.serialize expected) history;
    check Alcotest.(list string) (what ^ ": retained entries = get")
      (List.init (Store.length s - base) (fun i -> Entry.serialize (Store.get s (base + i))))
      (List.filteri (fun i _ -> i >= base) history)
  in
  let s = open_cfg ~segment_bytes:512 dir in
  let ledger = fill s entries in
  check Alcotest.bool "several segments" true (Store.segments s > 3);
  check_history "multi-segment" s entries;
  check digest_testable "to_ledger root" (Ledger.m_root ledger)
    (Ledger.m_root (Store.to_ledger s));
  check Alcotest.bool "pruned" true (Store.prune_before s 30 > 0);
  check_history "pruned" s entries;
  Store.sync s;
  append ledger (sample_pp ~seqno:90 ());
  append ledger (sample_pp ~seqno:91 ());
  Store.crash s;
  chop_bytes (tail_segment dir) 3;
  let s = open_cfg ~segment_bytes:512 dir in
  check Alcotest.int "torn frame truncated" 1 (Store.recovery s).Store.ri_torn_frames;
  check_history "torn tail" s (entries @ [ sample_pp ~seqno:90 () ]);
  (* A frame damaged after the open fails its CRC on the read. *)
  flip_byte (List.hd (segment_files dir)) 20;
  check Alcotest.bool "damaged frame refused" true
    (match Store.history s with
    | (_ : Entry.t list) -> false
    | exception Store.Storage_error _ -> true);
  Store.close s

(* --- Kill-after-N-appends crash matrix --- *)

(* Append [total] entries with [synced] of them made durable, kill the
   process, then tear [chop] bytes off the tail segment. Recovery must keep
   at least the synced prefix, never invent entries, and rebuild a Merkle
   root that matches an in-memory ledger over the surviving prefix. *)
let crash_case ~total ~synced ~chop =
  let dir = fresh_dir () in
  let entries = sample_entries total in
  let s = open_cfg dir in
  let ledger = fill s [ List.hd entries ] in
  let bytes_at_sync = ref 0 in
  List.iteri
    (fun i e ->
      if i > 0 then append ledger e;
      if i = synced then begin
        Store.sync s;
        bytes_at_sync := Store.disk_bytes s
      end)
    entries;
  let unsynced_bytes = Store.disk_bytes s - !bytes_at_sync in
  Store.crash s;
  let chop = min chop unsynced_bytes in
  chop_bytes (tail_segment dir) chop;
  let s = open_cfg dir in
  let ri = Store.recovery s in
  let len = Store.length s in
  let label fmt =
    Printf.ksprintf
      (fun m -> Printf.sprintf "total=%d synced=%d chop=%d: %s" total synced chop m)
      fmt
  in
  check Alcotest.bool (label "synced prefix survives") true (len >= synced + 1);
  check Alcotest.bool (label "no invented entries") true (len <= total + 1);
  check Alcotest.bool (label "root-of-trust verified") true ri.Store.ri_root_verified;
  let keep = List.filteri (fun i _ -> i < len) entries in
  check_contents s keep;
  (* The recovered store must accept appends and survive another cycle. *)
  let extra = sample_pp ~seqno:1000 () in
  append (resume s) extra;
  Store.close s;
  let s = open_cfg dir in
  check_contents s (keep @ [ extra ]);
  Store.close s

let test_crash_matrix () =
  List.iter
    (fun (total, synced) ->
      List.iter
        (fun chop -> crash_case ~total ~synced ~chop)
        [ 0; 1; 7; 64; max_int ])
    [ (3, 0); (10, 4); (10, 9); (33, 15) ]

(* --- Attach safety: verify before anything destructive --- *)

let test_attach_divergence_preserves_store () =
  let dir = fresh_dir () in
  let entries = sample_entries 10 in
  let s = open_cfg dir in
  ignore (fill s entries);
  Store.close s;
  let s = open_cfg dir in
  (* Ledgers of a different service: attach must detect the diverging
     prefix before touching the store, be the ledger shorter, as long, or
     short by exactly the surplus a crashed append leaves. *)
  let other = Entry.Genesis (make_genesis "x") :: List.tl entries in
  List.iter
    (fun (what, ledger) ->
      check Alcotest.bool what true
        (match Store.attach s ledger with
        | () -> false
        | exception Store.Storage_error _ -> true))
    [
      ("genesis-only ledger rejected", Ledger.create (make_genesis "x"));
      ("ledger as long as the store rejected", Ledger.of_entries other);
      ( "ledger short by a crash-shaped surplus rejected",
        Ledger.of_entries (List.filteri (fun i _ -> i < 9) other) );
    ];
  check_contents s entries;
  Store.close s;
  let s = open_cfg dir in
  check_contents s entries;
  Store.close s

let test_attach_refuses_rollback_by_default () =
  let dir = fresh_dir () in
  let entries = sample_entries 10 in
  let s = open_cfg dir in
  ignore (fill s entries);
  Store.close s;
  let s = open_cfg dir in
  let prefix n = List.filteri (fun i _ -> i < n) entries in
  (* Same service, shorter ledger, and a surplus no crashed append leaves
     (it starts with a transaction and holds two pre-prepares): silently
     dropping synced history is refused with the store untouched. *)
  check Alcotest.bool "attach refuses a surplus that is not a crash artifact" true
    (match Store.attach s (Ledger.of_entries (prefix 6)) with
    | () -> false
    | exception Store.Storage_error _ -> true);
  check_contents s entries;
  (* One pre-prepare and its transaction past the ledger: the shape a
     crashed append leaves, dropped on attach. *)
  let shorter = Ledger.of_entries (prefix 9) in
  Store.attach s shorter;
  check_contents s (prefix 9);
  (* The sink is live and index-checked: appends flow through. *)
  append shorter (sample_pp ~seqno:42 ());
  check Alcotest.int "sink write-through" (Ledger.length shorter) (Store.length s);
  Store.close s;
  let s = open_cfg dir in
  check Alcotest.bool "root-of-trust verified" true
    (Store.recovery s).Store.ri_root_verified;
  check digest_testable "sink root tracks" (Ledger.m_root shorter)
    (Ledger.m_root (resume s));
  Store.close s

(* --- Read-only opens (offline audit must not mutate evidence) --- *)

let test_readonly_open_untouched () =
  let dir = fresh_dir () in
  let entries = sample_entries 8 in
  let s = open_cfg dir in
  let ledger = fill s entries in
  Store.sync s;
  (* One unsynced append, then a kill that tears the last frame. *)
  append ledger (sample_pp ~seqno:50 ());
  Store.crash s;
  chop_bytes (tail_segment dir) 2;
  let before = dir_snapshot dir in
  let s = open_cfg ~readonly:true dir in
  let ri = Store.recovery s in
  check Alcotest.int "synced prefix readable" 9 (Store.length s);
  check Alcotest.int "torn frame observed" 1 ri.Store.ri_torn_frames;
  check Alcotest.bool "root-of-trust verified" true ri.Store.ri_root_verified;
  check Alcotest.bool "writes refused" true
    (match Store.attach s (Store.to_ledger s) with
    | () -> false
    | exception Store.Storage_error _ -> true);
  let pkg = Package.of_entries (List.init (Store.length s) (Store.get s)) in
  check Alcotest.int "package built from read-only store" 9
    (List.length pkg.Package.pkg_entries);
  Store.close s;
  check Alcotest.bool "evidence byte-identical after audit" true
    (dir_snapshot dir = before)

(* --- Cluster persistence under SmallBank --- *)

let drive_smallbank ?client cluster ~txs ~seed =
  let client =
    match client with Some c -> c | None -> Cluster.add_client cluster ()
  in
  let rng = Rng.create (seed + 100) in
  let accounts = 8 in
  let ops =
    Smallbank.setup_ops ~accounts ~initial_balance:1000
    @ List.init txs (fun _ -> Smallbank.random_op rng ~accounts)
  in
  let total = List.length ops in
  let pending = ref ops in
  let completed = ref 0 in
  let receipts = ref [] in
  let rec submit_one () =
    match !pending with
    | [] -> ()
    | op :: rest ->
        pending := rest;
        Client.submit client ~proc:op.Smallbank.op_proc ~args:op.Smallbank.op_args
          ~on_complete:(fun oc ->
            incr completed;
            receipts := oc.Client.oc_receipt :: !receipts;
            submit_one ())
          ()
  in
  for _ = 1 to 8 do
    submit_one ()
  done;
  let ok =
    Cluster.run_until cluster ~timeout_ms:10_000_000.0 (fun () ->
        !completed >= total)
  in
  check Alcotest.bool "workload completed" true ok;
  List.rev !receipts

let test_smallbank_persist_reopen () =
  let dir = fresh_dir () in
  let persist = { (Store.default_config ~dir) with Store.fsync = Store.No_fsync } in
  let cluster = Cluster.make ~seed:5 ~n:4 ~app:(Smallbank.app ()) ~persist () in
  ignore (drive_smallbank cluster ~txs:12 ~seed:5);
  Cluster.sync_storage cluster;
  let ledger = Replica.ledger (Cluster.replica cluster 0) in
  let live = Option.get (Cluster.storage cluster 0) in
  check Alcotest.int "write-through length" (Ledger.length ledger)
    (Store.length live);
  (* Reopen replica 0's store from disk in a separate handle: the persisted
     ledger must match the in-memory one exactly. *)
  let s = open_cfg (Filename.concat dir "replica-0") in
  check Alcotest.int "reopened length" (Ledger.length ledger) (Store.length s);
  check Alcotest.bool "reopened root-of-trust verified" true
    (Store.recovery s).Store.ri_root_verified;
  let rebuilt = Store.to_ledger s in
  check digest_testable "rebuilt ledger root" (Ledger.m_root ledger)
    (Ledger.m_root rebuilt);
  check Alcotest.int "rebuilt byte totals" (Ledger.total_bytes ledger)
    (Ledger.total_bytes rebuilt);
  Store.close s

(* --- Cold-start restore: a restarted cluster replays its stores --- *)

let test_cluster_cold_restart () =
  let dir = fresh_dir () in
  let persist = { (Store.default_config ~dir) with Store.fsync = Store.No_fsync } in
  let cluster = Cluster.make ~seed:7 ~n:4 ~app:(Smallbank.app ()) ~persist () in
  ignore (drive_smallbank cluster ~txs:10 ~seed:7);
  let ledger1 = Replica.ledger (Cluster.replica cluster 0) in
  let len1 = Ledger.length ledger1 in
  let root1 = Ledger.m_root ledger1 in
  Cluster.close_storage cluster;
  (* "Fresh process": the same service seed reopens the same directories.
     Replicas must replay the persisted ledgers, never wipe them. *)
  let cluster2 = Cluster.make ~seed:7 ~n:4 ~app:(Smallbank.app ()) ~persist () in
  let ledger2 = Replica.ledger (Cluster.replica cluster2 0) in
  check Alcotest.int "restored length" len1 (Ledger.length ledger2);
  check digest_testable "restored root" root1 (Ledger.m_root ledger2);
  (* The restored service keeps committing: new operations arrive under a
     fresh client identity (the original identity's requests are already in
     the replicas' dedup tables). *)
  ignore (Cluster.add_client cluster2 ());
  let c2 = Cluster.add_client cluster2 () in
  ignore (drive_smallbank ~client:c2 cluster2 ~txs:6 ~seed:8);
  Cluster.sync_storage cluster2;
  let live = Option.get (Cluster.storage cluster2 0) in
  let ledger2 = Replica.ledger (Cluster.replica cluster2 0) in
  check Alcotest.bool "history grew after restart" true (Ledger.length ledger2 > len1);
  check Alcotest.int "write-through continued" (Ledger.length ledger2)
    (Store.length live);
  Cluster.close_storage cluster2;
  let s = open_cfg (Filename.concat dir "replica-0") in
  check Alcotest.bool "full history reopens clean" true
    (Store.recovery s).Store.ri_root_verified;
  check digest_testable "store root tracks restarted ledger" (Ledger.m_root ledger2)
    (Ledger.m_root (Store.to_ledger s));
  Store.close s

let test_restart_drops_partial_batch () =
  let dir = fresh_dir () in
  let persist = { (Store.default_config ~dir) with Store.fsync = Store.No_fsync } in
  let cluster = Cluster.make ~seed:9 ~n:4 ~app:(Smallbank.app ()) ~persist () in
  ignore (drive_smallbank cluster ~txs:8 ~seed:9);
  let ledger1 = Replica.ledger (Cluster.replica cluster 0) in
  let len1 = Ledger.length ledger1 in
  let root1 = Ledger.m_root ledger1 in
  Cluster.close_storage cluster;
  (* A crash mid-batch: a pre-prepare and one of its transactions reach
     replica 0's disk without the rest of the batch. *)
  let s = open_cfg (Filename.concat dir "replica-0") in
  let ledger = resume s in
  append ledger (sample_pp ~seqno:9999 ());
  append ledger (tx_entry ~index:9999 ~seqno:9999 ());
  Store.close s;
  let cluster2 = Cluster.make ~seed:9 ~n:4 ~app:(Smallbank.app ()) ~persist () in
  let ledger2 = Replica.ledger (Cluster.replica cluster2 0) in
  check Alcotest.int "partial batch dropped on restore" len1 (Ledger.length ledger2);
  check digest_testable "root restored" root1 (Ledger.m_root ledger2);
  let live = Option.get (Cluster.storage cluster2 0) in
  check Alcotest.int "store rolled back to the replayed prefix" len1
    (Store.length live);
  Cluster.close_storage cluster2

let test_restart_refuses_deep_damage () =
  let dir = fresh_dir () in
  let persist = { (Store.default_config ~dir) with Store.fsync = Store.No_fsync } in
  let cluster = Cluster.make ~seed:13 ~n:4 ~app:(Smallbank.app ()) ~persist () in
  ignore (drive_smallbank cluster ~txs:6 ~seed:13);
  Cluster.close_storage cluster;
  (* An unreplayable suffix that is NOT a trailing partial batch — a bogus
     complete batch followed by another pre-prepare. Restore must refuse
     rather than silently truncate what claims to be history. *)
  let s = open_cfg (Filename.concat dir "replica-0") in
  let before = Store.length s in
  let ledger = resume s in
  append ledger (sample_pp ~seqno:9999 ());
  append ledger (tx_entry ~index:9999 ~seqno:9999 ());
  append ledger (sample_pp ~seqno:10000 ());
  Store.close s;
  check Alcotest.bool "deeply damaged store refused" true
    (match Cluster.make ~seed:13 ~n:4 ~app:(Smallbank.app ()) ~persist () with
    | (_ : Cluster.t) -> false
    | exception Store.Storage_error _ -> true);
  (* Nothing was destroyed: the store still holds everything it held. *)
  let s = open_cfg (Filename.concat dir "replica-0") in
  check Alcotest.int "evidence preserved" (before + 3) (Store.length s);
  Store.close s

(* --- Ledger packages --- *)

let sample_package () =
  let ledger = Ledger.of_entries (sample_entries 6) in
  Package.of_ledger ~receipts:[ "blob-a"; "blob-bb" ] ledger

let test_package_roundtrip () =
  let pkg = sample_package () in
  let pkg' = Package.deserialize (Package.serialize pkg) in
  check Alcotest.int "entries" (List.length pkg.Package.pkg_entries)
    (List.length pkg'.Package.pkg_entries);
  check Alcotest.(list string) "receipt blobs" pkg.Package.pkg_receipts
    pkg'.Package.pkg_receipts;
  check digest_testable "root" pkg.Package.pkg_m_root pkg'.Package.pkg_m_root;
  check digest_testable "ledger rebuilds" pkg.Package.pkg_m_root
    (Ledger.m_root (Package.to_ledger pkg'));
  check digest_testable "genesis" (Genesis.hash genesis)
    (Genesis.hash (Package.genesis pkg'))

let test_package_rejects_corruption () =
  let enc = Package.serialize (sample_package ()) in
  let rejects what s =
    check Alcotest.bool what true
      (match Package.deserialize s with
      | (_ : Package.t) -> false
      | exception Package.Package_error _ -> true)
  in
  rejects "bad magic" ("XXXXXX\n" ^ String.sub enc 7 (String.length enc - 7));
  rejects "truncated" (String.sub enc 0 (String.length enc - 5));
  let flipped = Bytes.of_string enc in
  let off = String.length enc / 2 in
  Bytes.set flipped off (Char.chr (Char.code (Bytes.get flipped off) lxor 1));
  rejects "bit flip detected by checksum" (Bytes.to_string flipped);
  check Alcotest.bool "missing file" true
    (match Package.read_file "/nonexistent/iaccf.iapkg" with
    | (_ : Package.t) -> false
    | exception Package.Package_error _ -> true)

let test_package_file_roundtrip_from_store () =
  let dir = fresh_dir () in
  let s = open_cfg dir in
  ignore (fill s (sample_entries 9));
  let pkg =
    Package.of_entries ~receipts:[ "r1" ]
      (List.init (Store.length s) (Store.get s))
  in
  Store.close s;
  let file = Filename.concat dir "bundle.iapkg" in
  Package.write_file file pkg;
  let pkg' = Package.read_file file in
  check digest_testable "root preserved through file" pkg.Package.pkg_m_root
    pkg'.Package.pkg_m_root;
  check Alcotest.int "entries preserved" 10 (List.length pkg'.Package.pkg_entries);
  check Alcotest.bool "atomic write leaves no tmp file" false
    (Sys.file_exists (file ^ ".tmp"))

(* The acceptance scenario: an honest run leaves the client with receipts;
   every replica then colludes to rewrite history. The forged ledger plus
   the receipts travel through a package file, and a fully offline audit
   must still produce a uPoM blaming at least f+1 replicas. *)
let test_package_offline_audit () =
  let n = 4 in
  let seed = 11 in
  let cluster = Cluster.make ~seed ~n ~app:(Smallbank.app ()) () in
  let receipts = drive_smallbank cluster ~txs:6 ~seed in
  let genesis = Cluster.genesis cluster in
  let sks = List.init n (fun i -> (i, Cluster.replica_sk cluster i)) in
  let forge =
    Forge.create ~genesis ~sks ~app:(Smallbank.app ()) ~pipeline:2
      ~checkpoint_interval:1000
  in
  let csk, cpk = Schnorr.keypair_of_seed "other-client" in
  ignore
    (Forge.add_batch forge
       [
         Request.make ~sk:csk ~client_pk:cpk ~service:(Genesis.hash genesis)
           ~proc:"sb/create" ~args:"99,1,1" ();
       ]);
  let pkg =
    Package.of_ledger
      ~receipts:(List.map Receipt.serialize receipts)
      (Forge.ledger forge)
  in
  let dir = fresh_dir () in
  Sys.mkdir dir 0o755;
  let file = Filename.concat dir "attack.iapkg" in
  Package.write_file file pkg;
  (* Offline: every audit input comes from the file. *)
  let pkg = Package.read_file file in
  let ledger = Package.to_ledger pkg in
  let receipts = List.map Receipt.deserialize pkg.Package.pkg_receipts in
  let params = Replica.default_params in
  let enforcer =
    Enforcer.create ~genesis:(Package.genesis pkg) ~app:(Smallbank.app ())
      ~pipeline:params.Replica.pipeline
      ~checkpoint_interval:params.Replica.checkpoint_interval
  in
  let outcome =
    Enforcer.investigate enforcer ~receipts ~gov_receipts:[]
      ~provider:(fun _ ->
        Some { Enforcer.resp_ledger = ledger; resp_checkpoint = pkg.Package.pkg_checkpoint })
  in
  match outcome with
  | Enforcer.Members_punished { punished; verdict } ->
      let blamed = Bitmap.to_list verdict.Audit.v_blamed_replicas in
      let f = Config.f (Package.genesis pkg).Genesis.initial_config in
      check Alcotest.bool
        (Printf.sprintf "blames at least f+1 replicas (got %d)"
           (List.length blamed))
        true
        (List.length blamed >= f + 1);
      check Alcotest.bool "members punished" true (punished <> [])
  | _ -> Alcotest.fail "expected Members_punished from the offline audit"

let () =
  Alcotest.run "iaccf_storage"
    [
      ( "store",
        [
          case "fresh append reopen" test_fresh_append_reopen;
          case "segment rolling" test_segment_rolling;
          case "torn tail truncated" test_torn_tail_truncated;
          case "interior corruption rejected" test_interior_corruption_rejected;
          case "durable prefix protected" test_durable_prefix_protected;
          case "truncate durable" test_truncate_durable;
          case "attach divergence preserves store" test_attach_divergence_preserves_store;
          case "attach refuses rollback by default"
            test_attach_refuses_rollback_by_default;
          case "read-only open leaves evidence untouched" test_readonly_open_untouched;
          case "durable ledger hashes once" test_durable_ledger_hashes_once;
          case "foreign root-of-trust rejected" test_foreign_root_rejected;
        ] );
      ( "deferred-sync",
        [
          case "crash = synchronous path" test_deferred_syncs_match_sync;
          case "truncate behind a sync" test_truncate_behind_deferred_sync;
          case "close drains the worker" test_close_drains_syncs;
        ] );
      ( "prune",
        [
          case "prune and reopen" test_prune_reopen;
          case "crash before the unlinks" test_prune_crash_before_unlink;
          case "history = per-index get" test_history_matches_get;
          case "foreign package refused" test_prune_refuses_foreign_package;
        ] );
      ( "crash-matrix",
        [ case "kill after N appends" test_crash_matrix ] );
      ( "cluster-persistence",
        [
          case "smallbank persist + reopen" test_smallbank_persist_reopen;
          case "cold restart replays the store" test_cluster_cold_restart;
          case "restart drops a trailing partial batch" test_restart_drops_partial_batch;
          case "restart refuses deep damage" test_restart_refuses_deep_damage;
        ] );
      ( "package",
        [
          case "roundtrip" test_package_roundtrip;
          case "corruption rejected" test_package_rejects_corruption;
          case "file roundtrip from store" test_package_file_roundtrip_from_store;
          case "offline audit of a rewrite attack" test_package_offline_audit;
        ] );
    ]
