open Iaccf_kv
module D = Iaccf_crypto.Digest32
module Codec = Iaccf_util.Codec

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let digest_testable = Alcotest.testable D.pp_full D.equal

(* A store's state as a checkpoint digest would seal it. *)
let state_digest s = Checkpoint.(digest (make ~seqno:0 (Store.map s)))

(* --- The key-value map. The test group keeps its old name, "hamt", so
   test ids stay stable across the HAMT's replacement by [State]. --- *)

let test_state_basic () =
  let m = State.(empty |> add "a" "1" |> add "b" "2") in
  check Alcotest.(option string) "find a" (Some "1") (State.find_opt "a" m);
  check Alcotest.(option string) "find b" (Some "2") (State.find_opt "b" m);
  check Alcotest.(option string) "find c" None (State.find_opt "c" m);
  check Alcotest.int "cardinal" 2 (State.cardinal m)

let test_state_overwrite () =
  let m = State.(empty |> add "k" "v1" |> add "k" "v2") in
  check Alcotest.(option string) "overwrites" (Some "v2") (State.find_opt "k" m);
  check Alcotest.int "cardinal unchanged" 1 (State.cardinal m)

let test_state_remove () =
  let m = State.(empty |> add "a" "1" |> add "b" "2" |> remove "a") in
  check Alcotest.(option string) "removed" None (State.find_opt "a" m);
  check Alcotest.(option string) "kept" (Some "2") (State.find_opt "b" m);
  check Alcotest.int "cardinal" 1 (State.cardinal m);
  let m2 = State.remove "missing" m in
  check Alcotest.int "remove missing noop" 1 (State.cardinal m2)

let test_state_persistence () =
  let m1 = State.(empty |> add "k" "old") in
  let m2 = State.add "k" "new" m1 in
  check Alcotest.(option string) "old version intact" (Some "old") (State.find_opt "k" m1);
  check Alcotest.(option string) "new version" (Some "new") (State.find_opt "k" m2)

(* Checkpoint digests and snapshots rely on the map's own iteration order
   being [String.compare]'s, bytes >= 0x80 included. *)
let test_state_sorted_fold () =
  let m = State.of_list [ ("c", "3"); ("\xff", "5"); ("a", "1"); ("", "0"); ("b", "2") ] in
  check
    Alcotest.(list (pair string string))
    "sorted"
    [ ("", "0"); ("a", "1"); ("b", "2"); ("c", "3"); ("\xff", "5") ]
    (State.fold (fun k v acc -> (k, v) :: acc) m [] |> List.rev)

let test_state_many_keys () =
  let n = 5000 in
  let m =
    List.fold_left
      (fun m i -> State.add (Printf.sprintf "key-%05d" i) (string_of_int i) m)
      State.empty (List.init n Fun.id)
  in
  check Alcotest.int "cardinal" n (State.cardinal m);
  check Alcotest.(option string) "spot check" (Some "4321")
    (State.find_opt "key-04321" m);
  let m =
    List.fold_left
      (fun m i -> State.remove (Printf.sprintf "key-%05d" i) m)
      m
      (List.init (n / 2) (fun i -> 2 * i))
  in
  check Alcotest.int "after removals" (n / 2) (State.cardinal m);
  check Alcotest.(option string) "even gone" None (State.find_opt "key-00042" m);
  check Alcotest.(option string) "odd kept" (Some "43") (State.find_opt "key-00043" m)

(* Random add/remove sequences against an association-list model of a
   map, which shares no code with [State]: bindings come out in
   [String.compare] order and [find_opt] agrees on present and absent
   keys. *)
let apply_ops_state ops =
  List.fold_left
    (fun m -> function `Add (k, v) -> State.add k v m | `Remove k -> State.remove k m)
    State.empty ops

let apply_ops_model ops =
  List.fold_left
    (fun l -> function
      | `Add (k, v) -> (k, v) :: List.remove_assoc k l
      | `Remove k -> List.remove_assoc k l)
    [] ops

let arb_ops =
  let open QCheck in
  let key = Gen.map (Printf.sprintf "k%d") (Gen.int_bound 40) in
  let op =
    Gen.frequency
      [
        (3, Gen.map2 (fun k v -> `Add (k, Printf.sprintf "v%d" v)) key (Gen.int_bound 100));
        (1, Gen.map (fun k -> `Remove k) key);
      ]
  in
  make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | `Add (k, v) -> Printf.sprintf "+%s=%s" k v | `Remove k -> Printf.sprintf "-%s" k)
           ops))
    (Gen.list_size (Gen.int_range 0 200) op)

let prop_state_matches_model =
  QCheck.Test.make ~name:"HAMT matches Map oracle" ~count:200 arb_ops (fun ops ->
      let m = apply_ops_state ops and l = apply_ops_model ops in
      State.bindings m = List.sort (fun (a, _) (b, _) -> String.compare a b) l
      && State.cardinal m = List.length l)

let prop_state_find_matches_model =
  QCheck.Test.make ~name:"find matches Map oracle" ~count:200 arb_ops (fun ops ->
      let m = apply_ops_state ops and l = apply_ops_model ops in
      List.for_all
        (fun i ->
          let k = Printf.sprintf "k%d" i in
          State.find_opt k m = List.assoc_opt k l)
        (List.init 41 Fun.id))

(* --- Store --- *)

let test_store_tx_commit () =
  let s = Store.create () in
  let tx = Store.begin_tx s in
  Store.put tx "alice" "100";
  Store.put tx "bob" "50";
  let _ = Store.commit tx in
  check Alcotest.(option string) "committed" (Some "100") (State.find_opt "alice" (Store.map s));
  check Alcotest.(option string) "both writes" (Some "50") (State.find_opt "bob" (Store.map s))

let test_store_tx_abort () =
  let s = Store.create () in
  let tx = Store.begin_tx s in
  Store.put tx "alice" "100";
  Store.abort tx;
  check Alcotest.bool "not committed" true (State.is_empty (Store.map s))

let test_store_reads_own_writes () =
  let s = Store.create () in
  let tx = Store.begin_tx s in
  Store.put tx "k" "v";
  check Alcotest.(option string) "reads own write" (Some "v") (Store.get tx "k");
  Store.delete tx "k";
  check Alcotest.(option string) "reads own delete" None (Store.get tx "k");
  Store.abort tx

let test_store_single_open_tx () =
  let s = Store.create () in
  let tx = Store.begin_tx s in
  Alcotest.check_raises "second tx"
    (Invalid_argument "Store.begin_tx: transaction already open") (fun () ->
      ignore (Store.begin_tx s));
  Store.abort tx

(* Undo by value: committing, aborting and putting back a map captured
   earlier leaves the state a fresh store reaches by replaying only the
   transactions that survived. *)
type store_op =
  | Commit of (string * string option) list (* [None] deletes the key *)
  | Abort of (string * string option) list
  | Capture
  | Undo of int (* back to a captured map, picked modulo the count *)

let show_op =
  let writes ws =
    String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ Option.value v ~default:"-") ws)
  in
  function
  | Commit ws -> "commit[" ^ writes ws ^ "]"
  | Abort ws -> "abort[" ^ writes ws ^ "]"
  | Capture -> "capture"
  | Undo i -> Printf.sprintf "undo %d" i

let arb_store_ops =
  let open QCheck.Gen in
  let write =
    pair (map (Printf.sprintf "k%d") (int_bound 7)) (opt (map string_of_int (int_bound 99)))
  in
  let writes = list_size (int_range 1 4) write in
  let op =
    frequency
      [
        (4, map (fun ws -> Commit ws) writes);
        (1, map (fun ws -> Abort ws) writes);
        (1, return Capture);
        (1, map (fun i -> Undo i) (int_bound 20));
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat ", " (List.map show_op ops))
    (list_size (int_bound 60) op)

let run_writes s ws ~commit =
  let tx = Store.begin_tx s in
  List.iter
    (fun (k, v) -> match v with Some v -> Store.put tx k v | None -> Store.delete tx k)
    ws;
  if commit then ignore (Store.commit tx) else Store.abort tx

let prop_undo_by_value =
  QCheck.Test.make ~name:"undo to a captured map" ~count:300 arb_store_ops (fun ops ->
      let s = Store.create () in
      (* Committed transactions still in effect, newest first, and each
         captured map with the transactions in effect when it was taken. *)
      let surviving = ref [] and captured = ref [] in
      List.iter
        (function
          | Commit ws ->
              run_writes s ws ~commit:true;
              surviving := ws :: !surviving
          | Abort ws -> run_writes s ws ~commit:false
          | Capture -> captured := (Store.map s, !surviving) :: !captured
          | Undo i -> (
              match !captured with
              | [] -> ()
              | l ->
                  let m, txs = List.nth l (i mod List.length l) in
                  Store.reset_to s m;
                  surviving := txs))
        ops;
      let replay = Store.create () in
      List.iter (fun ws -> run_writes replay ws ~commit:true) (List.rev !surviving);
      State.equal String.equal (Store.map s) (Store.map replay)
      && D.equal (state_digest s) (state_digest replay))

(* The store holds the current map and nothing else: overwriting one key
   10,000 times leaves a one-key map, not every intermediate one. *)
let test_store_retains_no_history () =
  let s = Store.create () in
  for i = 1 to 10_000 do
    run_writes s [ ("k", Some (string_of_int i)) ] ~commit:true
  done;
  let words = Obj.reachable_words (Obj.repr s) in
  check Alcotest.bool (Printf.sprintf "%d words reachable" words) true (words < 64)

let test_write_set_hash_deterministic () =
  let run () =
    let s = Store.create () in
    let tx = Store.begin_tx s in
    Store.put tx "b" "2";
    Store.put tx "a" "1";
    Store.commit tx
  in
  check digest_testable "same writes, same hash" (run ()) (run ());
  (* Write order must not matter; only final values per key. *)
  let s = Store.create () in
  let tx = Store.begin_tx s in
  Store.put tx "a" "0";
  Store.put tx "a" "1";
  Store.put tx "b" "2";
  check digest_testable "last write wins" (run ()) (Store.commit tx)

let test_write_set_hash_differs () =
  let run v =
    let s = Store.create () in
    let tx = Store.begin_tx s in
    Store.put tx "a" v;
    Store.commit tx
  in
  check Alcotest.bool "different writes differ" false (D.equal (run "1") (run "2"))

(* The first canonical form: one hash table per call, folded and sorted. *)
let normalize_writes_by_table writes =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, w) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k w) writes;
  List.sort
    (fun (k1, _) (k2, _) -> String.compare k1 k2)
    (Hashtbl.fold (fun k w acc -> (k, w) :: acc) tbl [])

(* Random write lists, newest first, over a few keys so most repeat, with
   deletes. Replayed oldest first through a transaction, they give the
   write set and hash a commit returns. *)
let prop_normalize_writes_matches_table =
  let write =
    QCheck.Gen.(
      pair (oneofl [ ""; "a"; "b"; "ab"; "ba"; "c"; "k\000" ])
        (frequency [ (3, map (fun v -> Store.Put v) small_string); (1, return Store.Delete) ]))
  in
  let print =
    QCheck.Print.(
      list (pair string (function Store.Put v -> "Put " ^ v | Store.Delete -> "Delete")))
  in
  QCheck.Test.make ~name:"normalize_writes = hash-table form" ~count:300
    (QCheck.make ~print QCheck.Gen.(list_size (0 -- 24) write))
    (fun writes ->
      let expected = normalize_writes_by_table writes in
      let s = Store.create () in
      let tx = Store.begin_tx s in
      List.iter
        (fun (k, w) ->
          match w with Store.Put v -> Store.put tx k v | Store.Delete -> Store.delete tx k)
        (List.rev writes);
      let hash, committed = Store.commit_with_writes tx in
      Store.normalize_writes writes = expected
      && committed = expected
      && Store.normalize_writes expected = expected
      && D.equal hash (Store.write_set_hash expected))

let test_state_digest () =
  let s1 = Store.of_map (State.of_list [ ("a", "1"); ("b", "2") ]) in
  let s2 = Store.of_map (State.of_list [ ("b", "2"); ("a", "1") ]) in
  check digest_testable "insertion order irrelevant" (state_digest s1)
    (state_digest s2);
  let s3 = Store.of_map (State.of_list [ ("a", "1"); ("b", "3") ]) in
  check Alcotest.bool "value change detected" false
    (D.equal (state_digest s1) (state_digest s3))

(* --- Checkpoint --- *)

let test_checkpoint_roundtrip () =
  let cp = Checkpoint.make ~seqno:100 (State.of_list [ ("k", "v"); ("x", "y") ]) in
  let cp' = Checkpoint.deserialize (Checkpoint.serialize cp) in
  check Alcotest.int "seqno" 100 cp'.Checkpoint.seqno;
  check digest_testable "digest stable" (Checkpoint.digest cp) (Checkpoint.digest cp')

let test_checkpoint_digest_binds_seqno () =
  let state = State.of_list [ ("k", "v") ] in
  let a = Checkpoint.digest (Checkpoint.make ~seqno:1 state) in
  let b = Checkpoint.digest (Checkpoint.make ~seqno:2 state) in
  check Alcotest.bool "seqno bound" false (D.equal a b)

let test_checkpoint_genesis () =
  check Alcotest.int "genesis seqno" 0 Checkpoint.genesis.Checkpoint.seqno;
  check Alcotest.bool "genesis empty" true (State.is_empty Checkpoint.genesis.Checkpoint.state)

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~name:"checkpoint serialize roundtrip" ~count:100
    QCheck.(list (pair small_string small_string))
    (fun kvs ->
      let cp = Checkpoint.make ~seqno:7 (State.of_list kvs) in
      let cp' = Checkpoint.deserialize (Checkpoint.serialize cp) in
      D.equal (Checkpoint.digest cp) (Checkpoint.digest cp')
      && State.equal String.equal cp.Checkpoint.state cp'.Checkpoint.state)

(* The encoding before the state kept key order, as the oracle: the
   bindings sorted explicitly, then each one encoded with [Codec] on its
   own. *)
let oracle_bytes ~seqno kvs =
  let kvs = List.sort (fun (a, _) (b, _) -> String.compare a b) kvs in
  let binding (k, v) =
    Codec.encode (fun w ->
        Codec.W.bytes w k;
        Codec.W.bytes w v)
  in
  ( D.of_string
      (String.concat "" (Codec.encode (fun w -> Codec.W.u64 w seqno) :: List.map binding kvs)),
    Codec.encode (fun w ->
        Codec.W.u64 w seqno;
        Codec.W.list w
          (fun (k, v) ->
            Codec.W.bytes w k;
            Codec.W.bytes w v)
          kvs) )

(* Random add, overwrite and remove sequences. Keys mix the empty key,
   prefixes of one another and bytes >= 0x80; values run long enough that
   a state spans many of the digest's feed chunks. The model the oracle
   encodes is an association list, not a map. *)
let arb_state_ops =
  let open QCheck.Gen in
  let key =
    frequency
      [
        ( 3,
          oneofl
            [ ""; "a"; "ab"; "abc"; "b"; "\x7f"; "\x80"; "a\xff"; "\xff\xff"; "sb/c/10"; "sb/c/9" ] );
        (2, string_size ~gen:char (int_bound 6));
      ]
  in
  let value =
    frequency [ (4, string_size ~gen:char (int_bound 12)); (1, string_size (int_range 500 3000)) ]
  in
  let op =
    frequency [ (3, map2 (fun k v -> (k, Some v)) key value); (1, map (fun k -> (k, None)) key) ]
  in
  QCheck.make
    ~print:
      QCheck.Print.(
        list
          (pair String.escaped
             (option (fun v -> Printf.sprintf "<%d bytes>" (String.length v)))))
    (list_size (int_bound 120) op)

let prop_checkpoint_matches_oracle =
  QCheck.Test.make ~name:"digest and snapshot = sorted oracle" ~count:300
    QCheck.(pair arb_state_ops (int_bound 1_000_000))
    (fun (ops, seqno) ->
      let model =
        List.fold_left
          (fun m (k, v) ->
            let m = List.remove_assoc k m in
            match v with Some v -> (k, v) :: m | None -> m)
          [] ops
      in
      let state =
        List.fold_left
          (fun m (k, v) -> match v with Some v -> State.add k v m | None -> State.remove k m)
          State.empty ops
      in
      (* The same bindings inserted in another order build the same state. *)
      let reinserted = State.of_list (List.rev model) in
      let digest, bytes = oracle_bytes ~seqno model in
      List.for_all
        (fun state ->
          let cp = Checkpoint.make ~seqno state in
          D.equal (Checkpoint.digest cp) digest && String.equal (Checkpoint.serialize cp) bytes)
        [ state; reinserted ])

(* Pinned bytes: a 1,000-account SmallBank-shaped state at seqno 50. The
   digest and the snapshot's SHA-256 were computed by the HAMT-backed
   implementation, which sorted every binding list explicitly. *)
let test_checkpoint_known_answer () =
  let state =
    State.of_list
      (List.concat_map
         (fun id ->
           [
             (Printf.sprintf "sb/c/%d" id, string_of_int (1000 + (7 * id)));
             (Printf.sprintf "sb/s/%d" id, string_of_int (2000 + (3 * id)));
           ])
         (List.init 1000 Fun.id))
  in
  let cp = Checkpoint.make ~seqno:50 state in
  let hex d = Iaccf_util.Hex.encode (D.to_raw d) in
  check Alcotest.string "digest"
    "31da2b72d9d3039a1dc1116adb9a77f61529ff56273dc53f40dc4a2e4f54e7b2"
    (hex (Checkpoint.digest cp));
  check Alcotest.string "snapshot hash"
    "552a9b4ce51357b8164857b4824b3496a280cd78caf8549ebf2dd49ae01998b0"
    (Iaccf_util.Hex.encode (Iaccf_crypto.Sha256.digest (Checkpoint.serialize cp)));
  check Alcotest.string "genesis digest"
    "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"
    (hex (Checkpoint.digest Checkpoint.genesis))

let () =
  Alcotest.run "iaccf_kv"
    [
      ( "hamt",
        [
          Alcotest.test_case "basic" `Quick test_state_basic;
          Alcotest.test_case "overwrite" `Quick test_state_overwrite;
          Alcotest.test_case "remove" `Quick test_state_remove;
          Alcotest.test_case "persistence" `Quick test_state_persistence;
          Alcotest.test_case "sorted fold" `Quick test_state_sorted_fold;
          Alcotest.test_case "many keys" `Quick test_state_many_keys;
          qtest prop_state_matches_model;
          qtest prop_state_find_matches_model;
        ] );
      ( "store",
        [
          Alcotest.test_case "commit" `Quick test_store_tx_commit;
          Alcotest.test_case "abort" `Quick test_store_tx_abort;
          Alcotest.test_case "reads own writes" `Quick test_store_reads_own_writes;
          Alcotest.test_case "single open tx" `Quick test_store_single_open_tx;
          qtest prop_undo_by_value;
          Alcotest.test_case "retains no history" `Quick test_store_retains_no_history;
          Alcotest.test_case "write-set hash deterministic" `Quick
            test_write_set_hash_deterministic;
          Alcotest.test_case "write-set hash differs" `Quick test_write_set_hash_differs;
          qtest prop_normalize_writes_matches_table;
          Alcotest.test_case "state digest" `Quick test_state_digest;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "binds seqno" `Quick test_checkpoint_digest_binds_seqno;
          Alcotest.test_case "genesis" `Quick test_checkpoint_genesis;
          qtest prop_checkpoint_roundtrip;
          qtest prop_checkpoint_matches_oracle;
          Alcotest.test_case "known answer" `Quick test_checkpoint_known_answer;
        ] );
    ]
