open Iaccf_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Hex --- *)

let test_hex_roundtrip () =
  let s = "\x00\x01\xfe\xff hello" in
  check Alcotest.string "roundtrip" s (Hex.decode (Hex.encode s));
  check Alcotest.string "known" "deadbeef" (Hex.encode "\xde\xad\xbe\xef")

let test_hex_upper () =
  check Alcotest.string "upper" "\xde\xad\xbe\xef" (Hex.decode "DEADBEEF")

let test_hex_errors () =
  Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: non-hex character")
    (fun () -> ignore (Hex.decode "zz"))

let test_is_hex () =
  check Alcotest.bool "valid" true (Hex.is_hex "00ffAA12");
  check Alcotest.bool "odd" false (Hex.is_hex "abc");
  check Alcotest.bool "bad" false (Hex.is_hex "zz")

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string (fun s ->
      Hex.decode (Hex.encode s) = s)

(* --- Vec --- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get 57" 57 (Vec.get v 57);
  check Alcotest.(option int) "last" (Some 99) (Vec.last v)

let test_vec_truncate () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5 ] in
  Vec.truncate v 3;
  check Alcotest.(list int) "after truncate" [ 1; 2; 3 ] (Vec.to_list v);
  Vec.truncate v 10;
  check Alcotest.int "truncate beyond is noop" 3 (Vec.length v);
  Vec.push v 7;
  check Alcotest.(list int) "push after truncate" [ 1; 2; 3; 7 ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set: index out of bounds")
    (fun () -> Vec.set v 2 0)

let test_vec_sub_list () =
  let v = Vec.of_list [ 0; 1; 2; 3; 4 ] in
  check Alcotest.(list int) "middle" [ 1; 2; 3 ] (Vec.sub_list v 1 3);
  check Alcotest.(list int) "empty" [] (Vec.sub_list v 5 0)

let test_vec_copy_independent () =
  let v = Vec.of_list [ 1; 2 ] in
  let w = Vec.copy v in
  Vec.push v 3;
  check Alcotest.int "copy unaffected" 2 (Vec.length w)

let prop_vec_matches_list =
  QCheck.Test.make ~name:"vec mirrors list ops" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let v = Vec.of_list l in
      Vec.to_list v = l
      && Vec.length v = List.length l
      && Vec.fold_left (fun acc x -> acc + x) 0 v = List.fold_left ( + ) 0 l)

(* --- Codec --- *)

let test_codec_ints () =
  let s =
    Codec.encode (fun w ->
        Codec.W.u8 w 0xab;
        Codec.W.u16 w 0x1234;
        Codec.W.u32 w 0xdeadbeef;
        Codec.W.u64 w 0x1122334455667788)
  in
  Codec.decode s (fun r ->
      check Alcotest.int "u8" 0xab (Codec.R.u8 r);
      check Alcotest.int "u16" 0x1234 (Codec.R.u16 r);
      check Alcotest.int "u32" 0xdeadbeef (Codec.R.u32 r);
      check Alcotest.int "u64" 0x1122334455667788 (Codec.R.u64 r))

let test_codec_compound () =
  let s =
    Codec.encode (fun w ->
        Codec.W.bytes w "hello";
        Codec.W.list w (Codec.W.bytes w) [ "a"; "bc" ];
        Codec.W.option w (Codec.W.u8 w) (Some 7);
        Codec.W.option w (Codec.W.u8 w) None;
        Codec.W.bool w true)
  in
  Codec.decode s (fun r ->
      check Alcotest.string "bytes" "hello" (Codec.R.bytes r);
      check Alcotest.(list string) "list" [ "a"; "bc" ] (Codec.R.list r Codec.R.bytes);
      check Alcotest.(option int) "some" (Some 7) (Codec.R.option r Codec.R.u8);
      check Alcotest.(option int) "none" None (Codec.R.option r Codec.R.u8);
      check Alcotest.bool "bool" true (Codec.R.bool r))

let test_codec_trailing () =
  Alcotest.check_raises "trailing" (Codec.Decode_error "trailing bytes") (fun () ->
      Codec.decode "ab" (fun r -> ignore (Codec.R.u8 r)))

let test_codec_offset () =
  let s = "head" ^ Codec.encode (fun w -> Codec.W.bytes w "body") in
  check Alcotest.string "from pos" "body" (Codec.decode ~pos:4 s Codec.R.bytes);
  Alcotest.check_raises "pos past the end" (Invalid_argument "Codec.decode") (fun () ->
      ignore (Codec.decode ~pos:(String.length s + 1) s Codec.R.bytes))

let test_codec_truncated () =
  Alcotest.check_raises "eof" (Codec.Decode_error "unexpected end of input")
    (fun () -> Codec.decode "a" (fun r -> ignore (Codec.R.u32 r)))

let test_codec_bad_list_length () =
  (* u32 count far larger than remaining input must not allocate. *)
  let s = Codec.encode (fun w -> Codec.W.u32 w 0x7fffffff) in
  Alcotest.check_raises "list" (Codec.Decode_error "list length exceeds input")
    (fun () -> Codec.decode s (fun r -> ignore (Codec.R.list r Codec.R.u8)))

let prop_codec_u64_roundtrip =
  QCheck.Test.make ~name:"u64 roundtrip" ~count:200
    QCheck.(map abs int)
    (fun x ->
      let s = Codec.encode (fun w -> Codec.W.u64 w x) in
      Codec.decode s Codec.R.u64 = x)

let prop_codec_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:200 QCheck.string (fun s ->
      let enc = Codec.encode (fun w -> Codec.W.bytes w s) in
      Codec.decode enc Codec.R.bytes = s)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1000) in
  check Alcotest.(list int) "same seed, same stream" xs ys

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.fail "out of bounds"
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 5 (fun _ -> Rng.int a 1000000) in
  let ys = List.init 5 (fun _ -> Rng.int b 1000000) in
  if xs = ys then Alcotest.fail "split streams should differ"

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let l = List.init 50 Fun.id in
  let s = Rng.shuffle rng l in
  check Alcotest.(list int) "same multiset" l (List.sort compare s)

(* --- Bitmap --- *)

let test_bitmap_basic () =
  let b = Bitmap.of_list [ 0; 3; 63 ] in
  check Alcotest.bool "mem 3" true (Bitmap.mem 3 b);
  check Alcotest.bool "mem 4" false (Bitmap.mem 4 b);
  check Alcotest.int "cardinal" 3 (Bitmap.cardinal b);
  check Alcotest.(list int) "to_list sorted" [ 0; 3; 63 ] (Bitmap.to_list b)

let test_bitmap_set_ops () =
  let a = Bitmap.of_list [ 1; 2; 3 ] and b = Bitmap.of_list [ 2; 3; 4 ] in
  check Alcotest.(list int) "inter" [ 2; 3 ] (Bitmap.to_list (Bitmap.inter a b));
  check Alcotest.(list int) "union" [ 1; 2; 3; 4 ] (Bitmap.to_list (Bitmap.union a b));
  check Alcotest.(list int) "remove" [ 1; 3 ] (Bitmap.to_list (Bitmap.remove 2 a))

let test_bitmap_encode () =
  let b = Bitmap.of_list [ 0; 8; 63 ] in
  let s = Bitmap.encode b in
  check Alcotest.int "8 bytes" 8 (String.length s);
  check Alcotest.bool "roundtrip" true (Bitmap.equal b (Bitmap.decode s))

let test_bitmap_range () =
  Alcotest.check_raises "oob" (Invalid_argument "Bitmap: replica id out of range")
    (fun () -> ignore (Bitmap.add 64 Bitmap.empty))

let prop_bitmap_roundtrip =
  QCheck.Test.make ~name:"bitmap of_list/to_list" ~count:200
    QCheck.(list (int_bound 63))
    (fun l ->
      let sorted = List.sort_uniq compare l in
      Bitmap.to_list (Bitmap.of_list l) = sorted)

(* --- crc32 --- *)

(* The byte-at-a-time reference the sliced loop must agree with. *)
let crc32_bytewise s ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc32_vectors () =
  List.iter
    (fun (s, want) -> Alcotest.(check int) (Printf.sprintf "crc32 %S" s) want (Crc32.digest s))
    [
      ("", 0);
      ("a", 0xE8B7BE43);
      ("123456789", 0xCBF43926);
      ("The quick brown fox jumps over the lazy dog", 0x414FA339);
      (String.make 32 '\xff', 0xFF6CAB0B);
    ];
  Alcotest.check_raises "out of range" (Invalid_argument "Crc32.update") (fun () ->
      ignore (Crc32.digest_sub "abc" ~pos:2 ~len:2))

let prop_crc32_matches_bytewise =
  QCheck.Test.make ~name:"crc32 sliced = bytewise" ~count:500
    QCheck.(triple string small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      Crc32.digest_sub s ~pos ~len = crc32_bytewise s ~pos ~len)

let prop_crc32_range_is_substring =
  QCheck.Test.make ~name:"crc32 range = crc32 of the substring" ~count:500
    QCheck.(triple string small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      Crc32.digest_sub s ~pos ~len = Crc32.digest (String.sub s pos len))

let test_worker_fifo () =
  let ran = ref [] in
  let jobs = List.init 20 (fun i -> Worker.submit (fun () -> ran := i :: !ran; i * i)) in
  Alcotest.(check (list int)) "results" (List.init 20 (fun i -> i * i)) (List.map Worker.await jobs);
  Alcotest.(check (list int)) "run in submission order" (List.init 20 Fun.id) (List.rev !ran)

let test_worker_exception () =
  let failed = Worker.submit (fun () -> failwith "job failed") in
  let after = Worker.submit (fun () -> 7) in
  Alcotest.check_raises "re-raised at await" (Failure "job failed") (fun () ->
      ignore (Worker.await failed));
  Alcotest.check_raises "and again" (Failure "job failed") (fun () ->
      ignore (Worker.await failed));
  Alcotest.(check int) "the next job runs" 7 (Worker.await after)

(* The worker ends after a quiet spell and a new one takes the next job. *)
let test_worker_ends_when_idle () =
  let on () = Worker.await (Worker.submit Domain.self) in
  let first = on () in
  Unix.sleepf 0.2;
  Alcotest.(check bool) "a new worker after a quiet spell" false (first = on ())

(* A job handed over with [Sha256.count_here] counts toward the caller's
   compressions exactly once, whether its result is read or dropped. *)
let test_worker_counts_hashing () =
  let module Sha256 = Iaccf_crypto.Sha256 in
  let data = String.make 10_000 'x' in
  let blocks f =
    Worker.drain ();
    let before = Sha256.blocks () in
    f ();
    Worker.drain ();
    Sha256.blocks () - before
  in
  let inline = blocks (fun () -> ignore (Sha256.digest data)) in
  let job () = Worker.submit (Sha256.count_here (fun () -> Sha256.digest data)) in
  let read = blocks (fun () -> ignore (Worker.await (job ()))) in
  let dropped = blocks (fun () -> ignore (job ())) in
  Alcotest.(check int) "read" inline read;
  Alcotest.(check int) "dropped" inline dropped

(* --- Json --- *)

(* Every byte, alone and all together, escaped and parsed back. *)
let test_json_escape_roundtrip () =
  let back s = Json.parse ("\"" ^ Json.escape s ^ "\"") in
  let all = String.init 256 Char.chr in
  List.iter
    (fun s -> check Alcotest.(result string string) (String.escaped s) (Ok s)
        (Result.map (fun v -> Option.get (Json.to_string v)) (back s)))
    (all :: List.init 256 (fun b -> String.make 1 (Char.chr b)))

let () =
  Alcotest.run "iaccf_util"
    [
      ( "hex",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "uppercase" `Quick test_hex_upper;
          Alcotest.test_case "errors" `Quick test_hex_errors;
          Alcotest.test_case "is_hex" `Quick test_is_hex;
          qtest prop_hex_roundtrip;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "truncate" `Quick test_vec_truncate;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "sub_list" `Quick test_vec_sub_list;
          Alcotest.test_case "copy" `Quick test_vec_copy_independent;
          qtest prop_vec_matches_list;
        ] );
      ( "codec",
        [
          Alcotest.test_case "ints" `Quick test_codec_ints;
          Alcotest.test_case "compound" `Quick test_codec_compound;
          Alcotest.test_case "trailing" `Quick test_codec_trailing;
          Alcotest.test_case "truncated" `Quick test_codec_truncated;
          Alcotest.test_case "offset" `Quick test_codec_offset;
          Alcotest.test_case "hostile list length" `Quick test_codec_bad_list_length;
          qtest prop_codec_u64_roundtrip;
          qtest prop_codec_bytes_roundtrip;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
        ] );
      ( "bitmap",
        [
          Alcotest.test_case "basic" `Quick test_bitmap_basic;
          Alcotest.test_case "set ops" `Quick test_bitmap_set_ops;
          Alcotest.test_case "encode" `Quick test_bitmap_encode;
          Alcotest.test_case "range" `Quick test_bitmap_range;
          qtest prop_bitmap_roundtrip;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "vectors" `Quick test_crc32_vectors;
          qtest prop_crc32_matches_bytewise;
          qtest prop_crc32_range_is_substring;
        ] );
      ( "worker",
        [
          Alcotest.test_case "fifo" `Quick test_worker_fifo;
          Alcotest.test_case "exception at await" `Quick test_worker_exception;
          Alcotest.test_case "ends when idle" `Quick test_worker_ends_when_idle;
          Alcotest.test_case "hashing counted once" `Quick test_worker_counts_hashing;
        ] );
      ("json", [ Alcotest.test_case "escape round-trips every byte" `Quick test_json_escape_roundtrip ]);
    ]
