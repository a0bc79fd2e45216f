open Iaccf_crypto
module Hex = Iaccf_util.Hex

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let hex_digest s = Hex.encode (Sha256.digest s)

(* --- SHA-256 against FIPS 180-4 / NIST vectors --- *)

let test_sha256_vectors () =
  check Alcotest.string "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex_digest "");
  check Alcotest.string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex_digest "abc");
  check Alcotest.string "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex_digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check Alcotest.string "896-bit"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (hex_digest
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha256_million_a () =
  check Alcotest.string "1M a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex_digest (String.make 1_000_000 'a'))

let test_sha256_block_boundaries () =
  (* 55/56/63/64/65 bytes exercise every padding branch. *)
  let expected =
    [
      (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
      (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
      (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
      (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
      (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0");
    ]
  in
  List.iter
    (fun (n, hexpect) ->
      check Alcotest.string (string_of_int n) hexpect (hex_digest (String.make n 'a')))
    expected

let test_sha256_incremental () =
  let whole = Sha256.digest "the quick brown fox jumps over the lazy dog" in
  let ctx = Sha256.init () in
  Sha256.feed ctx "the quick brown ";
  Sha256.feed ctx "";
  Sha256.feed ctx "fox jumps over the lazy dog";
  check Alcotest.string "incremental = one-shot" (Hex.encode whole)
    (Hex.encode (Sha256.finalize ctx))

let prop_sha256_incremental_split =
  QCheck.Test.make ~name:"incremental feeding matches one-shot" ~count:100
    QCheck.(pair string small_nat)
    (fun (s, k) ->
      let k = if String.length s = 0 then 0 else k mod (String.length s + 1) in
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub s 0 k);
      Sha256.feed ctx (String.sub s k (String.length s - k));
      Sha256.finalize ctx = Sha256.digest s)

(* --- HMAC-SHA256 against RFC 4231 vectors --- *)

let test_hmac_rfc4231 () =
  let mac_hex ~key msg = Hex.encode (Hmac.mac ~key msg) in
  check Alcotest.string "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (mac_hex ~key:(String.make 20 '\x0b') "Hi There");
  check Alcotest.string "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (mac_hex ~key:"Jefe" "what do ya want for nothing?");
  check Alcotest.string "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (mac_hex ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  (* case 6: key longer than a block *)
  check Alcotest.string "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (mac_hex
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let key = "secret" and msg = "payload" in
  let m = Hmac.mac ~key msg in
  check Alcotest.bool "accepts" true (Hmac.verify ~key msg ~mac:m);
  check Alcotest.bool "rejects tamper" false (Hmac.verify ~key "payload!" ~mac:m);
  check Alcotest.bool "rejects short" false (Hmac.verify ~key msg ~mac:"short")

(* --- Bignum --- *)

let bn = Bignum.of_int
let bn_testable = Alcotest.testable Bignum.pp Bignum.equal

let test_bignum_basics () =
  check bn_testable "add" (bn 579) (Bignum.add (bn 123) (bn 456));
  check bn_testable "sub" (bn 111) (Bignum.sub (bn 234) (bn 123));
  check bn_testable "mul" (bn 56088) (Bignum.mul (bn 123) (bn 456));
  check Alcotest.bool "zero" true (Bignum.is_zero (Bignum.sub (bn 5) (bn 5)));
  check Alcotest.(option int) "to_int" (Some 123456789)
    (Bignum.to_int_opt (bn 123456789))

let test_bignum_sub_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Bignum.sub: negative result")
    (fun () -> ignore (Bignum.sub (bn 1) (bn 2)))

let test_bignum_hex () =
  let v = Bignum.of_hex "ffffffffffffffffffffffffffffffff" in
  check Alcotest.string "hex roundtrip" "ffffffffffffffffffffffffffffffff"
    (Bignum.to_hex v);
  check bn_testable "of_hex small" (bn 255) (Bignum.of_hex "ff");
  (* 2^128 - 1 + 1 = 2^128 *)
  check Alcotest.string "carry across limbs" "0100000000000000000000000000000000"
    (Bignum.to_hex (Bignum.add v Bignum.one))

let test_bignum_divmod_known () =
  let a = Bignum.of_hex "deadbeefdeadbeefdeadbeefdeadbeef" in
  let b = Bignum.of_hex "1234567890abcdef" in
  let q, r = Bignum.divmod a b in
  check bn_testable "a = q*b + r" a (Bignum.add (Bignum.mul q b) r);
  check Alcotest.bool "r < b" true (Bignum.compare r b < 0)

let test_bignum_shift () =
  let v = bn 1 in
  check bn_testable "1 << 100 >> 100" v
    (Bignum.shift_right (Bignum.shift_left v 100) 100);
  check Alcotest.int "bit_length 2^100" 101 (Bignum.bit_length (Bignum.shift_left v 100));
  check Alcotest.bool "test_bit" true (Bignum.test_bit (Bignum.shift_left v 100) 100)

let test_bignum_mask () =
  let v = Bignum.of_hex "ffff" in
  check bn_testable "mask 8" (bn 0xff) (Bignum.mask_bits v 8);
  check bn_testable "mask 20" v (Bignum.mask_bits v 20)

let test_bignum_bytes () =
  let s = "\x01\x02\x03\x04" in
  check Alcotest.string "roundtrip" s (Bignum.to_bytes_be (Bignum.of_bytes_be s));
  check Alcotest.string "fixed pad" "\x00\x00\x01\x00"
    (Bignum.to_bytes_be_fixed 4 (bn 256));
  Alcotest.check_raises "too large"
    (Invalid_argument "Bignum.to_bytes_be_fixed: value too large") (fun () ->
      ignore (Bignum.to_bytes_be_fixed 1 (bn 256)))

let test_bignum_mod_pow () =
  (* 3^20 mod 1000 = 3486784401 mod 1000 = 401 *)
  check bn_testable "3^20 mod 1000" (bn 401)
    (Bignum.mod_pow (bn 3) (bn 20) (bn 1000));
  (* Fermat: 2^(p-1) = 1 mod p for prime p = 1000003 *)
  check bn_testable "fermat" Bignum.one
    (Bignum.mod_pow (bn 2) (bn 1000002) (bn 1000003))

let arb_small_pair = QCheck.(pair (map abs int) (map abs int))

let prop_bignum_add_commutes =
  QCheck.Test.make ~name:"add commutes/matches int" ~count:300 arb_small_pair
    (fun (a, b) ->
      let s = Bignum.add (bn a) (bn b) in
      Bignum.equal s (Bignum.add (bn b) (bn a))
      && Bignum.to_int_opt s = Some (a + b))

let prop_bignum_mul_matches_int =
  QCheck.Test.make ~name:"mul matches int" ~count:300
    QCheck.(pair (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF))
    (fun (a, b) -> Bignum.to_int_opt (Bignum.mul (bn a) (bn b)) = Some (a * b))

let prop_bignum_divmod =
  QCheck.Test.make ~name:"divmod invariant" ~count:300
    QCheck.(pair (map abs int) (map (fun x -> (abs x mod 1000000) + 1) int))
    (fun (a, b) ->
      let q, r = Bignum.divmod (bn a) (bn b) in
      Bignum.to_int_opt q = Some (a / b) && Bignum.to_int_opt r = Some (a mod b))

let arb_big =
  QCheck.make
    ~print:(fun v -> Bignum.to_hex v)
    (QCheck.Gen.map
       (fun s -> Bignum.of_bytes_be (String.concat "" s))
       QCheck.Gen.(list_size (int_range 0 40) (map (String.make 1) char)))

let prop_bignum_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip big" ~count:200 arb_big (fun v ->
      Bignum.equal v (Bignum.of_bytes_be (Bignum.to_bytes_be v)))

let prop_bignum_divmod_big =
  QCheck.Test.make ~name:"divmod invariant big" ~count:100
    (QCheck.pair arb_big arb_big)
    (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let prop_bignum_shift_mul =
  QCheck.Test.make ~name:"shift_left n = mul 2^n" ~count:100
    (QCheck.pair arb_big (QCheck.int_bound 100))
    (fun (a, n) ->
      Bignum.equal (Bignum.shift_left a n)
        (Bignum.mul a (Bignum.mod_pow (bn 2) (bn n) (Bignum.shift_left Bignum.one 200))))

(* --- Group --- *)

let test_group_reduce_matches_rem () =
  let x = Bignum.of_hex (String.concat "" (List.init 16 (fun _ -> "deadbeef"))) in
  check bn_testable "reduce = rem" (Bignum.rem x Group.p) (Group.reduce x)

let test_group_pow_matches_mod_pow () =
  let b = bn 12345 and e = bn 6789 in
  check bn_testable "pow = mod_pow" (Bignum.mod_pow b e Group.p) (Group.pow b e)

let test_group_fermat () =
  (* g^n = 1 (mod p) since n = p - 1 and p is prime. *)
  check bn_testable "g^(p-1) = 1" Bignum.one (Group.pow Group.g Group.n)

let test_group_element_bytes () =
  check Alcotest.(option string) "roundtrip" (Some (Group.element_to_bytes (bn 42)))
    (Option.map Group.element_to_bytes (Group.element_of_bytes (Group.element_to_bytes (bn 42))));
  check Alcotest.bool "rejects zero" true
    (Group.element_of_bytes (String.make 32 '\x00') = None);
  check Alcotest.bool "rejects >= p" true
    (Group.element_of_bytes (String.make 32 '\xff') = None)

let prop_group_pow_homomorphism =
  QCheck.Test.make ~name:"g^a * g^b = g^(a+b)" ~count:20
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (a, b) ->
      let lhs = Group.mul (Group.pow Group.g (bn a)) (Group.pow Group.g (bn b)) in
      let rhs = Group.pow Group.g (bn (a + b)) in
      Bignum.equal lhs rhs)

let test_group_table_pow () =
  let base = bn 987654321 in
  let table = Group.make_table base in
  List.iter
    (fun e ->
      check bn_testable (Printf.sprintf "base^%d" e) (Group.pow base (bn e))
        (Group.pow_table table (bn e)))
    [ 0; 1; 2; 255; 1 lsl 30 ];
  (* A full-width exponent exercises every table entry the value touches. *)
  let e = Bignum.sub Group.n Bignum.one in
  check bn_testable "base^(n-1)" (Group.pow base e) (Group.pow_table table e);
  check bn_testable "g_table consistent" (Group.pow Group.g e) (Group.pow_g e)

let prop_group_multi_pow =
  QCheck.Test.make ~name:"multi_pow = product of pows" ~count:15
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 100000))
    (fun (a, b, c) ->
      let y = Group.pow_g (bn c) in
      let expect = Group.mul (Group.pow Group.g (bn a)) (Group.pow y (bn b)) in
      Bignum.equal expect (Group.multi_pow [ (Group.g, bn a); (y, bn b) ]))

(* --- Schnorr --- *)

let test_schnorr_sign_verify () =
  let sk, pk = Schnorr.keypair_of_seed "replica-0" in
  let digest = Sha256.digest "message" in
  let signature = Schnorr.sign sk digest in
  check Alcotest.int "signature size" 64 (String.length signature);
  check Alcotest.bool "verifies" true (Schnorr.verify pk digest ~signature)

let test_schnorr_rejects_wrong_digest () =
  let sk, pk = Schnorr.keypair_of_seed "replica-0" in
  let signature = Schnorr.sign sk (Sha256.digest "message") in
  check Alcotest.bool "wrong digest" false
    (Schnorr.verify pk (Sha256.digest "other") ~signature)

let test_schnorr_rejects_wrong_key () =
  let sk, _ = Schnorr.keypair_of_seed "replica-0" in
  let _, pk1 = Schnorr.keypair_of_seed "replica-1" in
  let digest = Sha256.digest "message" in
  let signature = Schnorr.sign sk digest in
  check Alcotest.bool "wrong key" false (Schnorr.verify pk1 digest ~signature)

let test_schnorr_rejects_tampered_sig () =
  let sk, pk = Schnorr.keypair_of_seed "replica-0" in
  let digest = Sha256.digest "message" in
  let signature = Schnorr.sign sk digest in
  let tampered =
    String.mapi (fun i c -> if i = 10 then Char.chr (Char.code c lxor 1) else c) signature
  in
  check Alcotest.bool "tampered" false (Schnorr.verify pk digest ~signature:tampered);
  check Alcotest.bool "truncated" false
    (Schnorr.verify pk digest ~signature:(String.sub signature 0 63))

let test_schnorr_deterministic () =
  let sk, _ = Schnorr.keypair_of_seed "replica-0" in
  let digest = Sha256.digest "message" in
  check Alcotest.string "deterministic" (Schnorr.sign sk digest) (Schnorr.sign sk digest)

let test_schnorr_pk_bytes_roundtrip () =
  let _, pk = Schnorr.keypair_of_seed "replica-0" in
  let b = Schnorr.public_key_to_bytes pk in
  check Alcotest.int "32 bytes" 32 (String.length b);
  match Schnorr.public_key_of_bytes b with
  | None -> Alcotest.fail "roundtrip failed"
  | Some pk' -> check Alcotest.bool "equal" true (Schnorr.public_key_equal pk pk')

let prop_schnorr_roundtrip =
  QCheck.Test.make ~name:"sign/verify roundtrip" ~count:20 QCheck.string
    (fun seed ->
      let sk, pk = Schnorr.keypair_of_seed seed in
      let digest = Sha256.digest seed in
      Schnorr.verify pk digest ~signature:(Schnorr.sign sk digest))

let prop_schnorr_cross_rejects =
  QCheck.Test.make ~name:"cross-key rejection" ~count:10
    QCheck.(pair small_string small_string)
    (fun (s1, s2) ->
      QCheck.assume (s1 <> s2);
      let sk, _ = Schnorr.keypair_of_seed s1 in
      let _, pk2 = Schnorr.keypair_of_seed s2 in
      let digest = Sha256.digest "msg" in
      not (Schnorr.verify pk2 digest ~signature:(Schnorr.sign sk digest)))

let test_schnorr_precompute_matches () =
  let sk, pk = Schnorr.keypair_of_seed "tabled" in
  let digest = Sha256.digest "message" in
  let signature = Schnorr.sign sk digest in
  let tampered =
    String.mapi (fun i c -> if i = 40 then Char.chr (Char.code c lxor 4) else c) signature
  in
  check Alcotest.bool "no table yet" false (Schnorr.has_table pk);
  let untabled_ok = Schnorr.verify pk digest ~signature in
  let untabled_bad = Schnorr.verify pk digest ~signature:tampered in
  Schnorr.precompute pk;
  check Alcotest.bool "table built" true (Schnorr.has_table pk);
  Schnorr.precompute pk (* idempotent *);
  check Alcotest.bool "tabled accepts" untabled_ok (Schnorr.verify pk digest ~signature);
  check Alcotest.bool "tabled rejects" untabled_bad
    (Schnorr.verify pk digest ~signature:tampered);
  check Alcotest.bool "accepts" true untabled_ok;
  check Alcotest.bool "rejects" false untabled_bad

(* --- Digest32 / Nonce --- *)

let test_digest32 () =
  let d = Digest32.of_string "x" in
  check Alcotest.string "raw = sha256" (Sha256.digest "x") (Digest32.to_raw d);
  check Alcotest.bool "hex roundtrip" true
    (Digest32.equal d (Digest32.of_hex (Digest32.to_hex d)));
  Alcotest.check_raises "bad raw" (Invalid_argument "Digest32.of_raw: expected 32 bytes")
    (fun () -> ignore (Digest32.of_raw "short"))

let test_nonce_commitment () =
  let rng = Iaccf_util.Rng.create 5 in
  let nonce = Nonce.generate rng in
  let commitment = Nonce.commit nonce in
  check Alcotest.bool "opens" true (Nonce.check ~commitment nonce);
  let other = Nonce.generate rng in
  check Alcotest.bool "rejects other" false (Nonce.check ~commitment other)

let test_nonce_derive_distinct () =
  let k = "key" in
  let n1 = Nonce.derive ~key:k ~view:0 ~seqno:1 in
  let n2 = Nonce.derive ~key:k ~view:0 ~seqno:2 in
  let n3 = Nonce.derive ~key:k ~view:1 ~seqno:1 in
  check Alcotest.bool "seqno distinct" false (Nonce.reveal n1 = Nonce.reveal n2);
  check Alcotest.bool "view distinct" false (Nonce.reveal n1 = Nonce.reveal n3);
  check Alcotest.string "deterministic" (Nonce.reveal n1)
    (Nonce.reveal (Nonce.derive ~key:k ~view:0 ~seqno:1))


(* --- Vstage: interning, the third-use table threshold, verification --- *)

let flip_bit s bit =
  let n = String.length s in
  if n = 0 then s
  else
    let i = bit / 8 mod n and b = bit mod 8 in
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl b)) else c)
      s

(* The stage must agree with Schnorr.verify on a fresh, untabled copy of
   the key — on valid signatures and on inputs with a random bit flipped
   in the public key, the digest, or the signature. Each key is used 1-5
   times, so checks fall on both sides of the table threshold, and the
   stage must have built exactly one table per key used at least 3 times
   (a flipped key is a key of its own). *)
let prop_vstage_matches_reference_under_flips =
  QCheck.Test.make ~name:"verify = untabled Schnorr.verify" ~count:15
    QCheck.(
      list_of_size (Gen.int_range 1 4)
        (list_of_size (Gen.int_range 1 5) (pair (int_bound 3) (int_bound 511))))
    (fun keys ->
      let cases =
        List.concat
          (List.mapi
             (fun k uses ->
               let sk, pk = Schnorr.keypair_of_seed (Printf.sprintf "flip-%d" k) in
               List.mapi
                 (fun u (target, bit) ->
                   let digest = Sha256.digest (Printf.sprintf "m-%d-%d" k u) in
                   let signature = Schnorr.sign sk digest in
                   match target with
                   | 0 -> (pk, digest, signature)
                   | 1 -> (
                       (* A flipped key encoding may no longer be a group
                          element; fall back to flipping the digest so the
                          case still exercises a corrupted input. *)
                       match
                         Schnorr.public_key_of_bytes
                           (flip_bit (Schnorr.public_key_to_bytes pk) bit)
                       with
                       | Some pk' -> (pk', digest, signature)
                       | None -> (pk, flip_bit digest bit, signature))
                   | 2 -> (pk, flip_bit digest bit, signature)
                   | _ -> (pk, digest, flip_bit signature bit))
                 uses)
             keys)
      in
      let reference (pk, digest, signature) =
        match Schnorr.public_key_of_bytes (Schnorr.public_key_to_bytes pk) with
        | Some fresh when not (Schnorr.has_table fresh) ->
            Schnorr.verify fresh digest ~signature
        | _ -> QCheck.Test.fail_report "reference key is not a fresh untabled copy"
      in
      let obs = Iaccf_obs.Obs.passive () in
      let st = Vstage.create ~obs () in
      let agree =
        List.for_all
          (fun ((pk, digest, signature) as case) ->
            Vstage.verify st ~cls:"flip" ~principal:Profile.Client_key pk digest
              ~signature
            = reference case)
          cases
      in
      let uses = Hashtbl.create 8 in
      List.iter
        (fun (pk, _, _) ->
          let kb = Schnorr.public_key_to_bytes pk in
          Hashtbl.replace uses kb (1 + Option.value (Hashtbl.find_opt uses kb) ~default:0))
        cases;
      let hot = Hashtbl.fold (fun _ n acc -> if n >= 3 then acc + 1 else acc) uses 0 in
      agree
      && Iaccf_obs.Obs.counter_value obs "crypto.keys.precomputed" = hot)

let () =
  Alcotest.run "iaccf_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental;
          qtest prop_sha256_incremental_split;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "basics" `Quick test_bignum_basics;
          Alcotest.test_case "sub negative" `Quick test_bignum_sub_negative;
          Alcotest.test_case "hex" `Quick test_bignum_hex;
          Alcotest.test_case "divmod known" `Quick test_bignum_divmod_known;
          Alcotest.test_case "shift" `Quick test_bignum_shift;
          Alcotest.test_case "mask" `Quick test_bignum_mask;
          Alcotest.test_case "bytes" `Quick test_bignum_bytes;
          Alcotest.test_case "mod_pow" `Quick test_bignum_mod_pow;
          qtest prop_bignum_add_commutes;
          qtest prop_bignum_mul_matches_int;
          qtest prop_bignum_divmod;
          qtest prop_bignum_bytes_roundtrip;
          qtest prop_bignum_divmod_big;
          qtest prop_bignum_shift_mul;
        ] );
      ( "group",
        [
          Alcotest.test_case "reduce" `Quick test_group_reduce_matches_rem;
          Alcotest.test_case "pow" `Quick test_group_pow_matches_mod_pow;
          Alcotest.test_case "fermat" `Quick test_group_fermat;
          Alcotest.test_case "element bytes" `Quick test_group_element_bytes;
          Alcotest.test_case "fixed-base table" `Quick test_group_table_pow;
          qtest prop_group_pow_homomorphism;
          qtest prop_group_multi_pow;
        ] );
      ( "schnorr",
        [
          Alcotest.test_case "sign/verify" `Quick test_schnorr_sign_verify;
          Alcotest.test_case "wrong digest" `Quick test_schnorr_rejects_wrong_digest;
          Alcotest.test_case "wrong key" `Quick test_schnorr_rejects_wrong_key;
          Alcotest.test_case "tampered" `Quick test_schnorr_rejects_tampered_sig;
          Alcotest.test_case "deterministic" `Quick test_schnorr_deterministic;
          Alcotest.test_case "pk bytes" `Quick test_schnorr_pk_bytes_roundtrip;
          qtest prop_schnorr_roundtrip;
          qtest prop_schnorr_cross_rejects;
          Alcotest.test_case "precompute matches" `Quick
            test_schnorr_precompute_matches;
        ] );
      ( "vstage", [ qtest prop_vstage_matches_reference_under_flips ] );
      ( "digest/nonce",
        [
          Alcotest.test_case "digest32" `Quick test_digest32;
          Alcotest.test_case "nonce commitment" `Quick test_nonce_commitment;
          Alcotest.test_case "nonce derive" `Quick test_nonce_derive_distinct;
        ] );
    ]
