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

(* --- SHA-256 against the straightforward oracle (test/sha256_ref.ml) --- *)

(* A message whose length sits on or next to a padding edge (55/56 bytes
   leave one block, 63/64 and 119/120 straddle blocks) more often than
   chance, cut at random points into the parts a caller feeds. *)
let gen_split_message =
  QCheck.Gen.(
    let edge = oneofl [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120; 121; 127; 128 ] in
    let len = frequency [ (3, edge); (2, int_bound 1_100) ] in
    len >>= fun n ->
    string_size ~gen:char (return n) >>= fun s ->
    list_size (0 -- 4) (int_bound n) >|= fun cuts ->
    let cuts = List.sort_uniq compare cuts in
    let rec parts from = function
      | [] -> [ String.sub s from (n - from) ]
      | c :: rest -> String.sub s from (c - from) :: parts c rest
    in
    (s, parts 0 cuts))

let prop_sha256_matches_oracle =
  QCheck.Test.make ~name:"digest, digest_concat and feed = oracle" ~count:400
    (QCheck.make
       ~print:(fun (s, parts) ->
         Printf.sprintf "len %d, parts %s" (String.length s)
           (String.concat "+" (List.map (fun p -> string_of_int (String.length p)) parts)))
       gen_split_message)
    (fun (s, parts) ->
      let expect = Sha256_ref.digest s in
      let ctx = Sha256.init () in
      List.iter (Sha256.feed ctx) parts;
      Sha256.digest s = expect
      && Sha256.digest_concat parts = expect
      && Sha256.finalize ctx = expect)

(* Two live streaming contexts fed in turn, with one-shot digests (which
   reuse the domain's shared context) between their feeds. *)
let test_sha256_interleaved_contexts () =
  let a = String.init 300 (fun i -> Char.chr (i land 0xff))
  and b = String.init 190 (fun i -> Char.chr ((7 * i) land 0xff)) in
  let ca = Sha256.init () and cb = Sha256.init () in
  let one_shots = ref [] in
  let between i =
    let m = String.make (i * 37) 'z' in
    one_shots := (Sha256.digest m, Sha256.digest_concat [ m; "!" ], m) :: !one_shots
  in
  List.iteri
    (fun i (pa, pb) ->
      Sha256.feed ca (String.sub a pa 50);
      between i;
      Sha256.feed cb (String.sub b pb 38);
      between (i + 1))
    [ (0, 0); (50, 38); (100, 76); (150, 114); (200, 152) ];
  Sha256.feed ca (String.sub a 250 50);
  check Alcotest.string "context a" (Hex.encode (Sha256_ref.digest a))
    (Hex.encode (Sha256.finalize ca));
  check Alcotest.string "context b" (Hex.encode (Sha256_ref.digest b))
    (Hex.encode (Sha256.finalize cb));
  List.iter
    (fun (d, dc, m) ->
      check Alcotest.string "one-shot" (Sha256_ref.digest m) d;
      check Alcotest.string "one-shot concat" (Sha256_ref.digest (m ^ "!")) dc)
    !one_shots

(* [blocks ()] moves by exactly the compressions the oracle makes. *)
let test_sha256_block_count () =
  List.iter
    (fun n ->
      let s = String.make n 'b' in
      let before = Sha256.blocks () and ref_before = Sha256_ref.compressions () in
      ignore (Sha256.digest s);
      ignore (Sha256.digest_concat [ s; "" ]);
      let ctx = Sha256.init () in
      Sha256.feed ctx s;
      ignore (Sha256.finalize ctx);
      ignore (Sha256_ref.digest s);
      check Alcotest.int (Printf.sprintf "%d bytes" n)
        (3 * (Sha256_ref.compressions () - ref_before))
        (Sha256.blocks () - before))
    [ 0; 1; 55; 56; 63; 64; 65; 119; 120; 1_000 ]

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

(* --- Group: the fixed-limb kernels against the Bignum oracle --- *)

let big_p = Bignum.sub (Bignum.shift_left Bignum.one 255) (bn 19)
let big_n = Bignum.sub big_p Bignum.one
let bytes32 = Bignum.to_bytes_be_fixed 32

(* The radix-2^25.5 layout: limb i at bit ceil(25.5 i), 26 bits wide
   when i is even and 25 when odd. *)
let limb_off i = ((51 * i) + 1) / 2
let limb_width i = 26 - (i land 1)

let limbs_of_big v =
  Array.init 10 (fun i ->
      Option.get
        (Bignum.to_int_opt (Bignum.mask_bits (Bignum.shift_right v (limb_off i)) (limb_width i))))

let big_of_limbs limbs =
  Array.fold_left Bignum.add Bignum.zero
    (Array.mapi (fun i l -> Bignum.shift_left (bn l) (limb_off i)) limbs)

(* The oracle's group: the pseudo-Mersenne fold (checked against
   [Bignum.rem] below) and plain square-and-multiply. *)
let oracle_reduce x =
  let x = ref x in
  while Bignum.bit_length !x > 255 do
    x :=
      Bignum.add (Bignum.mul_small (Bignum.shift_right !x 255) 19) (Bignum.mask_bits !x 255)
  done;
  if Bignum.compare !x big_p >= 0 then Bignum.sub !x big_p else !x

let oracle_mul a b = oracle_reduce (Bignum.mul a b)

let oracle_pow b e =
  let acc = ref Bignum.one in
  for i = Bignum.bit_length e - 1 downto 0 do
    acc := oracle_mul !acc !acc;
    if Bignum.test_bit e i then acc := oracle_mul !acc b
  done;
  !acc

let elt_bytes x = Group.element_to_bytes x
let sc_big v = Group.scalar_of_bytes (bytes32 v)
let sc i = sc_big (bn i)

let elt_testable =
  Alcotest.testable
    (fun ppf x -> Format.pp_print_string ppf (Hex.encode (elt_bytes x)))
    (fun a b -> elt_bytes a = elt_bytes b)

let big_elt v = Option.get (Group.element_of_bytes (bytes32 v))
let all_ones = Bignum.sub (Bignum.shift_left Bignum.one 264) Bignum.one

(* The largest limbs the kernels take: every limb at its width, and limb
   1 past 25 bits by the carry slack a kernel output may leave there
   (under 2^8). *)
let max_limbs = Array.init 10 (fun i -> (1 lsl limb_width i) - 1)
let slack_limbs = Array.mapi (fun i l -> if i = 1 then l + 0xFF else l) max_limbs

(* 0, 1, p-1, p, 2^255-1 (every limb at its maximum), the same with limb
   1's slack, and full top and bottom limbs: the kernel takes unreduced
   inputs, so the edges past p matter too. *)
let field_edges =
  List.map limbs_of_big
    [ Bignum.zero; Bignum.one; Bignum.sub big_p Bignum.one; big_p;
      Bignum.sub (Bignum.shift_left Bignum.one 255) Bignum.one ]
  @ [ slack_limbs; Array.mapi (fun i l -> if i = 0 || i = 9 then l else 0) max_limbs ]

let arb_limbs =
  let random =
    QCheck.Gen.(
      map Array.of_list (flatten_l (List.init 10 (fun i -> int_bound ((1 lsl limb_width i) - 1)))))
  in
  QCheck.make
    ~print:(fun l -> Bignum.to_hex (big_of_limbs l))
    QCheck.Gen.(
      frequency
        [ (1, oneofl field_edges);
          (3, random);
          (* A kernel output's limb 1 can carry past 25 bits. *)
          ( 1,
            map2
              (fun l s -> Array.mapi (fun i x -> if i = 1 then x + s else x) l)
              random (int_bound 0xFF) ) ])

let test_group_reduce_matches_rem () =
  List.iter
    (fun l ->
      let v = big_of_limbs l in
      check Alcotest.string (Bignum.to_hex v) (bytes32 (Bignum.rem v big_p))
        (elt_bytes (Group.element_of_limbs l)))
    (limbs_of_big (Bignum.of_hex (String.concat "" (List.init 8 (fun _ -> "deadbeef"))))
    :: field_edges);
  check Alcotest.string "oracle fold = rem" (bytes32 (Bignum.rem all_ones big_p))
    (bytes32 (oracle_reduce all_ones))

let prop_group_field_kernel =
  QCheck.Test.make ~name:"field mul/sqr = oracle" ~count:200 (QCheck.pair arb_limbs arb_limbs)
    (fun (la, lb) ->
      let a = Group.element_of_limbs la and b = Group.element_of_limbs lb in
      let ba = big_of_limbs la and bb = big_of_limbs lb in
      let modp x = bytes32 (Bignum.rem x big_p) in
      let ab = Group.mul a b and bab = Bignum.mul ba bb in
      (* Kernel outputs are only partly reduced; feed them back in. *)
      elt_bytes ab = modp bab
      && elt_bytes (Group.sqr a) = modp (Bignum.mul ba ba)
      && elt_bytes (Group.mul ab (Group.sqr ab)) = modp (Bignum.mul bab (Bignum.mul bab bab)))

(* Kernel outputs fed back in for 1,000 steps, alternately multiplied
   by [b] (on either side) and squared, from the largest limbs the kernels
   take: an overflow or a dropped carry anywhere in the chain shows. *)
let prop_group_field_chain =
  QCheck.Test.make ~name:"field mul/sqr chain = oracle" ~count:5 arb_limbs (fun lb ->
      let b = Group.element_of_limbs lb and bb = big_of_limbs lb in
      let x = ref (Group.element_of_limbs slack_limbs) and bx = ref (big_of_limbs slack_limbs) in
      let ok = ref true in
      for i = 1 to 1000 do
        if i land 1 = 1 then begin
          x := if i land 3 = 1 then Group.mul !x b else Group.mul b !x;
          bx := oracle_mul !bx bb
        end
        else begin
          x := Group.sqr !x;
          bx := oracle_mul !bx !bx
        end;
        ok := !ok && elt_bytes !x = bytes32 !bx
      done;
      !ok)

(* Scalars: 32 bytes reduced mod n, with the edges 0, 1, 2^24-1, n-1, n,
   p, 2^255-1 and 2^256-1 (bit 255 set). *)
let scalar_edges =
  [ Bignum.zero; Bignum.one; bn 0xFFFFFF; Bignum.sub big_n Bignum.one; big_n; big_p;
    Bignum.sub (Bignum.shift_left Bignum.one 255) Bignum.one;
    Bignum.sub (Bignum.shift_left Bignum.one 256) Bignum.one ]

let arb_bytes32 =
  QCheck.make ~print:Hex.encode
    QCheck.Gen.(
      frequency
        [ (1, map bytes32 (oneofl scalar_edges)); (3, string_size ~gen:char (return 32)) ])

let prop_group_scalar_kernel =
  QCheck.Test.make ~name:"scalar reduce/mul_add/neg = oracle" ~count:200
    (QCheck.triple arb_bytes32 arb_bytes32 arb_bytes32)
    (fun (ra, rb, rc) ->
      let modn x = bytes32 (Bignum.rem x big_n) in
      let a = Bignum.rem (Bignum.of_bytes_be ra) big_n
      and b = Bignum.rem (Bignum.of_bytes_be rb) big_n
      and c = Bignum.rem (Bignum.of_bytes_be rc) big_n in
      let sa = Group.scalar_of_bytes ra
      and sb = Group.scalar_of_bytes rb
      and sc = Group.scalar_of_bytes rc in
      Group.scalar_to_bytes sa = bytes32 a
      && Group.scalar_to_bytes (Group.scalar_mul_add sa sb sc)
         = modn (Bignum.add (Bignum.mul a b) c)
      && Group.scalar_to_bytes (Group.scalar_neg sa) = modn (Bignum.sub big_n a)
      && Group.scalar_is_zero sa = Bignum.is_zero a
      && Option.map Group.scalar_to_bytes (Group.scalar_of_canonical ra)
         = (if Bignum.compare (Bignum.of_bytes_be ra) big_n < 0 then Some ra else None))

let test_group_pow_matches_mod_pow () =
  let b = bn 12345 and e = bn 6789 in
  check Alcotest.string "pow = mod_pow" (bytes32 (Bignum.mod_pow b e big_p))
    (elt_bytes (Group.pow (big_elt b) (sc 6789)));
  let e = Bignum.sub big_n (bn 3) and b = Bignum.sub big_p (bn 2) in
  check Alcotest.string "full width = oracle" (bytes32 (oracle_pow b e))
    (elt_bytes (Group.pow (big_elt b) (sc_big e)))

let test_group_fermat () =
  (* g^(p-2) * g = g^(p-1) = 1 (mod p), p prime. *)
  check Alcotest.string "g^(p-1) = 1" (bytes32 Bignum.one)
    (elt_bytes (Group.mul (Group.pow Group.g (Group.scalar_neg Group.scalar_one)) Group.g))

let test_group_element_bytes () =
  check Alcotest.(option string) "roundtrip" (Some (bytes32 (bn 42)))
    (Option.map elt_bytes (Group.element_of_bytes (bytes32 (bn 42))));
  check Alcotest.bool "rejects zero" true
    (Group.element_of_bytes (String.make 32 '\x00') = None);
  check Alcotest.bool "accepts p-1" true
    (Group.element_of_bytes (bytes32 (Bignum.sub big_p Bignum.one)) <> None);
  check Alcotest.bool "rejects p" true (Group.element_of_bytes (bytes32 big_p) = None);
  check Alcotest.bool "rejects >= p" true
    (Group.element_of_bytes (String.make 32 '\xff') = None);
  check Alcotest.bool "rejects short" true (Group.element_of_bytes "\x01" = None)

let prop_group_pow_homomorphism =
  QCheck.Test.make ~name:"g^a * g^b = g^(a+b)" ~count:20
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (a, b) ->
      let lhs = Group.mul (Group.pow Group.g (sc a)) (Group.pow Group.g (sc b)) in
      elt_bytes lhs = elt_bytes (Group.pow Group.g (sc (a + b)))
      && elt_bytes lhs = elt_bytes (Group.pow_g (sc (a + b))))

(* Comb edges: 0, 1, n-1 (every column), 2^254 (only the top row's
   bit 30), and scalars with one set column: all eight rows of column 5,
   and column 31, whose row 7 bit (bit 255) no canonical scalar sets. *)
let comb_edges =
  let column j rows =
    List.fold_left
      (fun acc i -> Bignum.add acc (Bignum.shift_left Bignum.one ((32 * i) + j)))
      Bignum.zero rows
  in
  [ Bignum.zero; Bignum.one; Bignum.sub big_n Bignum.one;
    Bignum.shift_left Bignum.one 254;
    column 5 [ 0; 1; 2; 3; 4; 5; 6; 7 ]; column 31 [ 0; 1; 2; 3; 4; 5; 6 ] ]

let test_group_table_pow () =
  let b = bn 987654321 in
  let base = big_elt b in
  let table = Group.make_table base in
  List.iter
    (fun e ->
      check elt_testable (Printf.sprintf "base^%d" e) (Group.pow base (sc e))
        (Group.pow_table table (sc e)))
    [ 0; 1; 2; 255; 1 lsl 30 ];
  List.iter
    (fun e ->
      let x = sc_big e and name = Bignum.to_hex e in
      check Alcotest.string ("pow_table " ^ name) (bytes32 (oracle_pow b e))
        (elt_bytes (Group.pow_table table x));
      check Alcotest.string ("pow_g " ^ name) (bytes32 (oracle_pow (bn 2) e))
        (elt_bytes (Group.pow_g x));
      List.iter
        (fun e' ->
          check Alcotest.string
            (Printf.sprintf "pow_g_table %s %s" name (Bignum.to_hex e'))
            (bytes32 (oracle_mul (oracle_pow (bn 2) e) (oracle_pow b e')))
            (elt_bytes (Group.pow_g_table x table (sc_big e'))))
        comb_edges)
    comb_edges

(* The multiply count is exact: a table build is 224 squarings and 247
   multiplications; an exponentiation is 31 squarings and one
   multiplication per nonzero column of each scalar. *)
let test_group_muls () =
  let counted f =
    let before = Group.muls () in
    let v = f () in
    (Group.muls () - before, v)
  in
  let n1 = sc_big (Bignum.sub big_n Bignum.one) and zero = sc 0 in
  let built, table = counted (fun () -> Group.make_table (big_elt (bn 987654321))) in
  check Alcotest.int "make_table" (224 + 247) built;
  check Alcotest.int "pow_table, every column" (31 + 32)
    (fst (counted (fun () -> Group.pow_table table n1)));
  check Alcotest.int "pow_g of 1" (31 + 1) (fst (counted (fun () -> Group.pow_g (sc 1))));
  check Alcotest.int "pow_g_table, one side zero" (31 + 32)
    (fst (counted (fun () -> Group.pow_g_table zero table n1)));
  check Alcotest.int "pow_g_table, both sides" (31 + 64)
    (fst (counted (fun () -> Group.pow_g_table n1 table n1)))

(* The verification product g^s * y^(-e), both ways verify builds it,
   against the oracle. *)
let prop_group_verify_product =
  QCheck.Test.make ~name:"pow_g * pow = oracle product" ~count:10
    QCheck.(triple arb_bytes32 arb_bytes32 (int_range 2 1_000_000))
    (fun (rs, re, c) ->
      let s = Bignum.rem (Bignum.of_bytes_be rs) big_n
      and e = Bignum.rem (Bignum.of_bytes_be re) big_n in
      let y = oracle_pow (bn 2) (bn c) in
      let expect =
        bytes32 (oracle_mul (oracle_pow (bn 2) s) (oracle_pow y (Bignum.sub big_n e)))
      in
      let s = Group.scalar_of_bytes rs and ne = Group.scalar_neg (Group.scalar_of_bytes re) in
      elt_bytes (Group.mul (Group.pow_g s) (Group.pow (big_elt y) ne)) = expect
      && elt_bytes (Group.pow_g_table s (Group.make_table (big_elt y)) ne) = expect)

(* The single pass over two combs, on any base the kernel accepts
   (unreduced limbs included) and any scalars. *)
let prop_group_pow_g_table =
  QCheck.Test.make ~name:"pow_g_table = oracle g^x * b^y" ~count:50
    (QCheck.triple arb_limbs arb_bytes32 arb_bytes32)
    (fun (lb, rx, ry) ->
      let b = big_of_limbs lb
      and x = Bignum.rem (Bignum.of_bytes_be rx) big_n
      and y = Bignum.rem (Bignum.of_bytes_be ry) big_n in
      elt_bytes
        (Group.pow_g_table (Group.scalar_of_bytes rx)
           (Group.make_table (Group.element_of_limbs lb))
           (Group.scalar_of_bytes ry))
      = bytes32 (oracle_mul (oracle_pow (bn 2) x) (oracle_pow b y)))

(* --- Schnorr --- *)

let flip_bit s bit =
  let n = String.length s in
  if n = 0 then s
  else
    let i = bit / 8 mod n and b = bit mod 8 in
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl b)) else c)
      s


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

(* A key decodes exactly when its 32 bytes are in [1, p), and encodes
   back to the same bytes. *)
let prop_schnorr_pk_bytes_range =
  let edges =
    [ Bignum.zero; Bignum.one; Bignum.sub big_p Bignum.one; big_p; Bignum.add big_p Bignum.one;
      Bignum.sub (Bignum.shift_left Bignum.one 256) Bignum.one ]
  in
  QCheck.Test.make ~name:"pk bytes accepted exactly in [1, p)" ~count:300
    (QCheck.make ~print:Hex.encode
       QCheck.Gen.(
         frequency
           [ (1, map bytes32 (oneofl edges));
             (3, string_size ~gen:char (return 32));
             (1, map (fun s -> "\x7f\xff" ^ s) (string_size ~gen:char (return 30))) ]))
    (fun b ->
      let v = Bignum.of_bytes_be b in
      let in_range = (not (Bignum.is_zero v)) && Bignum.compare v big_p < 0 in
      match Schnorr.public_key_of_bytes b with
      | None -> not in_range
      | Some pk -> in_range && Schnorr.public_key_to_bytes pk = b)

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

(* Known answers from the generic-bignum implementation the fixed-limb
   kernels replaced: (seed, public key, signature on sha256("kat-" ^ seed)).
   Keys and signatures must stay byte-identical. *)
let known_answers =
  [
    ( "",
      "5295a556ab2b5cd8c6926deaee27a1ff9ec502b4bf547e369b12190b780a9056",
      "09702c51def16fff508dd13dcc53d1c7ed2f9fbe5c712abab1f787f976d9ed15"
      ^ "583b78a0845bcdda3ebfa0a93cea3198e63e9bc903c87829c3de9b9619ff2b1f" );
    ( "replica-0",
      "12b344d419b84dca3c2127fff95a35cd13fdb79a0ae3dd4016693a53a873b85d",
      "6ab217240604e8123792b927737b5a62638b8cab6afef283769a6c245dbb2667"
      ^ "352a41107dff1e3584feaf504a3984343abc8e0c2ad502cdedf35a17ec6f19f8" );
    ( "replica-1",
      "47e08096e12eb5ed76cc0b477f4c86152d50a1eac90c58e81f8fe27d54ec3f4f",
      "2c926de3ed22f4cc474a17d4a4a40a0962b4f25a1a6508d22b7e62c6ea17221d"
      ^ "71d0fc88561b26aacb872a7411573001d060c25c7f9931d317f1fa11bdd7cef6" );
    ( "replica-2",
      "62c599b49dba0611c43e4bd61de7ccb5dfaa6f256a3893a1243779e12e1fa73e",
      "549381ffb23855a4f9e6aaf286300caca421ce3d2fee53b403203cf9f21fc3e4"
      ^ "7c05278ae2837e2807c0ad8f3d2b280ddfcf9244029366e2c24d08d6e44ef85a" );
    ( "replica-3",
      "01e8d82c263af2c05cb14c6562bf107ab7d986bbaab8cd4885fa9678ceeac5c1",
      "772d038ef5c07b30b3b9bf4e4642968c0e116c59b0b4c4377662615cefd026a5"
      ^ "255fadb97de2b8c243ceabafde31795208f446cec10173b15e7b76032da2da3d" );
    ( "client-0",
      "35244af8bd2e4c47e140127b53639382488256167bc439245d393b38a9ce3ab9",
      "10d6e10d4d0e7279f11cb5d70a765d35f7c3fc60ef4dfa2bf7fb6581637a0fad"
      ^ "72d4e06de83bce25a99de1cdb917c73d4b8e50b96367b171fba4024f954ce4a3" );
    ( "client-17",
      "23c570073e79467746d71842cf7fc194682247ad5991c658d9c75d7d216135d6",
      "66fa18cede94c4fadd5bbfe1688c7627c38a2592600e92f45bd963353fe7a67f"
      ^ "6a0ed6e33a121e8a9267f7e336f16a0a68c2d557f118891c0fefcbe7ef6387f0" );
    ( "\000\255 seed",
      "10db377a017c2e34742c0d9c5bffc24c4e6736222ba8b23c8f5433ee8d9bf48a",
      "38dc2504858f3f65e16ff9a8013ee9dd1b40c199e7893cf43a285b830b2d6b43"
      ^ "7f80f286d379931ec834e6fc7416efebec507b2b2ebc7932171c6a73850f509e" );
  ]

let test_schnorr_known_answers () =
  List.iter
    (fun (seed, pk_hex, sig_hex) ->
      let sk, pk = Schnorr.keypair_of_seed seed in
      let digest = Sha256.digest ("kat-" ^ seed) in
      check Alcotest.string ("pk " ^ String.escaped seed) pk_hex
        (Hex.encode (Schnorr.public_key_to_bytes pk));
      check Alcotest.string ("sig " ^ String.escaped seed) sig_hex
        (Hex.encode (Schnorr.sign sk digest));
      check Alcotest.bool "verifies" true
        (Schnorr.verify pk digest ~signature:(Hex.decode sig_hex)))
    known_answers

(* The oracle's verify: R' = g^s * y^(n-e) on Bignum, then the challenge
   compare, with e and s range-checked against n. *)
let oracle_verify pk_bytes digest signature =
  String.length signature = 64
  &&
  let e = Bignum.of_bytes_be (String.sub signature 0 32)
  and s = Bignum.of_bytes_be (String.sub signature 32 32) in
  Bignum.compare e big_n < 0
  && Bignum.compare s big_n < 0
  &&
  let y = Bignum.of_bytes_be pk_bytes in
  let r = oracle_mul (oracle_pow (bn 2) s) (oracle_pow y (Bignum.sub big_n e)) in
  let e' =
    Bignum.rem (Bignum.of_bytes_be (Sha256.digest_concat [ bytes32 r; pk_bytes; digest ])) big_n
  in
  Bignum.equal e e'

let n_bytes = bytes32 big_n

(* Each corruption of a valid (key, digest, signature), named. *)
let corruptions =
  [
    ("valid", fun (_, d, sg) -> (None, d, sg));
    ("e = 0", fun (_, d, sg) -> (None, d, String.make 32 '\x00' ^ String.sub sg 32 32));
    ("e = n", fun (_, d, sg) -> (None, d, n_bytes ^ String.sub sg 32 32));
    ("s = n", fun (_, d, sg) -> (None, d, String.sub sg 0 32 ^ n_bytes));
    ("e flipped", fun (i, d, sg) -> (None, d, flip_bit sg (8 * (i mod 32))));
    ("s flipped", fun (i, d, sg) -> (None, d, flip_bit sg (8 * (32 + (i mod 32)))));
    ("wrong key", fun (_, d, sg) -> (Some "other key", d, sg));
    ("wrong digest", fun (i, d, sg) -> (None, flip_bit d i, sg));
  ]

let prop_schnorr_verify_matches_oracle =
  QCheck.Test.make ~name:"verify = oracle, tabled and untabled, corrupted" ~count:12
    QCheck.(pair small_string (int_bound 255))
    (fun (seed, i) ->
      let sk, pk = Schnorr.keypair_of_seed seed in
      let digest = Sha256.digest seed in
      let signature = Schnorr.sign sk digest in
      List.for_all
        (fun (name, corrupt) ->
          let other, d, sg = corrupt (i, digest, signature) in
          let pk = match other with None -> pk | Some s -> snd (Schnorr.keypair_of_seed s) in
          let kb = Schnorr.public_key_to_bytes pk in
          let fresh () = Option.get (Schnorr.public_key_of_bytes kb) in
          let tabled = fresh () in
          Schnorr.precompute tabled;
          let expect = oracle_verify kb d sg in
          let got_untabled = Schnorr.verify (fresh ()) d ~signature:sg in
          let got_tabled = Schnorr.verify tabled d ~signature:sg in
          if got_untabled <> expect || got_tabled <> expect then
            QCheck.Test.fail_reportf "%s: oracle %b, untabled %b, tabled %b" name expect
              got_untabled got_tabled;
          expect = (name = "valid"))
        corruptions)

(* Signing and verifying on two domains at once, on shared keys whose
   tables the domains race to build, gives what a sequential run gives. *)
let test_schnorr_parallel_domains () =
  let keys = Array.init 4 (fun i -> Schnorr.keypair_of_seed (Printf.sprintf "dom-%d" i)) in
  let job keys i =
    let sk, pk = keys.(i mod 4) in
    let digest = Sha256.digest (Printf.sprintf "dom-msg-%d" i) in
    let signature = Schnorr.sign sk digest in
    if i mod 3 = 0 then Schnorr.precompute pk;
    ( signature,
      Schnorr.verify pk digest ~signature,
      Schnorr.verify pk digest ~signature:(flip_bit signature i) )
  in
  let run keys lo = List.init 24 (fun i -> job keys (lo + i)) in
  let sequential =
    let keys = Array.init 4 (fun i -> Schnorr.keypair_of_seed (Printf.sprintf "dom-%d" i)) in
    run keys 0 @ run keys 24
  in
  let other = Domain.spawn (fun () -> run keys 24) in
  let mine = run keys 0 in
  let parallel = mine @ Domain.join other in
  check Alcotest.int "same length" (List.length sequential) (List.length parallel);
  List.iteri
    (fun i ((sg, ok, bad), (sg', ok', bad')) ->
      check Alcotest.string (Printf.sprintf "signature %d" i) (Hex.encode sg) (Hex.encode sg');
      check Alcotest.(pair bool bool) (Printf.sprintf "verdicts %d" i) (ok, bad) (ok', bad'))
    (List.combine sequential parallel);
  check Alcotest.bool "valid accepted, flipped rejected" true
    (List.for_all (fun (_, ok, bad) -> ok && not bad) sequential)

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


(* --- Sigcheck: one key table, combs at the use where they pay --- *)

(* Check-now must agree with Schnorr.verify on a fresh, untabled copy of
   the key — on valid signatures and on inputs with a random bit flipped
   in the public key, the digest, or the signature. Each key is used 1-6
   times, so checks fall on both sides of the comb rule, and the checker
   must have built exactly one comb per key whose uses reach
   [comb_pays] (a flipped key is a key of its own). *)
let prop_verify_matches_reference_under_flips =
  QCheck.Test.make ~name:"verify = untabled Schnorr.verify" ~count:15
    QCheck.(
      list_of_size (Gen.int_range 1 4)
        (list_of_size (Gen.int_range 1 6) (pair (int_bound 3) (int_bound 511))))
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
      let st = Sigcheck.create ~obs () in
      let agree =
        List.for_all
          (fun ((pk, digest, signature) as case) ->
            Sigcheck.verify st pk digest ~signature = reference case)
          cases
      in
      let uses = Hashtbl.create 8 in
      List.iter
        (fun (pk, _, _) ->
          let kb = Schnorr.public_key_to_bytes pk in
          Hashtbl.replace uses kb (1 + Option.value (Hashtbl.find_opt uses kb) ~default:0))
        cases;
      let hot =
        Hashtbl.fold (fun _ n acc -> if Sigcheck.comb_pays n then acc + 1 else acc) uses 0
      in
      agree
      && Iaccf_obs.Obs.counter_value obs "crypto.keys.precomputed" = hot)

(* Jobs over up to 6 keys, each job with a fresh copy of its key (as a
   decoded message has), about one in eight with a bit of its digest or
   signature flipped. At widths 1 to 3 the job list must name the first
   job that an untabled Schnorr.verify rejects. *)
let prop_jobs_first_failure =
  QCheck.Test.make ~name:"first failure = first rejected job, widths 1-3" ~count:10
    QCheck.(list_of_size (Gen.int_range 1 90) (triple (int_bound 5) (int_bound 15) (int_bound 511)))
    (fun spec ->
      let keys = Array.init 6 (fun k -> Schnorr.keypair_of_seed (Printf.sprintf "batch-%d" k)) in
      let copy pk = Option.get (Schnorr.public_key_of_bytes (Schnorr.public_key_to_bytes pk)) in
      let jobs =
        List.mapi
          (fun i (k, fault, bit) ->
            let sk, pk = keys.(k) in
            let digest = Sha256.digest (Printf.sprintf "batch-m-%d" i) in
            let signature = Schnorr.sign sk digest in
            match fault with
            | 0 -> (pk, flip_bit digest bit, signature)
            | 1 -> (pk, digest, flip_bit signature bit)
            | _ -> (pk, digest, signature))
          spec
      in
      let want =
        let rec first i = function
          | [] -> None
          | (pk, digest, signature) :: rest ->
              if Schnorr.verify (copy pk) digest ~signature then first (i + 1) rest else Some i
        in
        first 0 jobs
      in
      List.for_all
        (fun width ->
          let b = Sigcheck.start ~width ~expected:(List.length jobs) () in
          List.iteri
            (fun i (pk, digest, signature) -> Sigcheck.add b (copy pk) digest ~signature i)
            jobs;
          Sigcheck.finish b = want)
        [ 1; 2; 3 ])

(* A key used 3 times gets no comb; one used 6 times is checked untabled
   3 times, then gets its comb and is checked tabled 3 times; 29 keys
   used once are checked untabled. Both entry points make exactly those
   multiplies, the job list at widths 1 and 2. The hot key's first 3 jobs
   and the 29 others fill the first chunk, which is published, and the
   caller pauses before queuing the rest, so a helper checks those 3
   jobs before the comb is built. *)
let test_combs_where_they_pay () =
  let copy pk = Option.get (Schnorr.public_key_of_bytes (Schnorr.public_key_to_bytes pk)) in
  let job_list uses seed =
    let sk, pk = Schnorr.keypair_of_seed seed in
    List.init uses (fun i ->
        let digest = Sha256.digest (Printf.sprintf "%s-%d" seed i) in
        (copy pk, digest, Schnorr.sign sk digest))
  in
  let muls f =
    let m = Group.muls () in
    f ();
    Group.muls () - m
  in
  let check_all pk jobs =
    List.iter (fun (_, digest, signature) -> assert (Schnorr.verify pk digest ~signature)) jobs
  in
  let hot = job_list 6 "comb-hot" and cold = job_list 3 "comb-cold" in
  let singles = List.init 29 (fun i -> List.hd (job_list 1 (Printf.sprintf "comb-single-%d" i))) in
  let hot_first = List.filteri (fun i _ -> i < 3) hot
  and hot_rest = List.filteri (fun i _ -> i >= 3) hot in
  let untabled jobs =
    muls (fun () -> List.iter (fun ((pk, _, _) as j) -> check_all (copy pk) [ j ]) jobs)
  in
  let tabled jobs =
    let pk = match jobs with (pk, _, _) :: _ -> copy pk | [] -> assert false in
    muls (fun () ->
        Schnorr.precompute pk;
        check_all pk jobs)
  in
  let want = untabled (hot_first @ singles @ cold) + tabled hot_rest in
  check Alcotest.bool "a comb pays at 4 uses, not 3" true
    (Sigcheck.comb_pays 4 && not (Sigcheck.comb_pays 3));
  (* Fresh key values for each run: check-now tables the first it sees. *)
  let fresh jobs = List.map (fun (pk, d, s) -> (copy pk, d, s)) jobs in
  let st = Sigcheck.create () in
  let jobs = fresh (hot_first @ singles @ cold @ hot_rest) in
  check Alcotest.int "check now" want
    (muls (fun () ->
         List.iter
           (fun (pk, digest, signature) -> assert (Sigcheck.verify st pk digest ~signature))
           jobs));
  List.iter
    (fun width ->
      let early = fresh (hot_first @ singles) and late = fresh (cold @ hot_rest) in
      let b = Sigcheck.start ~width ~expected:41 () in
      let add = List.iter (fun (pk, digest, signature) -> Sigcheck.add b pk digest ~signature ()) in
      check Alcotest.int
        (Printf.sprintf "job list, width %d" width)
        want
        (muls (fun () ->
             add early;
             Unix.sleepf 0.02;
             add late;
             check Alcotest.(option unit) "all verify" None (Sigcheck.finish b))))
    [ 1; 2 ]

(* --- Sigcheck.ahead: checks made on the worker before they are used --- *)

module Worker = Iaccf_util.Worker

(* The verdict, field multiplies and compressions of [f ()]. *)
let counted f =
  let m = Group.muls () and b = Sha256.blocks () in
  let v = f () in
  (v, Group.muls () - m, Sha256.blocks () - b)

let copy_pk pk = Option.get (Schnorr.public_key_of_bytes (Schnorr.public_key_to_bytes pk))
let ahead_case = Alcotest.(triple bool int int)

(* Six uses of a key, good and bad signatures alternating, each one
   prechecked and the worker drained before the use: every verdict and
   count equals that of a second table that only checks now. The fourth
   use builds the comb, so it is checked inline (its precheck had none)
   and the fifth and sixth prechecks are tabled. *)
let test_ahead_equals_check_now () =
  let sk, pk = Schnorr.keypair_of_seed "ahead-eq" in
  let pa = copy_pk pk and pb = copy_pk pk in
  let a = Sigcheck.create () and b = Sigcheck.create () in
  for i = 1 to 6 do
    let digest = Sha256.digest (Printf.sprintf "ahead-eq-%d" i) in
    let signature = Schnorr.sign sk digest in
    let signature = if i mod 2 = 0 then flip_bit signature (3 * i) else signature in
    Sigcheck.ahead a pa (fun () -> digest) ~signature;
    Worker.drain ();
    let got = counted (fun () -> Sigcheck.verify a pa digest ~signature) in
    let want = counted (fun () -> Sigcheck.verify b pb digest ~signature) in
    let v, _, _ = want in
    check Alcotest.bool (Printf.sprintf "use %d verdict" i) (i mod 2 = 1) v;
    check ahead_case (Printf.sprintf "use %d = check now" i) want got
  done;
  check Alcotest.int "none held" 0 (Sigcheck.prechecks a)

(* A precheck of a good signature over one digest does not answer for
   the same signature over another: the use checks afresh and rejects. *)
let test_ahead_other_digest () =
  let sk, pk = Schnorr.keypair_of_seed "ahead-digest" in
  let signed = Sha256.digest "ahead-digest-signed" and other = Sha256.digest "ahead-digest-other" in
  let signature = Schnorr.sign sk signed in
  let a = Sigcheck.create () and b = Sigcheck.create () in
  Sigcheck.ahead a (copy_pk pk) (fun () -> signed) ~signature;
  Worker.drain ();
  let ((v, _, _) as got) = counted (fun () -> Sigcheck.verify a (copy_pk pk) other ~signature) in
  check Alcotest.bool "rejected" false v;
  check ahead_case "= check now"
    (counted (fun () -> Sigcheck.verify b (copy_pk pk) other ~signature))
    got

(* A key whose comb is built between the precheck and the use, by the
   use's own comb rule or in place by another table holding the same key
   value (as replicas sharing a client's key value do), is checked
   inline with the comb: the counts are those of a tabled check. *)
let test_ahead_comb_meanwhile () =
  let sk, pk = Schnorr.keypair_of_seed "ahead-comb" in
  let job i =
    let digest = Sha256.digest (Printf.sprintf "ahead-comb-%d" i) in
    (digest, Schnorr.sign sk digest)
  in
  let warm t pk uses =
    for i = 1 to uses do
      let d, s = job i in
      assert (Sigcheck.verify t pk d ~signature:s)
    done
  in
  (* By the rule: the fourth use builds the comb. *)
  let pa = copy_pk pk and pb = copy_pk pk in
  let a = Sigcheck.create () and b = Sigcheck.create () in
  warm a pa 3;
  warm b pb 3;
  let d, signature = job 4 in
  Sigcheck.ahead a pa (fun () -> d) ~signature;
  Worker.drain ();
  let want = counted (fun () -> Sigcheck.verify b pb d ~signature) in
  check ahead_case "comb by the rule" want (counted (fun () -> Sigcheck.verify a pa d ~signature));
  check Alcotest.bool "tabled" true (Schnorr.has_table pa);
  (* In place, by another table, before the second use. *)
  let shared = copy_pk pk in
  let a = Sigcheck.create () in
  warm a shared 1;
  let d, signature = job 5 in
  Sigcheck.ahead a shared (fun () -> d) ~signature;
  Worker.drain ();
  Schnorr.precompute shared;
  let tabled = copy_pk pk in
  Schnorr.precompute tabled;
  let want = counted (fun () -> Schnorr.verify tabled d ~signature) in
  check ahead_case "comb built in place" want
    (counted (fun () -> Sigcheck.verify a shared d ~signature))

(* A precheck queued behind a worker job that blocks is taken back and
   checked on the caller: the use returns while the job still blocks. *)
let test_ahead_taken_back () =
  let sk, pk = Schnorr.keypair_of_seed "ahead-blocked" in
  let digest = Sha256.digest "ahead-blocked" in
  let signature = Schnorr.sign sk digest in
  let a = Sigcheck.create () and b = Sigcheck.create () in
  let released = Atomic.make false in
  let blocker =
    Worker.submit (fun () ->
        let deadline = Unix.gettimeofday () +. 10.0 in
        while (not (Atomic.get released)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        Atomic.get released)
  in
  Sigcheck.ahead a (copy_pk pk) (fun () -> digest) ~signature;
  let got = counted (fun () -> Sigcheck.verify a (copy_pk pk) digest ~signature) in
  Atomic.set released true;
  check Alcotest.bool "used before the blocking job ended" true (Worker.await blocker);
  check ahead_case "= check now"
    (counted (fun () -> Sigcheck.verify b (copy_pk pk) digest ~signature))
    got;
  Worker.drain ()

(* Prechecks nobody uses are dropped oldest first: never more than the
   cap are held, and a dropped one is checked inline when it is used. *)
let test_ahead_cap () =
  let _, pk = Schnorr.keypair_of_seed "ahead-cap" in
  let digest = Sha256.digest "ahead-cap" in
  let a = Sigcheck.create () in
  let n = Sigcheck.max_prechecks + 40 in
  let sig_of i = Printf.sprintf "%064d" i in
  let over = ref 0 in
  for i = 1 to n do
    Sigcheck.ahead a pk (fun () -> digest) ~signature:(sig_of i);
    if Sigcheck.prechecks a > Sigcheck.max_prechecks then incr over
  done;
  check Alcotest.int "never over the cap" 0 !over;
  check Alcotest.int "the cap is held" Sigcheck.max_prechecks (Sigcheck.prechecks a);
  check Alcotest.bool "a dropped one is rejected" false
    (Sigcheck.verify a pk digest ~signature:(sig_of 1));
  check Alcotest.bool "a held one is rejected" false
    (Sigcheck.verify a pk digest ~signature:(sig_of n));
  check Alcotest.int "the used one is gone" (Sigcheck.max_prechecks - 1) (Sigcheck.prechecks a);
  Worker.drain ()

(* A precheck given a clock reports what its check took on the worker
   when it stands in; one with no clock, or one that does not stand in,
   reports nothing. The clock ticks once per read, so the check took one
   tick. *)
let test_ahead_timed () =
  let sk, pk = Schnorr.keypair_of_seed "ahead-timed" in
  let digest = Sha256.digest "ahead-timed" in
  let signature = Schnorr.sign sk digest in
  let ticks = Atomic.make 0 in
  let clock () = float_of_int (Atomic.fetch_and_add ticks 1) in
  let a = Sigcheck.create () in
  let timed ?clock d =
    Sigcheck.ahead ?clock a pk (fun () -> digest) ~signature;
    Worker.drain ();
    Sigcheck.verify_timed a pk d ~signature
  in
  check Alcotest.(pair bool (option (float 0.0))) "stood in" (true, Some 1.0) (timed ~clock digest);
  check Alcotest.(pair bool (option (float 0.0))) "no clock" (true, None) (timed digest);
  check
    Alcotest.(pair bool (option (float 0.0)))
    "another digest" (false, None)
    (timed ~clock (Sha256.digest "ahead-timed-other"))

(* [Profile.time_ahead] charges the time the work took elsewhere when
   there is one, and the call's own time otherwise. *)
let test_profile_time_ahead () =
  let now = ref 0.0 in
  let p = Profile.create ~wall:(fun () -> !now) () in
  let call took =
    Profile.time_ahead p Profile.Verify ~cls:"request" Profile.Client_key (fun () ->
        now := !now +. 2.0;
        ((), took))
  in
  call (Some 0.5);
  call None;
  match Profile.rows p with
  | [ r ] ->
      check Alcotest.int "count" 2 r.Profile.r_count;
      check (Alcotest.float 1e-9) "wall" 2.5 r.Profile.r_wall_s
  | rows -> Alcotest.failf "%d rows" (List.length rows)

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
          qtest prop_sha256_matches_oracle;
          Alcotest.test_case "interleaved contexts" `Quick test_sha256_interleaved_contexts;
          Alcotest.test_case "block count = oracle" `Quick test_sha256_block_count;
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
          Alcotest.test_case "multiply count" `Quick test_group_muls;
          qtest prop_group_pow_homomorphism;
          qtest prop_group_verify_product;
          qtest prop_group_pow_g_table;
          qtest prop_group_field_kernel;
          qtest prop_group_field_chain;
          qtest prop_group_scalar_kernel;
        ] );
      ( "schnorr",
        [
          Alcotest.test_case "sign/verify" `Quick test_schnorr_sign_verify;
          Alcotest.test_case "wrong digest" `Quick test_schnorr_rejects_wrong_digest;
          Alcotest.test_case "wrong key" `Quick test_schnorr_rejects_wrong_key;
          Alcotest.test_case "tampered" `Quick test_schnorr_rejects_tampered_sig;
          Alcotest.test_case "deterministic" `Quick test_schnorr_deterministic;
          Alcotest.test_case "pk bytes" `Quick test_schnorr_pk_bytes_roundtrip;
          qtest prop_schnorr_pk_bytes_range;
          qtest prop_schnorr_roundtrip;
          qtest prop_schnorr_cross_rejects;
          Alcotest.test_case "precompute matches" `Quick
            test_schnorr_precompute_matches;
          Alcotest.test_case "known answers" `Quick test_schnorr_known_answers;
          qtest prop_schnorr_verify_matches_oracle;
          Alcotest.test_case "parallel domains = sequential" `Quick
            test_schnorr_parallel_domains;
        ] );
      (* Sigcheck's tests keep the group names of the two modules it
         replaced, so their names print unchanged. *)
      ( "vstage", [ qtest prop_verify_matches_reference_under_flips ] );
      ( "sigbatch",
        [
          qtest prop_jobs_first_failure;
          Alcotest.test_case "combs where they pay" `Quick test_combs_where_they_pay;
        ] );
      ( "precheck",
        [
          Alcotest.test_case "= check now, good and bad" `Quick test_ahead_equals_check_now;
          Alcotest.test_case "other digest checked afresh" `Quick test_ahead_other_digest;
          Alcotest.test_case "comb built meanwhile" `Quick test_ahead_comb_meanwhile;
          Alcotest.test_case "taken back behind a blocked worker" `Quick test_ahead_taken_back;
          Alcotest.test_case "unused stay under the cap" `Quick test_ahead_cap;
          Alcotest.test_case "timed on the worker" `Quick test_ahead_timed;
          Alcotest.test_case "profile charges the worker's time" `Quick test_profile_time_ahead;
        ] );
      ( "digest/nonce",
        [
          Alcotest.test_case "digest32" `Quick test_digest32;
          Alcotest.test_case "nonce commitment" `Quick test_nonce_commitment;
          Alcotest.test_case "nonce derive" `Quick test_nonce_derive_distinct;
        ] );
    ]
