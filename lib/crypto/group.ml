(* Fixed 11-limb arithmetic for the group mod p = 2^255 - 19 and its
   exponents mod n = p - 1 = 2^255 - 20.

   A number is 11 little-endian 24-bit limbs (264 bits) in an [int array].
   A limb product is 48 bits and a column of eleven stays under 2^52, so
   the schoolbook kernel never overflows a 63-bit int. Both moduli share
   the kernel: the 22-limb product folds its top half down as
   2^264 = 9728 (mod p), or 2^264 = 10240 (mod n). Kernel outputs are only
   partly reduced (below about 2^264, every limb below 2^24 + 8), which
   every kernel accepts as input; the full reduction happens once, at
   encoding.

   Kernels write in place into a destination, with a 22-int scratch the
   caller owns: nothing mutable is shared, so domains may sign and verify
   in parallel. Values handed out are never written again. *)

let nlimbs = 11
let mask = 0xFFFFFF

type elt = int array
type scalar = int array
type table = int array (* 256 packed entries; see [make_table] *)

let fold_p = 9728 (* 2^264 mod p *)
let fold_n = 10240 (* 2^264 mod n *)
let scratch () = Array.make 22 0

(* The kernels index without bounds checks: [elt] and [scalar] are
   abstract and always 11 limbs, and every scratch is 22. *)
let ( .!() ) (a : int array) i = Array.unsafe_get a i [@@inline]
let ( .!()<- ) (a : int array) i v = Array.unsafe_set a i v [@@inline]

(* [tmp.(0..20)] holds the product's column sums. Carry them into 22
   limbs, fold limbs 11..21 down by [f] = 2^264 mod m, and fold the carry
   out of that once more; [dst] is only written here. *)
let fold f tmp dst =
  let c = ref 0 in
  for k = 0 to 20 do
    let v = tmp.!(k) + !c in
    tmp.!(k) <- v land mask;
    c := v lsr 24
  done;
  tmp.!(21) <- !c;
  let c = ref 0 in
  for i = 0 to 10 do
    let v = tmp.!(i) + (f * tmp.!(i + 11)) + !c in
    dst.!(i) <- v land mask;
    c := v lsr 24
  done;
  let v = dst.!(0) + (f * !c) in
  dst.!(0) <- v land mask;
  dst.!(1) <- dst.!(1) + (v lsr 24)

(* [dst] may alias [a] or [b]. One row per limb of [a], with [b] held in
   registers. *)
let mul_into f tmp dst a b =
  let b0 = b.!(0) and b1 = b.!(1) and b2 = b.!(2) and b3 = b.!(3) and b4 = b.!(4)
  and b5 = b.!(5) and b6 = b.!(6) and b7 = b.!(7) and b8 = b.!(8) and b9 = b.!(9)
  and b10 = b.!(10) in
  Array.fill tmp 0 21 0;
  for i = 0 to 10 do
    let ai = a.!(i) in
    tmp.!(i) <- tmp.!(i) + (ai * b0);
    tmp.!(i + 1) <- tmp.!(i + 1) + (ai * b1);
    tmp.!(i + 2) <- tmp.!(i + 2) + (ai * b2);
    tmp.!(i + 3) <- tmp.!(i + 3) + (ai * b3);
    tmp.!(i + 4) <- tmp.!(i + 4) + (ai * b4);
    tmp.!(i + 5) <- tmp.!(i + 5) + (ai * b5);
    tmp.!(i + 6) <- tmp.!(i + 6) + (ai * b6);
    tmp.!(i + 7) <- tmp.!(i + 7) + (ai * b7);
    tmp.!(i + 8) <- tmp.!(i + 8) + (ai * b8);
    tmp.!(i + 9) <- tmp.!(i + 9) + (ai * b9);
    tmp.!(i + 10) <- tmp.!(i + 10) + (ai * b10)
  done;
  fold f tmp dst

(* Squaring mod p: each cross product once, doubled. *)
let sqr_into tmp dst a =
  Array.fill tmp 0 21 0;
  for i = 0 to 10 do
    let ai = a.!(i) in
    tmp.!(2 * i) <- tmp.!(2 * i) + (ai * ai);
    let ai2 = 2 * ai in
    for j = i + 1 to 10 do
      tmp.!(i + j) <- tmp.!(i + j) + (ai2 * a.!(j))
    done
  done;
  fold fold_p tmp dst

(* Carry [x] in place and fold bit 255 and up back in, times [c]
   (2^255 = c mod 2^255 - c). Returns whether anything was folded. *)
let fold255 c x =
  let carry = ref 0 in
  for i = 0 to 9 do
    let v = x.(i) + !carry in
    x.(i) <- v land mask;
    carry := v lsr 24
  done;
  let top = x.(10) + !carry in
  x.(10) <- top land 0x7FFF;
  x.(0) <- x.(0) + (c * (top lsr 15));
  top > 0x7FFF

(* The canonical residue mod 2^255 - c of any [x] below 2^265. Two folds
   leave it below 2^255 with carried limbs; it is then at least the
   modulus exactly when adding [c] reaches bit 255. *)
let canonical c x =
  let x = Array.copy x in
  ignore (fold255 c x);
  ignore (fold255 c x);
  let y = Array.copy x in
  y.(0) <- y.(0) + c;
  if fold255 0 y then y else x

(* 32 big-endian bytes: little-endian byte [k] is bits 8(k mod 3) of limb
   k/3. *)
let of_bytes32 s =
  let x = Array.make nlimbs 0 in
  for k = 0 to 31 do
    x.(k / 3) <- x.(k / 3) lor (Char.code s.[31 - k] lsl (8 * (k mod 3)))
  done;
  x

let to_bytes32 x =
  String.init 32 (fun b ->
      let k = 31 - b in
      Char.chr ((x.(k / 3) lsr (8 * (k mod 3))) land 0xFF))

let p_bytes = "\x7f" ^ String.make 30 '\xff' ^ "\xed"
let n_bytes = "\x7f" ^ String.make 30 '\xff' ^ "\xec"
let one = Array.init nlimbs (fun i -> if i = 0 then 1 else 0)
let g = Array.init nlimbs (fun i -> if i = 0 then 2 else 0)

let element_of_limbs limbs =
  if Array.length limbs <> nlimbs || Array.exists (fun l -> l < 0 || l > mask + 8) limbs
  then invalid_arg "Group.element_of_limbs";
  Array.copy limbs

(* Field multiplies and squarings finished on this domain, counted once
   per operation, not per kernel call. Domain-local, like
   [Sha256.blocks], so domains signing in parallel never race on it. *)
let muls_key = Domain.DLS.new_key (fun () -> ref 0)
let muls () = !(Domain.DLS.get muls_key)

let count n =
  let counted = Domain.DLS.get muls_key in
  counted := !counted + n

let mul a b =
  let r = Array.make nlimbs 0 in
  mul_into fold_p (scratch ()) r a b;
  count 1;
  r

let sqr a =
  let r = Array.make nlimbs 0 in
  sqr_into (scratch ()) r a;
  count 1;
  r

(* Exponents are canonical scalars (< 2^255): 64 4-bit digits. *)
let digit e j = (e.(j / 6) lsr (4 * (j mod 6))) land 15

(* Left-to-right 4-bit fixed window: 15 multiplications for the window
   table, then 4 squarings and at most one multiplication per digit. *)
let pow b e =
  let tmp = scratch () and n = ref 0 in
  let w = Array.make 16 one in
  for d = 1 to 15 do
    w.(d) <- mul w.(d - 1) b
  done;
  let acc = Array.copy one in
  for j = 63 downto 0 do
    if j < 63 then begin
      for _ = 1 to 4 do
        sqr_into tmp acc acc
      done;
      n := !n + 4
    end;
    let d = digit e j in
    if d <> 0 then begin
      mul_into fold_p tmp acc acc w.(d);
      incr n
    end
  done;
  count !n;
  acc

(* The Lim-Lee comb (Lim and Lee, "More Flexible Exponentiation with
   Precomputation", CRYPTO '94), 8 rows of 32 bits. A scalar e is read as
   rows e_i of 32 bits, e = sum e_i 2^(32i); its column j is the 8-bit
   number whose bit i is bit j of row i. The table for b holds at c in
   1..255 the product of b^(2^(32i)) over the set bits i of c, so
   b^e = prod_j T[column j]^(2^j): left to right, 31 squarings and at
   most 32 multiplications. Immutable after build, so domains share a
   table freely; readers unpack an entry into their own scratch. *)
let rows = 8
let cols = 32

(* An entry is packed two limbs a word, 31 bits each (partly reduced
   limbs reach 25 bits): 6 words instead of 11, so a table is 12 KiB
   and g's and a key's fit in a core's L1 cache together. Entry 0 is
   never read. *)
let entry = 6
let m31 = (1 lsl 31) - 1

let pack x t o =
  for k = 0 to 4 do
    t.!(o + k) <- x.!(2 * k) lor (x.!((2 * k) + 1) lsl 31)
  done;
  t.!(o + 5) <- x.!(10)

let unpack t o x =
  for k = 0 to 4 do
    let w = t.!(o + k) in
    x.!(2 * k) <- w land m31;
    x.!((2 * k) + 1) <- w lsr 31
  done;
  x.!(10) <- t.!(o + 5)

let make_table b =
  let t = Array.make ((1 lsl rows) * entry) 0 and tmp = scratch () in
  let base = Array.copy b and x = Array.make nlimbs 0 in
  for i = 0 to rows - 1 do
    if i > 0 then
      for _ = 1 to cols do
        sqr_into tmp base base
      done;
    let bit = 1 lsl i in
    pack base t (entry * bit);
    for c = bit + 1 to (2 * bit) - 1 do
      unpack t (entry * (c - bit)) x;
      mul_into fold_p tmp x x base;
      pack x t (entry * c)
    done
  done;
  (* 7 rows of 32 squarings, and one multiplication per entry of two or
     more set bits. *)
  count (((rows - 1) * cols) + (1 lsl rows) - 1 - rows);
  t

(* The rows of [e], so a column is eight shifts away. Row i starts at
   bit 32i, which is bit 0, 8 or 16 of limb l, so limbs l and l+1 hold
   all 32 of its bits. Bit 255 (row 7's top bit) is always 0 for a
   canonical scalar. *)
let rows_of e =
  let r = Array.make rows 0 in
  for i = 0 to rows - 1 do
    let l = cols * i / 24 and s = cols * i mod 24 in
    r.!(i) <- ((e.!(l) lsr s) lor (e.!(l + 1) lsl (24 - s))) land 0xFFFFFFFF
  done;
  r

(* Column [j]: bit i is bit j of row i. *)
let column r j =
  let c = ref 0 in
  for i = rows - 1 downto 0 do
    c := (!c lsl 1) lor ((r.!(i) lsr j) land 1)
  done;
  !c

(* acc <- acc * T[c] unless c is 0; the multiplications done. *)
let mul_entry tmp acc x t c =
  if c = 0 then 0
  else begin
    unpack t (entry * c) x;
    mul_into fold_p tmp acc acc x;
    1
  end

let pow_table t e =
  let tmp = scratch () and acc = Array.copy one and x = Array.make nlimbs 0 in
  let n = ref (cols - 1) and e = rows_of e in
  for j = cols - 1 downto 0 do
    if j < cols - 1 then sqr_into tmp acc acc;
    n := !n + mul_entry tmp acc x t (column e j)
  done;
  count !n;
  acc

(* g's comb, built once at start-up. *)
let g_table = make_table g
let pow_g e = pow_table g_table e

(* g^a * t^b with one squaring chain for both combs: 31 squarings and at
   most 64 multiplications. *)
let pow_g_table a t b =
  let tmp = scratch () and acc = Array.copy one and x = Array.make nlimbs 0 in
  let n = ref (cols - 1) and a = rows_of a and b = rows_of b in
  for j = cols - 1 downto 0 do
    if j < cols - 1 then sqr_into tmp acc acc;
    n := !n + mul_entry tmp acc x g_table (column a j);
    n := !n + mul_entry tmp acc x t (column b j)
  done;
  count !n;
  acc

let element_of_bytes s =
  if String.length s <> 32 || String.compare s p_bytes >= 0 || s = String.make 32 '\x00'
  then None
  else Some (of_bytes32 s)

let element_to_bytes x = to_bytes32 (canonical 19 x)

let scalar_one = one
let scalar_is_zero e = Array.for_all (( = ) 0) e

let scalar_of_bytes s =
  if String.length s <> 32 then invalid_arg "Group.scalar_of_bytes: expected 32 bytes";
  canonical 20 (of_bytes32 s)

let scalar_of_canonical s =
  if String.length s = 32 && String.compare s n_bytes < 0 then Some (of_bytes32 s) else None

let scalar_to_bytes = to_bytes32

let scalar_mul_add a b c =
  let r = Array.make nlimbs 0 in
  mul_into fold_n (scratch ()) r a b;
  canonical 20 (Array.map2 ( + ) r c)

(* n - e, with borrows; e = 0 maps to n, which [canonical] makes 0. *)
let scalar_neg e =
  let n = of_bytes32 n_bytes and borrow = ref 0 in
  let r =
    Array.init nlimbs (fun i ->
        let v = n.(i) - e.(i) - !borrow in
        borrow := if v < 0 then 1 else 0;
        v land mask)
  in
  canonical 20 r
