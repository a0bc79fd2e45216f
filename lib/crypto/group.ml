(* Arithmetic for the group mod p = 2^255 - 19 and its exponents mod
   n = p - 1 = 2^255 - 20, in curve25519's radix-2^25.5 layout (Bernstein
   et al., "High-speed high-security signatures", 2011). A number is 10
   little-endian limbs in an [int array], limb i at bit ceil(25.5 i), 26
   bits wide when i is even and 25 when odd: 255 bits, so one kernel folds
   a product's high columns down by 2^255 = c (mod 2^255 - c), c = 19 for
   p and 20 for n. Odd limbs sit half a bit above their radix slot, so a
   product of two odd limbs counts twice.

   Bounds. The kernels take limbs below 2^26 (even) or 2^25 (odd), limb 1
   below 2^25 + 2^8. A column then sums ten products, each below 2^52
   times at most 2c, and stays below 2^60, under OCaml's 2^62. Carries
   are unsigned, so limbs stay non-negative; the carry chain leaves every
   limb within its width but limb 1, which takes limb 0's last carry
   (under 2^8) on top: exactly what the kernels accept. Outputs are thus
   only partly reduced; the full reduction happens once, at encoding.

   Kernels write in place into a destination, which may alias an input,
   and keep their column sums in registers: nothing mutable is shared, so
   domains may sign and verify in parallel. Values handed out are never
   written again. *)

type elt = int array
type scalar = int array
type table = int array (* 256 packed entries; see [make_table] *)

let m25 = (1 lsl 25) - 1
let m26 = (1 lsl 26) - 1
let mask i = if i land 1 = 0 then m26 else m25

(* The kernels index without bounds checks: [elt] and [scalar] are
   abstract and always 10 limbs. *)
let ( .!() ) (a : int array) i = Array.unsafe_get a i [@@inline]
let ( .!()<- ) (a : int array) i v = Array.unsafe_set a i v [@@inline]

(* Carry the column sums [h0..h9] into [dst], folding limb 9's carry
   into limb 0 times [c], and limb 0's carry from that into limb 1. *)
let carry c dst h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 =
  let h1 = h1 + (h0 lsr 26) in
  let h2 = h2 + (h1 lsr 25) in
  let h3 = h3 + (h2 lsr 26) in
  let h4 = h4 + (h3 lsr 25) in
  let h5 = h5 + (h4 lsr 26) in
  let h6 = h6 + (h5 lsr 25) in
  let h7 = h7 + (h6 lsr 26) in
  let h8 = h8 + (h7 lsr 25) in
  let h9 = h9 + (h8 lsr 26) in
  let h0 = (h0 land m26) + (c * (h9 lsr 25)) in
  dst.!(0) <- h0 land m26;
  dst.!(1) <- (h1 land m25) + (h0 lsr 26);
  dst.!(2) <- h2 land m26; dst.!(3) <- h3 land m25;
  dst.!(4) <- h4 land m26; dst.!(5) <- h5 land m25;
  dst.!(6) <- h6 land m26; dst.!(7) <- h7 land m25;
  dst.!(8) <- h8 land m26; dst.!(9) <- h9 land m25
[@@inline]

(* [dst] <- [f] * [g] mod 2^255 - [c]: 100 products. Each column sums
   its products that wrap past 2^255 and multiplies them by [c] once, and
   sums its odd-by-odd products and doubles them once. *)
let mul_into c dst f g =
  let f0 = f.!(0) and f1 = f.!(1) and f2 = f.!(2) and f3 = f.!(3) and f4 = f.!(4)
  and f5 = f.!(5) and f6 = f.!(6) and f7 = f.!(7) and f8 = f.!(8) and f9 = f.!(9) in
  let g0 = g.!(0) and g1 = g.!(1) and g2 = g.!(2) and g3 = g.!(3) and g4 = g.!(4)
  and g5 = g.!(5) and g6 = g.!(6) and g7 = g.!(7) and g8 = g.!(8) and g9 = g.!(9) in
  carry c dst
    ((f0 * g0) + (c * ((2 * ((f1 * g9) + (f3 * g7) + (f5 * g5) + (f7 * g3) + (f9 * g1)))
                      + (f2 * g8) + (f4 * g6) + (f6 * g4) + (f8 * g2))))
    ((f0 * g1) + (f1 * g0)
    + (c * ((f2 * g9) + (f3 * g8) + (f4 * g7) + (f5 * g6) + (f6 * g5) + (f7 * g4) + (f8 * g3)
           + (f9 * g2))))
    ((f0 * g2) + (2 * (f1 * g1)) + (f2 * g0)
    + (c * ((2 * ((f3 * g9) + (f5 * g7) + (f7 * g5) + (f9 * g3))) + (f4 * g8) + (f6 * g6)
           + (f8 * g4))))
    ((f0 * g3) + (f1 * g2) + (f2 * g1) + (f3 * g0)
    + (c * ((f4 * g9) + (f5 * g8) + (f6 * g7) + (f7 * g6) + (f8 * g5) + (f9 * g4))))
    ((f0 * g4) + (2 * ((f1 * g3) + (f3 * g1))) + (f2 * g2) + (f4 * g0)
    + (c * ((2 * ((f5 * g9) + (f7 * g7) + (f9 * g5))) + (f6 * g8) + (f8 * g6))))
    ((f0 * g5) + (f1 * g4) + (f2 * g3) + (f3 * g2) + (f4 * g1) + (f5 * g0)
    + (c * ((f6 * g9) + (f7 * g8) + (f8 * g7) + (f9 * g6))))
    ((f0 * g6) + (2 * ((f1 * g5) + (f3 * g3) + (f5 * g1))) + (f2 * g4) + (f4 * g2) + (f6 * g0)
    + (c * ((2 * ((f7 * g9) + (f9 * g7))) + (f8 * g8))))
    ((f0 * g7) + (f1 * g6) + (f2 * g5) + (f3 * g4) + (f4 * g3) + (f5 * g2) + (f6 * g1) + (f7 * g0)
    + (c * ((f8 * g9) + (f9 * g8))))
    ((f0 * g8) + (2 * ((f1 * g7) + (f3 * g5) + (f5 * g3) + (f7 * g1))) + (f2 * g6) + (f4 * g4)
    + (f6 * g2) + (f8 * g0) + (c * 2 * (f9 * g9)))
    ((f0 * g9) + (f1 * g8) + (f2 * g7) + (f3 * g6) + (f4 * g5) + (f5 * g4) + (f6 * g3)
    + (f7 * g2) + (f8 * g1) + (f9 * g0))

(* [dst] <- [f]^2 mod p: each cross product once, doubled, 55 products. *)
let sqr_into dst f =
  let f0 = f.!(0) and f1 = f.!(1) and f2 = f.!(2) and f3 = f.!(3) and f4 = f.!(4)
  and f5 = f.!(5) and f6 = f.!(6) and f7 = f.!(7) and f8 = f.!(8) and f9 = f.!(9) in
  let f0_2 = 2 * f0 and f1_2 = 2 * f1 and f2_2 = 2 * f2 and f3_2 = 2 * f3 and f4_2 = 2 * f4 in
  let f5_2 = 2 * f5 and f6_2 = 2 * f6 and f7_2 = 2 * f7 and f5_38 = 38 * f5 and f6_19 = 19 * f6 in
  let f7_38 = 38 * f7 and f8_19 = 19 * f8 and f9_38 = 38 * f9 in
  carry 19 dst
    ((f0 * f0) + (f1_2 * f9_38) + (f2_2 * f8_19) + (f3_2 * f7_38) + (f4_2 * f6_19) + (f5 * f5_38))
    ((f0_2 * f1) + (f2 * f9_38) + (f3_2 * f8_19) + (f4 * f7_38) + (f5_2 * f6_19))
    ((f0_2 * f2) + (f1_2 * f1) + (f3_2 * f9_38) + (f4_2 * f8_19) + (f5_2 * f7_38) + (f6 * f6_19))
    ((f0_2 * f3) + (f1_2 * f2) + (f4 * f9_38) + (f5_2 * f8_19) + (f6 * f7_38))
    ((f0_2 * f4) + (f1_2 * f3_2) + (f2 * f2) + (f5_2 * f9_38) + (f6_2 * f8_19) + (f7 * f7_38))
    ((f0_2 * f5) + (f1_2 * f4) + (f2_2 * f3) + (f6 * f9_38) + (f7_2 * f8_19))
    ((f0_2 * f6) + (f1_2 * f5_2) + (f2_2 * f4) + (f3_2 * f3) + (f7_2 * f9_38) + (f8 * f8_19))
    ((f0_2 * f7) + (f1_2 * f6) + (f2_2 * f5) + (f3_2 * f4) + (f8 * f9_38))
    ((f0_2 * f8) + (f1_2 * f7_2) + (f2_2 * f6) + (f3_2 * f5_2) + (f4 * f4) + (f9 * f9_38))
    ((f0_2 * f9) + (f1_2 * f8) + (f2_2 * f7) + (f3_2 * f6) + (f4_2 * f5))

(* Carry [x] in place and fold bit 255 and up back in, times [c]
   (2^255 = c mod 2^255 - c). Returns whether anything was folded. *)
let fold255 c x =
  let carry = ref 0 in
  for i = 0 to 8 do
    let v = x.(i) + !carry in
    x.(i) <- v land mask i;
    carry := v lsr (26 - (i land 1))
  done;
  let top = x.(9) + !carry in
  x.(9) <- top land m25;
  x.(0) <- x.(0) + (c * (top lsr 25));
  top > m25

(* The canonical residue mod 2^255 - c of any [x] of limbs below 2^27.
   Two folds leave it below 2^255 with carried limbs; it is then at least
   the modulus exactly when adding [c] reaches bit 255. *)
let canonical c x =
  let x = Array.copy x in
  ignore (fold255 c x);
  ignore (fold255 c x);
  let y = Array.copy x in
  y.(0) <- y.(0) + c;
  if fold255 0 y then y else x

(* The eight little-endian 32-bit words of carried limbs: a scalar's
   comb rows and 4-bit digits, and an encoding's words. *)
let words x =
  let w = Array.make 8 0 and acc = ref 0 and n = ref 0 and k = ref 0 in
  for i = 0 to 9 do
    acc := !acc lor (x.!(i) lsl !n);
    n := !n + 26 - (i land 1);
    if !n >= 32 then begin
      w.!(!k) <- !acc land 0xFFFFFFFF;
      acc := !acc lsr 32;
      n := !n - 32;
      incr k
    end
  done;
  w.!(7) <- !acc;
  w

(* 32 big-endian bytes. The limb at bit o starts at bit o mod 8 of the
   32-bit word whose low byte is byte o / 8 from the end, and ends within
   it. Bit 255 folds in as 2^255 = 20 (mod n); elements never set it. *)
let of_bytes32 s =
  let w o = Int32.to_int (String.get_int32_be s (28 - (o / 8))) lsr (o land 7) in
  [| (w 0 land m26) + (20 * (Char.code s.[0] lsr 7)); w 26 land m25; w 51 land m26;
     w 77 land m25; w 102 land m26; w 128 land m25; w 153 land m26; w 179 land m25;
     w 204 land m26; w 230 land m25 |]

let to_bytes32 x =
  let w = words x and b = Bytes.create 32 in
  for k = 0 to 7 do
    Bytes.set_int32_be b (28 - (4 * k)) (Int32.of_int w.!(k))
  done;
  Bytes.unsafe_to_string b

let p_bytes = "\x7f" ^ String.make 30 '\xff' ^ "\xed"
let n_bytes = "\x7f" ^ String.make 30 '\xff' ^ "\xec"
let one = Array.init 10 (fun i -> if i = 0 then 1 else 0)
let g = Array.init 10 (fun i -> if i = 0 then 2 else 0)

let element_of_limbs limbs =
  let ok i l = 0 <= l && l <= mask i + if i = 1 then 1 lsl 8 else 0 in
  if Array.length limbs <> 10 || Array.mem false (Array.mapi ok limbs) then
    invalid_arg "Group.element_of_limbs";
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
  let r = Array.make 10 0 in
  mul_into 19 r a b;
  count 1;
  r

let sqr a =
  let r = Array.make 10 0 in
  sqr_into r a;
  count 1;
  r

(* Left-to-right 4-bit fixed window: 15 multiplications for the window
   table, then 4 squarings and at most one multiplication per digit. [e]
   is a canonical scalar (< 2^255): 64 digits, eight to a word. *)
let pow b e =
  let n = ref 0 and e = words e in
  let w = Array.make 16 one in
  for d = 1 to 15 do
    w.(d) <- mul w.(d - 1) b
  done;
  let acc = Array.copy one in
  for j = 63 downto 0 do
    if j < 63 then begin
      for _ = 1 to 4 do
        sqr_into acc acc
      done;
      n := !n + 4
    end;
    let d = (e.!(j / 8) lsr (4 * (j land 7))) land 15 in
    if d <> 0 then begin
      mul_into 19 acc acc w.(d);
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

(* An entry packs each even limb with the odd limb above it, 26 bits
   apart: 5 words instead of 10, so a table is 10 KiB and g's and a
   key's fit in a core's L1 cache together. Entry 0 is never read. *)
let entry = 5

let pack x t o =
  for k = 0 to 4 do
    t.!(o + k) <- x.!(2 * k) lor (x.!((2 * k) + 1) lsl 26)
  done

let unpack t o x =
  for k = 0 to 4 do
    let w = t.!(o + k) in
    x.!(2 * k) <- w land m26;
    x.!((2 * k) + 1) <- w lsr 26
  done

let make_table b =
  let t = Array.make ((1 lsl rows) * entry) 0 in
  let base = Array.copy b and x = Array.make 10 0 in
  for i = 0 to rows - 1 do
    if i > 0 then
      for _ = 1 to cols do
        sqr_into base base
      done;
    let bit = 1 lsl i in
    pack base t (entry * bit);
    for c = bit + 1 to (2 * bit) - 1 do
      unpack t (entry * (c - bit)) x;
      mul_into 19 x x base;
      pack x t (entry * c)
    done
  done;
  (* 7 rows of 32 squarings, and one multiplication per entry of two or
     more set bits. *)
  count (((rows - 1) * cols) + (1 lsl rows) - 1 - rows);
  t

(* Column [j] of a scalar's rows, its words: bit i is bit j of row i.
   Bit 255 (row 7's top bit) is always 0 for a canonical scalar. *)
let column r j =
  let c = ref 0 in
  for i = rows - 1 downto 0 do
    c := (!c lsl 1) lor ((r.!(i) lsr j) land 1)
  done;
  !c

(* acc <- acc * T[c] unless c is 0; the multiplications done. *)
let mul_entry acc x t c =
  if c = 0 then 0
  else begin
    unpack t (entry * c) x;
    mul_into 19 acc acc x;
    1
  end

let pow_table t e =
  let acc = Array.copy one and x = Array.make 10 0 in
  let n = ref (cols - 1) and e = words e in
  for j = cols - 1 downto 0 do
    if j < cols - 1 then sqr_into acc acc;
    n := !n + mul_entry acc x t (column e j)
  done;
  count !n;
  acc

(* g's comb, built once at start-up. *)
let g_table = make_table g
let pow_g e = pow_table g_table e

(* g^a * t^b with one squaring chain for both combs: 31 squarings and at
   most 64 multiplications. *)
let pow_g_table a t b =
  let acc = Array.copy one and x = Array.make 10 0 in
  let n = ref (cols - 1) and a = words a and b = words b in
  for j = cols - 1 downto 0 do
    if j < cols - 1 then sqr_into acc acc;
    n := !n + mul_entry acc x g_table (column a j);
    n := !n + mul_entry acc x t (column b j)
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
  let r = Array.make 10 0 in
  mul_into 20 r a b;
  canonical 20 (Array.map2 ( + ) r c)

(* 2n - e limb by limb: 2n = 2^256 - 40 as doubled limbs, each above any
   canonical limb, so nothing borrows. [canonical] maps 2n to 0. *)
let two_n = Array.init 10 (fun i -> 2 * (mask i - if i = 0 then 19 else 0))
let scalar_neg e = canonical 20 (Array.map2 ( - ) two_n e)
