let p =
  Bignum.sub (Bignum.shift_left Bignum.one 255) (Bignum.of_int 19)

let n = Bignum.sub p Bignum.one
let g = Bignum.of_int 2

let reduce x =
  (* x mod (2^255 - 19): fold the high part down as hi*19 + lo until the
     value fits in 255 bits, then a final conditional subtract. The fold
     converges in two iterations for inputs up to 510 bits. *)
  let x = ref x in
  while Bignum.bit_length !x > 255 do
    let hi = Bignum.shift_right !x 255 in
    let lo = Bignum.mask_bits !x 255 in
    x := Bignum.add (Bignum.mul_small hi 19) lo
  done;
  while Bignum.compare !x p >= 0 do
    x := Bignum.sub !x p
  done;
  !x

let mul a b = reduce (Bignum.mul a b)

let pow b e =
  let result = ref Bignum.one and base = ref (reduce b) in
  let nbits = Bignum.bit_length e in
  for i = 0 to nbits - 1 do
    if Bignum.test_bit e i then result := mul !result !base;
    if i < nbits - 1 then base := mul !base !base
  done;
  !result

(* Fixed-base table: base^(2^i) for i in [0, 256). With the table in hand,
   base^e costs only one multiplication per set exponent bit — the whole
   squaring chain is precomputed — roughly halving exponentiation cost.
   Tables are plain immutable-after-build arrays so domains can share them
   without racing on a lazy. *)
let make_table base =
  let base = reduce base in
  let table = Array.make 256 base in
  for i = 1 to 255 do
    table.(i) <- mul table.(i - 1) table.(i - 1)
  done;
  table

let g_table = make_table g

(* Exponents are always reduced mod n (< 2^255), so bit_length fits the
   256-entry table. *)
let pow_table table e =
  let acc = ref Bignum.one in
  for i = 0 to Bignum.bit_length e - 1 do
    if Bignum.test_bit e i then acc := mul !acc table.(i)
  done;
  !acc

let pow_g e = pow_table g_table e

(* Straus shared-window multi-exponentiation: prod_i b_i^(e_i) with one
   squaring chain shared across all bases and 4-bit windows. Per base the
   precomputation is 15 multiplications (b^1..b^15); the scan then costs 4
   squarings per window plus at most one multiplication per base per
   window. For the two-base verification product this beats a bit-by-bit
   Shamir chain by skipping ~1/4 of the multiplies, and the advantage
   grows with the number of bases since the 256 squarings are paid once,
   not per base. *)
let multi_pow pairs =
  match pairs with
  | [] -> Bignum.one
  | pairs ->
      let w = 4 in
      let tables =
        List.map
          (fun (b, e) ->
            let b = reduce b in
            let tbl = Array.make 16 Bignum.one in
            for d = 1 to 15 do
              tbl.(d) <- mul tbl.(d - 1) b
            done;
            (tbl, e))
          pairs
      in
      let nbits =
        List.fold_left (fun acc (_, e) -> max acc (Bignum.bit_length e)) 0 pairs
      in
      let nwin = (nbits + w - 1) / w in
      let acc = ref Bignum.one in
      for win = nwin - 1 downto 0 do
        if win < nwin - 1 then
          for _ = 1 to w do
            acc := mul !acc !acc
          done;
        List.iter
          (fun (tbl, e) ->
            let d = ref 0 in
            for bit = w - 1 downto 0 do
              d := (!d lsl 1) lor (if Bignum.test_bit e ((win * w) + bit) then 1 else 0)
            done;
            if !d <> 0 then acc := mul !acc tbl.(!d))
          tables
      done;
      !acc

let scalar_of_bytes s = Bignum.rem (Bignum.of_bytes_be s) n

let element_of_bytes s =
  if String.length s <> 32 then None
  else begin
    let v = Bignum.of_bytes_be s in
    if Bignum.is_zero v || Bignum.compare v p >= 0 then None else Some v
  end

let element_to_bytes v = Bignum.to_bytes_be_fixed 32 v
