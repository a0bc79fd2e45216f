(* SHA-256 over plain OCaml ints, one pure-OCaml path.

   - Words. A 32-bit word lives in the low bits of a 63-bit int, so the
     compression loop never boxes an Int32. Each word loads big-endian
     with [String.get_int32_be]; a fed string's whole blocks are
     compressed where they lie, and only a partial tail is copied into the
     context's block buffer.
   - Rotations. A rotation reads the doubled word [x lor (x lsl 32)]:
     [rotr x n] is its bits [n .. n+31], one shift. Each Σ and σ xors three
     shifts of the same doubled word. This is exact in a 63-bit int
     because every rotation amount is below 32, so bit 63, which the int
     drops, is never read.
   - Masks. Bits above 31 never move down into the low 32 through an
     addition or a logic operation, so a word is masked only where it is
     stored or next feeds a rotation: each new schedule word and the two
     state words a round writes. A Σ or σ result carries high garbage into
     a sum that is masked before anything rotates it.
   - Rounds. The 64 rounds run unrolled 8× with rotating variable roles:
     a round writes two state words (the roles d and h) instead of
     shifting all eight, and after eight rounds every role is back in
     place. [Ch] and [Maj] take three logic operations each.
   - No per-digest allocation. The 64-word message schedule is a
     per-domain scratch. [digest] and [digest_concat] run to completion
     without calling out, so they reset and reuse one per-domain context;
     a one-shot digest allocates only its 32-byte result. *)

let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  block : Bytes.t; (* partial-block buffer *)
  mutable block_len : int;
  mutable total_len : int; (* bytes fed so far *)
}

let reset ctx =
  let h = ctx.h in
  h.(0) <- 0x6a09e667;
  h.(1) <- 0xbb67ae85;
  h.(2) <- 0x3c6ef372;
  h.(3) <- 0xa54ff53a;
  h.(4) <- 0x510e527f;
  h.(5) <- 0x9b05688c;
  h.(6) <- 0x1f83d9ab;
  h.(7) <- 0x5be0cd19;
  ctx.block_len <- 0;
  ctx.total_len <- 0

let init () =
  let ctx = { h = Array.make 8 0; block = Bytes.create 64; block_len = 0; total_len = 0 } in
  reset ctx;
  ctx

(* Per domain: the message schedule, the context the one-shot digests
   reuse, and the compressions finished here (counted once per digest;
   the padded length fixes them). Domain-local, so callers hashing on
   other domains never race on any of it. [credited] is the one field
   another domain writes: the compressions of jobs counted here that ran
   elsewhere ({!count_here}). *)
type scratch = { w : int array; one : ctx; mutable blocks : int; credited : int Atomic.t }

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { w = Array.make 64 0; one = init (); blocks = 0; credited = Atomic.make 0 })

let blocks () =
  let sc = Domain.DLS.get scratch_key in
  sc.blocks + Atomic.get sc.credited

let add_blocks n =
  let sc = Domain.DLS.get scratch_key in
  sc.blocks <- sc.blocks + n

let count_here f =
  let home = Domain.DLS.get scratch_key in
  fun () ->
    let sc = Domain.DLS.get scratch_key in
    let before = sc.blocks in
    Fun.protect f ~finally:(fun () ->
        ignore (Atomic.fetch_and_add home.credited (sc.blocks - before)))

(* The doubled word [x lor (x lsl 32)] of a masked [x] holds [rotr x n] in
   its bits [n .. n+31] for every [n < 32]. The results are unmasked: only
   their low 32 bits are right, and every caller adds them into a sum it
   masks. *)
let[@inline] sum0 x =
  let x = x lor (x lsl 32) in
  (x lsr 2) lxor (x lsr 13) lxor (x lsr 22)

let[@inline] sum1 x =
  let x = x lor (x lsl 32) in
  (x lsr 6) lxor (x lsr 11) lxor (x lsr 25)

let[@inline] sigma0 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)

let[@inline] sigma1 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 17) lxor (xx lsr 19) lxor (x lsr 10)

let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = (a land b) lor (c land (a lor b))
let[@inline] kw w i = Array.unsafe_get k i + Array.unsafe_get w i

(* Compress the 64 bytes of [s] at [off] into [h], with [w] as the
   schedule. Callers guarantee [off + 64 <= String.length s]; every array
   index below is bounded by its loop. *)
let compress h w s off =
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (String.get_int32_be s (off + (4 * i))) land mask)
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((sigma1 (Array.unsafe_get w (i - 2))
       + Array.unsafe_get w (i - 7)
       + sigma0 (Array.unsafe_get w (i - 15))
       + Array.unsafe_get w (i - 16))
      land mask)
  done;
  let ra = ref h.(0) and rb = ref h.(1) and rc = ref h.(2) and rd = ref h.(3) in
  let re = ref h.(4) and rf = ref h.(5) and rg = ref h.(6) and rh = ref h.(7) in
  (* Eight rounds per step. Round [j] of a step reads the roles shifted by
     [j] and writes only its d and h; after eight, every role is back. *)
  for step = 0 to 7 do
    let i = 8 * step in
    let a = !ra and b = !rb and c = !rc and d = !rd in
    let e = !re and f = !rf and g = !rg and hh = !rh in
    let t = hh + sum1 e + ch e f g + kw w i in
    let d = (d + t) land mask and hh = (t + sum0 a + maj a b c) land mask in
    let t = g + sum1 d + ch d e f + kw w (i + 1) in
    let c = (c + t) land mask and g = (t + sum0 hh + maj hh a b) land mask in
    let t = f + sum1 c + ch c d e + kw w (i + 2) in
    let b = (b + t) land mask and f = (t + sum0 g + maj g hh a) land mask in
    let t = e + sum1 b + ch b c d + kw w (i + 3) in
    let a = (a + t) land mask and e = (t + sum0 f + maj f g hh) land mask in
    let t = d + sum1 a + ch a b c + kw w (i + 4) in
    let hh = (hh + t) land mask and d = (t + sum0 e + maj e f g) land mask in
    let t = c + sum1 hh + ch hh a b + kw w (i + 5) in
    let g = (g + t) land mask and c = (t + sum0 d + maj d e f) land mask in
    let t = b + sum1 g + ch g hh a + kw w (i + 6) in
    let f = (f + t) land mask and b = (t + sum0 c + maj c d e) land mask in
    let t = a + sum1 f + ch f g hh + kw w (i + 7) in
    let e = (e + t) land mask and a = (t + sum0 b + maj b c d) land mask in
    ra := a; rb := b; rc := c; rd := d;
    re := e; rf := f; rg := g; rh := hh
  done;
  h.(0) <- (h.(0) + !ra) land mask;
  h.(1) <- (h.(1) + !rb) land mask;
  h.(2) <- (h.(2) + !rc) land mask;
  h.(3) <- (h.(3) + !rd) land mask;
  h.(4) <- (h.(4) + !re) land mask;
  h.(5) <- (h.(5) + !rf) land mask;
  h.(6) <- (h.(6) + !rg) land mask;
  h.(7) <- (h.(7) + !rh) land mask

let feed_with w ctx s =
  let n = String.length s in
  ctx.total_len <- ctx.total_len + n;
  let pos = ref 0 in
  if ctx.block_len > 0 then begin
    let take = min (64 - ctx.block_len) n in
    Bytes.blit_string s 0 ctx.block ctx.block_len take;
    ctx.block_len <- ctx.block_len + take;
    pos := take;
    if ctx.block_len = 64 then begin
      compress ctx.h w (Bytes.unsafe_to_string ctx.block) 0;
      ctx.block_len <- 0
    end
  end;
  (* The block buffer is empty here unless [s] is used up. *)
  while n - !pos >= 64 do
    compress ctx.h w s !pos;
    pos := !pos + 64
  done;
  if !pos < n then begin
    Bytes.blit_string s !pos ctx.block 0 (n - !pos);
    ctx.block_len <- n - !pos
  end

(* Pad, compress the last block(s) and write the digest into [out]. *)
let finish sc ctx out =
  sc.blocks <- sc.blocks + ((ctx.total_len + 9 + 63) / 64);
  let block = ctx.block and len = ctx.block_len in
  (* Append 0x80, pad with zeros to 56 mod 64, then the 64-bit length. *)
  Bytes.unsafe_set block len '\x80';
  if len >= 56 then begin
    Bytes.fill block (len + 1) (63 - len) '\x00';
    compress ctx.h sc.w (Bytes.unsafe_to_string block) 0;
    Bytes.fill block 0 56 '\x00'
  end
  else Bytes.fill block (len + 1) (55 - len) '\x00';
  Bytes.set_int64_be block 56 (Int64.of_int (ctx.total_len * 8));
  compress ctx.h sc.w (Bytes.unsafe_to_string block) 0;
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let rec feed_all w ctx = function
  | [] -> ()
  | p :: rest ->
      feed_with w ctx p;
      feed_all w ctx rest

let feed ctx s = feed_with (Domain.DLS.get scratch_key).w ctx s
let finalize ctx = finish (Domain.DLS.get scratch_key) ctx (Bytes.create 32)

(* The result is allocated first, so nothing between the reset and the
   last read of the shared context allocates. *)
let digest s =
  let out = Bytes.create 32 in
  let sc = Domain.DLS.get scratch_key in
  let ctx = sc.one in
  reset ctx;
  feed_with sc.w ctx s;
  finish sc ctx out

let digest_concat parts =
  let out = Bytes.create 32 in
  let sc = Domain.DLS.get scratch_key in
  let ctx = sc.one in
  reset ctx;
  feed_all sc.w ctx parts;
  finish sc ctx out
