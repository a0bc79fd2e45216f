exception Decode_error of string

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let u8 b x = Buffer.add_char b (Char.chr (x land 0xff))

  let u16 b x =
    u8 b (x lsr 8);
    u8 b x

  let u32 b x =
    u16 b (x lsr 16);
    u16 b x

  let u64 b x =
    if x < 0 then invalid_arg "Codec.W.u64: negative";
    u32 b (x lsr 32);
    u32 b x

  let bool b x = u8 b (if x then 1 else 0)

  let bytes b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let raw b s = Buffer.add_string b s

  let list b f l =
    u32 b (List.length l);
    List.iter f l

  let option b f = function
    | None -> u8 b 0
    | Some x ->
        u8 b 1;
        f x

  let contents = Buffer.contents
end

module R = struct
  type t = { src : string; mutable pos : int }

  let of_string src ~pos = { src; pos }
  let remaining r = String.length r.src - r.pos

  let need r n =
    if remaining r < n then raise (Decode_error "unexpected end of input")

  let u8 r =
    need r 1;
    let x = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    x

  let u16 r =
    let hi = u8 r in
    let lo = u8 r in
    (hi lsl 8) lor lo

  let u32 r =
    let hi = u16 r in
    let lo = u16 r in
    (hi lsl 16) lor lo

  (* Above 2^62 - 1 the high word's top bits would be shifted out or
     into the sign, and a second encoding would decode to the same int. *)
  let u64 r =
    let hi = u32 r in
    let lo = u32 r in
    if hi lsr 30 <> 0 then raise (Decode_error "u64 out of OCaml int range");
    (hi lsl 32) lor lo

  let bool r =
    match u8 r with
    | 0 -> false
    | 1 -> true
    | _ -> raise (Decode_error "invalid boolean")

  let raw r n =
    if n < 0 then raise (Decode_error "negative length");
    need r n;
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let bytes r =
    let n = u32 r in
    raw r n

  let list r f =
    let n = u32 r in
    if n > remaining r then raise (Decode_error "list length exceeds input");
    List.init n (fun _ -> f r)

  let option r f =
    match u8 r with
    | 0 -> None
    | 1 -> Some (f r)
    | _ -> raise (Decode_error "invalid option tag")

  let expect_end r =
    if remaining r <> 0 then raise (Decode_error "trailing bytes")
end

let encode f =
  let w = W.create () in
  f w;
  W.contents w

let decode ?(pos = 0) s f =
  if pos < 0 || pos > String.length s then invalid_arg "Codec.decode";
  let r = R.of_string s ~pos in
  let x = f r in
  R.expect_end r;
  x
