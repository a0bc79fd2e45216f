(* Minimal JSON parser and accessors. The toolchain ships no JSON
   library, and two consumers now need to *read* JSON rather than just
   emit it: [iaccf bench-report] aggregates the BENCH_*.json series the
   bench harness writes, and the trace tests schema-check the Chrome
   trace export. Recursive descent, strict enough for both: rejects
   trailing garbage, unterminated literals, and malformed escapes;
   numbers are parsed as OCaml floats (every value the emitters write). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { s : string; mutable pos : int }

let error st fmt =
  Printf.ksprintf
    (fun msg -> raise (Parse_error (Printf.sprintf "at byte %d: %s" st.pos msg)))
    fmt

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error st "expected %c, found %c" c c'
  | None -> error st "expected %c, found end of input" c

let expect_literal st lit value =
  if
    st.pos + String.length lit <= String.length st.s
    && String.sub st.s st.pos (String.length lit) = lit
  then begin
    st.pos <- st.pos + String.length lit;
    value
  end
  else error st "invalid literal"

(* UTF-8 encode a code point from a \uXXXX escape (surrogate pairs are
   combined by the caller). *)
let utf8_add buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c ->
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> error st "invalid \\u escape"
        in
        v := (!v * 16) + d
    | None -> error st "truncated \\u escape");
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> error st "truncated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let cp = hex4 st in
                let cp =
                  (* High surrogate: a \uXXXX low surrogate must follow. *)
                  if cp >= 0xd800 && cp <= 0xdbff then begin
                    expect st '\\';
                    expect st 'u';
                    let lo = hex4 st in
                    if lo < 0xdc00 || lo > 0xdfff then
                      error st "invalid surrogate pair";
                    0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                  end
                  else cp
                in
                utf8_add buf cp
            | c -> error st "invalid escape \\%c" c);
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume_digits () =
    let any = ref false in
    let continue = ref true in
    while !continue do
      match peek st with
      | Some '0' .. '9' ->
          any := true;
          advance st
      | _ -> continue := false
    done;
    !any
  in
  if peek st = Some '-' then advance st;
  if not (consume_digits ()) then error st "invalid number";
  (match peek st with
  | Some '.' ->
      advance st;
      if not (consume_digits ()) then error st "invalid number fraction"
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      if not (consume_digits ()) then error st "invalid number exponent"
  | _ -> ());
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> error st "unparseable number %s" text

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ((key, v) :: acc)
          | Some '}' ->
              advance st;
              Obj (List.rev ((key, v) :: acc))
          | _ -> error st "expected , or } in object"
        in
        members []
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements (v :: acc)
          | Some ']' ->
              advance st;
              Arr (List.rev (v :: acc))
          | _ -> error st "expected , or ] in array"
        in
        elements []
      end
  | Some 't' -> expect_literal st "true" (Bool true)
  | Some 'f' -> expect_literal st "false" (Bool false)
  | Some 'n' -> expect_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st "unexpected character %c" c

let parse_exn s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then error st "trailing garbage";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let parse_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* --------------------------------------------------------------- *)
(* Accessors                                                       *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_number = function Num f -> Some f | _ -> None

(* The body of a JSON string literal holding [s]: the quote, the
   backslash and control bytes escaped, every other byte as it is, so
   [parse] reads the literal back as [s]. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec to_compact = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%g" f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr xs -> "[" ^ String.concat "," (List.map to_compact xs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> to_compact (Str k) ^ ":" ^ to_compact v) kvs)
      ^ "}"
