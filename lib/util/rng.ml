type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* splitmix64: fast, well-distributed, trivially seedable. *)
let next t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let split t = { state = next t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  let x = Int64.to_int (next t) land max_int in
  x mod bound

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (x /. 9007199254740992.0)

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (int t 256))
  done;
  Bytes.unsafe_to_string b

let pick t l =
  match l with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a
