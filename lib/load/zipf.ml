module Rng = Iaccf_util.Rng

type t = {
  n : int;
  theta : float;
  cum : float array;  (* normalized cumulative mass; empty when uniform *)
}

let create ?(theta = 0.99) ~n () =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if theta < 0.0 then invalid_arg "Zipf.create: theta must be >= 0";
  if theta = 0.0 then { n; theta; cum = [||] }
  else begin
    let cum = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) theta);
      cum.(i) <- !acc
    done;
    let total = !acc in
    for i = 0 to n - 1 do
      cum.(i) <- cum.(i) /. total
    done;
    cum.(n - 1) <- 1.0;
    { n; theta; cum }
  end

let sample t rng =
  if t.theta = 0.0 then Rng.int rng t.n
  else begin
    let u = Rng.float rng 1.0 in
    (* smallest rank whose cumulative mass exceeds u *)
    let lo = ref 0 and hi = ref (t.n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cum.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
  end

let weight t i =
  if i < 0 || i >= t.n then invalid_arg "Zipf.weight: rank out of range";
  if t.theta = 0.0 then 1.0 /. float_of_int t.n
  else if i = 0 then t.cum.(0)
  else t.cum.(i) -. t.cum.(i - 1)
