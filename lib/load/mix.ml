module Smallbank = Iaccf_app.Smallbank

type t = { next : unit -> string * string }

let next t = t.next ()
let noop = { next = (fun () -> ("noop", "")) }

let smallbank ~rng ~accounts ?(theta = 0.99) () =
  let zipf = Zipf.create ~theta ~n:accounts () in
  let account () = Zipf.sample zipf rng in
  {
    next =
      (fun () ->
        let op = Smallbank.random_op_keyed rng ~accounts ~account in
        (op.Smallbank.op_proc, op.Smallbank.op_args));
  }
