module Schnorr = Iaccf_crypto.Schnorr
module D = Iaccf_crypto.Digest32

type result = {
  r_commands : int;
  r_elapsed_s : float;
  r_throughput : float;
  r_signatures : int;
}

let run ~n ~commands ~batch =
  let f = ((n + 2) / 3) - 1 in
  let keys = Array.init n (fun i -> Schnorr.keypair_of_seed (Printf.sprintf "pompe-%d" i)) in
  let sigs = ref 0 in
  let start = Unix.gettimeofday () in
  for c = 0 to commands - 1 do
    let digest = D.of_string (Printf.sprintf "pompe-cmd-%d" c) in
    (* Ordering phase: 2f+1 replicas sign a timestamp for the command; the
       sequencer verifies them. *)
    for r = 0 to 2 * f do
      let signature = Schnorr.sign (fst keys.(r)) (D.to_raw digest) in
      incr sigs;
      ignore (Schnorr.verify (snd keys.(r)) (D.to_raw digest) ~signature);
      incr sigs
    done;
    (* Consensus phase: amortized over the batch — 2 rounds of n-f
       signatures per batch. *)
    if c mod batch = 0 then begin
      let bdigest = D.of_string (Printf.sprintf "pompe-batch-%d" (c / batch)) in
      for r = 0 to (2 * (n - f)) - 1 do
        let signer = r mod n in
        let signature = Schnorr.sign (fst keys.(signer)) (D.to_raw bdigest) in
        incr sigs;
        ignore (Schnorr.verify (snd keys.(signer)) (D.to_raw bdigest) ~signature);
        incr sigs
      done
    end
  done;
  let elapsed = Unix.gettimeofday () -. start in
  {
    r_commands = commands;
    r_elapsed_s = elapsed;
    r_throughput = float_of_int commands /. elapsed;
    r_signatures = !sigs;
  }
