(* The replica's and the auditor's signature check (see vstage.mli for
   who else checks signatures, and how).

   Keys seen repeatedly (replica keys, chatty clients) are interned and, on
   their third use, get a Group.make_table, after which each verification
   shares g's squaring chain in one pass. Every check is charged to
   [Profile] under its message class and principal.

   No result cache and no worker pool: neither paid on the benchmarks
   (DESIGN.md, crypto pipeline). *)

module Obs = Iaccf_obs.Obs

type t = {
  profile : Profile.t;
  (* pk interning: pk_bytes -> (canonical key, use count). Message decoding
     allocates a fresh public_key per message, so per-key tables would be
     useless without a canonical copy to hang them on. Bounded: past
     [max_interned] distinct keys (a Byzantine peer minting keys), new ones
     pass through uninterned and unaccelerated. *)
  interned : (string, Schnorr.public_key * int ref) Hashtbl.t;
  c_precomputed : Obs.counter;
}

let max_interned = 4096

(* Build the key's comb once it has verified twice. A comb (224
   squarings, 247 multiplications) takes about 1.9 untabled checks' time,
   an untabled check being mostly squarings at about 0.65 of a multiply,
   and repays after about 3 later checks (medians of 10 bench/crypto.exe
   runs on a 2-core x86-64 VM; 2.8 to 4.6). Keys seen once or twice, such
   as cold open-loop sessions, never pay for one. The threshold stays:
   moving it changes the exact field_muls_per_tx row. *)
let precompute_after = 2

let create ?obs ?(profile = Profile.disabled) () =
  let obs = match obs with Some o -> o | None -> Obs.passive () in
  {
    profile;
    interned = Hashtbl.create 64;
    c_precomputed = Obs.counter obs "crypto.keys.precomputed";
  }

(* Canonicalize a key and count its uses; past the threshold, build its
   fixed-base table on the canonical copy. *)
let canonical t pk =
  let kb = Schnorr.public_key_to_bytes pk in
  match Hashtbl.find_opt t.interned kb with
  | Some (cpk, uses) ->
      incr uses;
      if !uses > precompute_after && not (Schnorr.has_table cpk) then begin
        Schnorr.precompute cpk;
        Obs.incr t.c_precomputed
      end;
      cpk
  | None ->
      if Hashtbl.length t.interned < max_interned then
        Hashtbl.add t.interned kb (pk, ref 1);
      pk

let verify t ~cls ~principal pk digest ~signature =
  let pk = canonical t pk in
  Profile.time t.profile Profile.Verify ~cls principal (fun () ->
      Schnorr.verify pk digest ~signature)
