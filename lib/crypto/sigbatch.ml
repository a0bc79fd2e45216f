(* The auditor's signature checks as one job list (see sigbatch.mli).

   Jobs are claimed in chunks from a shared cursor, so a domain that the
   host deschedules, or that runs a signal handler, only takes fewer
   chunks. A failure lowers a shared bound; chunks past the bound are not
   started, and a chunk stops at its own first failure, so every job
   before the lowest failure has been checked when the domains finish. *)

module Vec = Iaccf_util.Vec

type 'a job = { pk : Schnorr.public_key; digest : string; signature : string; tag : 'a }
type 'a t = 'a job Vec.t

let create () = Vec.create ()
let add t pk digest ~signature tag = Vec.push t { pk; digest; signature; tag }

(* Unit costs in microseconds, the medians in BENCH_crypto.json
   (bench/crypto.exe, 2-core x86-64 VM). A comb pays for a key once its
   uses save more than it costs to build: 4 uses or more. *)
let verify_untabled_us = 40.6
let verify_tabled_us = 17.0
let precompute_us = 72.3

let comb_pays uses =
  float_of_int uses *. (verify_untabled_us -. verify_tabled_us) > precompute_us

(* One key value per distinct key, preferring one that already has a
   comb; a comb for each that has none and is used often enough. Decoded
   messages carry a fresh key value each, so without this no comb would
   be shared. Runs on the calling domain before any check, so the same
   jobs build the same combs at any width. *)
let canonical_keys jobs =
  let by_bytes = Hashtbl.create 256 in
  Array.iter
    (fun j ->
      let kb = Schnorr.public_key_to_bytes j.pk in
      match Hashtbl.find_opt by_bytes kb with
      | None -> Hashtbl.add by_bytes kb (ref j.pk, ref 1)
      | Some (pk, uses) ->
          incr uses;
          if Schnorr.has_table j.pk then pk := j.pk)
    jobs;
  Hashtbl.iter (fun _ (pk, uses) -> if comb_pays !uses then Schnorr.precompute !pk) by_bytes;
  Array.map (fun j -> !(fst (Hashtbl.find by_bytes (Schnorr.public_key_to_bytes j.pk)))) jobs

(* Jobs per chunk claimed, and the fewest jobs that earn a domain: a
   domain costs 0.25-0.9 ms to start and join, and 128 tabled checks take
   about 2 ms. *)
let chunk = 32
let jobs_per_domain = 128

let width n = max 1 (min (Domain.recommended_domain_count ()) (n / jobs_per_domain))

let rec lower bound i =
  let b = Atomic.get bound in
  if i < b && not (Atomic.compare_and_set bound b i) then lower bound i

let first_failure_at ~width t =
  let jobs = Array.init (Vec.length t) (Vec.get t) in
  let n = Array.length jobs in
  let keys = canonical_keys jobs in
  let cursor = Atomic.make 0 and first = Atomic.make n in
  (* Checks claimed chunks; returns the field multiplies and hash
     compressions it made, for the caller's counters. *)
  let work () =
    let muls0 = Group.muls () and blocks0 = Sha256.blocks () in
    let rec claim () =
      let lo = Atomic.fetch_and_add cursor chunk in
      if lo < n && lo < Atomic.get first then begin
        let hi = min n (lo + chunk) in
        let rec go i =
          if i < hi then
            let j = jobs.(i) in
            if Schnorr.verify keys.(i) j.digest ~signature:j.signature then go (i + 1)
            else lower first i
        in
        go lo;
        claim ()
      end
    in
    claim ();
    (Group.muls () - muls0, Sha256.blocks () - blocks0)
  in
  (* Past the runtime's domain limit a helper is simply not started: the
     caller claims its chunks instead. *)
  let helpers =
    List.filter_map
      (fun _ -> match Domain.spawn work with d -> Some d | exception Failure _ -> None)
      (List.init (max 0 (min width n - 1)) Fun.id)
  in
  ignore (work ());
  List.iter
    (fun d ->
      let muls, blocks = Domain.join d in
      Group.add_muls muls;
      Sha256.add_blocks blocks)
    helpers;
  let i = Atomic.get first in
  if i < n then Some jobs.(i).tag else None

let first_failure t = first_failure_at ~width:(width (Vec.length t)) t
