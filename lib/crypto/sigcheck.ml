(* Signature checks against per-key combs: one key table, one comb rule,
   and two entry points, check-now and a job list (see sigcheck.mli).

   The job list grows while it is checked. The caller appends jobs and
   publishes them 32 at a time. Helper domains claim chunks from a shared
   cursor; one that claims a chunk not yet published waits on a condition
   for it, so a helper that catches up with the producer sleeps instead of
   spinning. Claiming from a cursor means a domain that the host
   deschedules, or that runs a signal handler, only takes fewer chunks.
   Every job is checked, and a failure lowers a shared bound to the lowest
   failing index, so the verdict and the work counts do not depend on
   which domain got there first. *)

module Obs = Iaccf_obs.Obs

(* Unit costs in microseconds, the medians in BENCH_crypto.json
   (bench/crypto.exe, 2-core x86-64 VM). A comb pays for a key once its
   uses save more than it costs to build: 4 uses or more. *)
let verify_untabled_us = 40.6
let verify_tabled_us = 17.0
let precompute_us = 72.3

let comb_pays uses =
  float_of_int uses *. (verify_untabled_us -. verify_tabled_us) > precompute_us

let max_keys = 4096

type entry = { mutable key : Schnorr.public_key; mutable uses : int }

type t = {
  keys : (string, entry) Hashtbl.t; (* by the key's encoding *)
  c_precomputed : Obs.counter;
}

let create ?obs () =
  let obs = match obs with Some o -> o | None -> Obs.passive () in
  { keys = Hashtbl.create 64; c_precomputed = Obs.counter obs "crypto.keys.precomputed" }

(* Counts a use of [pk]'s key and returns the key value to check it
   against. At the first use where a comb pays, [tabled] returns the
   interned value with a comb, and it replaces the interned one. *)
let use t pk ~tabled =
  let kb = Schnorr.public_key_to_bytes pk in
  let entry =
    match Hashtbl.find_opt t.keys kb with
    | Some e -> Some e
    | None when Hashtbl.length t.keys < max_keys ->
        let e = { key = pk; uses = 0 } in
        Hashtbl.add t.keys kb e;
        Some e
    | None -> None
  in
  match entry with
  | None -> pk
  | Some e ->
      e.uses <- e.uses + 1;
      if comb_pays e.uses && not (Schnorr.has_table e.key) then begin
        e.key <- tabled kb e.key;
        Obs.incr t.c_precomputed
      end;
      e.key

(* Check-now tables the interned value in place: it is the first key
   value seen, such as the configuration's own, and whoever else checks
   against that value gains the comb too. *)
let verify t pk digest ~signature =
  let pk =
    use t pk ~tabled:(fun _ pk ->
        Schnorr.precompute pk;
        pk)
  in
  Schnorr.verify pk digest ~signature

(* --- The job list ----------------------------------------------------- *)

type 'a job = { pk : Schnorr.public_key; digest : string; signature : string; tag : 'a }

type 'a jobs = {
  table : t; (* the caller's *)
  lock : Mutex.t;
  published : Condition.t;
  mutable jobs : 'a job array; (* the caller's: the list in its first [n] slots *)
  mutable n : int;
  (* Under [lock]: the jobs helpers may take, in the first [upto] slots of
     [shared], and whether the list is complete. *)
  mutable shared : 'a job array;
  mutable upto : int;
  mutable closed : bool;
  cursor : int Atomic.t;
  first : int Atomic.t; (* the lowest failing job, or [max_int] *)
  mutable helpers : (int * int) Domain.t list;
}

(* Jobs per chunk claimed, and the fewest jobs that earn a domain: a
   domain costs 0.25-0.9 ms to start and join, and 128 tabled checks take
   about 2 ms. *)
let chunk = 32
let jobs_per_domain = 128

let rec lower bound i =
  let b = Atomic.get bound in
  if i < b && not (Atomic.compare_and_set bound b i) then lower bound i

let locked t f =
  Mutex.lock t.lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.lock)

(* Waits until the chunk at [lo] is published whole or the list is
   closed: the jobs array and the chunk's end, or [None] past the list's
   end. *)
let claim t lo =
  locked t (fun () ->
      while t.upto < lo + chunk && not t.closed do
        Condition.wait t.published t.lock
      done;
      if lo < t.upto then Some (t.shared, min t.upto (lo + chunk)) else None)

(* Checks claimed chunks until the list is used up; returns the field
   multiplies and hash compressions it made, for the caller's counters. *)
let work t () =
  let muls0 = Group.muls () and blocks0 = Sha256.blocks () in
  let rec go () =
    let lo = Atomic.fetch_and_add t.cursor chunk in
    match claim t lo with
    | None -> ()
    | Some (jobs, hi) ->
        for i = lo to hi - 1 do
          let j = jobs.(i) in
          if not (Schnorr.verify j.pk j.digest ~signature:j.signature) then lower t.first i
        done;
        go ()
  in
  go ();
  (Group.muls () - muls0, Sha256.blocks () - blocks0)

let publish t ~closed =
  locked t (fun () ->
      t.shared <- t.jobs;
      t.upto <- t.n;
      t.closed <- closed;
      Condition.broadcast t.published)

let start ?width ~expected () =
  let t =
    {
      table = create ();
      lock = Mutex.create ();
      published = Condition.create ();
      jobs = [||];
      n = 0;
      shared = [||];
      upto = 0;
      closed = false;
      cursor = Atomic.make 0;
      first = Atomic.make max_int;
      helpers = [];
    }
  in
  let w =
    match width with
    | Some w -> w
    | None -> min (Domain.recommended_domain_count ()) (expected / jobs_per_domain)
  in
  (* Past the runtime's domain limit a helper is simply not started: the
     caller claims its chunks instead. *)
  t.helpers <-
    List.filter_map
      (fun _ -> match Domain.spawn (work t) with d -> Some d | exception Failure _ -> None)
      (List.init (max 0 (w - 1)) Fun.id);
  t

let add t pk digest ~signature tag =
  (* A copy gets the comb, not the interned value: helpers may be
     checking earlier jobs against that value, and whether those checks
     are tabled must not depend on timing. *)
  let pk =
    use t.table pk ~tabled:(fun kb _ ->
        let copy = Option.get (Schnorr.public_key_of_bytes kb) in
        Schnorr.precompute copy;
        copy)
  in
  let job = { pk; digest; signature; tag } in
  if t.n = Array.length t.jobs then begin
    (* Slots below [upto] are never written again, so a helper still
       reading the array this replaces reads the same jobs. *)
    let bigger = Array.make (max chunk (2 * t.n)) job in
    Array.blit t.jobs 0 bigger 0 t.n;
    t.jobs <- bigger
  end;
  t.jobs.(t.n) <- job;
  t.n <- t.n + 1;
  if t.n mod chunk = 0 then publish t ~closed:false

let close t = publish t ~closed:true

let finish t =
  close t;
  ignore (work t ());
  List.iter
    (fun d ->
      let muls, blocks = Domain.join d in
      Group.add_muls muls;
      Sha256.add_blocks blocks)
    t.helpers;
  t.helpers <- [];
  let i = Atomic.get t.first in
  if i < t.n then Some t.jobs.(i).tag else None
