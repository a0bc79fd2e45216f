(* Signature checks against per-key combs: one key table, one comb rule,
   and two entry points, check-now and a job list (see sigcheck.mli).
   Check-now can use a precheck that the background worker made ahead of
   it (see the prechecks below).

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
module Worker = Iaccf_util.Worker

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

(* A precheck's outcome: the key's encoding, the payload digest it
   checked, whether the key value had its comb, the verdict, the check's
   own multiplies and compressions (not the payload's: the caller hashes
   that itself), and the time the check took on the clock [ahead] was
   given, if any. *)
type outcome = {
  kb : string;
  digest : string;
  comb : bool;
  ok : bool;
  muls : int;
  blocks : int;
  took : float option;
}

(* A precheck moves from [Queued] to [Started] and [Done] on the worker,
   or from [Queued] to [Taken] on the caller; [Done None] is void. *)
type state = Queued | Started | Taken | Done of outcome option

type precheck = { signature : string; state : state Atomic.t }

type t = {
  keys : (string, entry) Hashtbl.t; (* by the key's encoding *)
  in_place : bool; (* combs on the interned values, or on copies *)
  c_precomputed : Obs.counter option;
  prechecks : (string, precheck) Hashtbl.t; (* not yet used, by signature *)
  order : precheck Queue.t; (* oldest first, used ones among them *)
}

let max_prechecks = 1024

let make ~in_place ~size c_precomputed =
  {
    keys = Hashtbl.create size;
    in_place;
    c_precomputed;
    prechecks = Hashtbl.create size;
    order = Queue.create ();
  }

let create ?obs () =
  make ~in_place:true ~size:64
    (Option.map (fun o -> Obs.counter o "crypto.keys.precomputed") obs)

(* A receipt checked without a shared table makes one of these per call,
   so it starts small and counts nothing. *)
let create_private () = make ~in_place:false ~size:8 None

(* Counts a use of [pk]'s key and returns the key value to check it
   against. At the first use where a comb pays, the interned value gets
   the comb, or a copy of it does and replaces it. A copy leaves alone a
   value that others check against: the caller's, or, in a job list, the
   one helpers may be checking earlier jobs against, where whether those
   checks are tabled must not depend on timing. *)
let use t pk =
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
        if not t.in_place then e.key <- Option.get (Schnorr.public_key_of_bytes kb);
        Schnorr.precompute e.key;
        Option.iter Obs.incr t.c_precomputed
      end;
      e.key

(* --- Prechecks ----------------------------------------------------------

   [ahead] queues a check on the background worker against the key value
   the table holds now, comb or no comb, and counts no use. The job claims
   itself before it starts; the caller that finds it unclaimed claims it
   instead and checks inline, so a use never waits behind the worker's
   queue. A use that finds it started spins until it is done: the rest
   of one check is shorter than a sleep and a wake-up. Tables only ever
   gain a comb, so a key with none before and after the check had none
   during it; a comb built meanwhile (by the event loop, on the interned
   value) voids the outcome. *)

(* The worker's side: the outcome, or [None] if a comb appeared meanwhile. *)
let run_precheck ?clock key payload ~signature =
  let digest = payload () in
  let comb = Schnorr.has_table key in
  let muls0 = Group.muls () and blocks0 = Sha256.blocks () in
  let t0 = match clock with Some c -> c () | None -> 0.0 in
  let ok = Schnorr.verify key digest ~signature in
  let took = Option.map (fun c -> c () -. t0) clock in
  if Schnorr.has_table key <> comb then None
  else
    Some
      {
        kb = Schnorr.public_key_to_bytes key;
        digest;
        comb;
        ok;
        muls = Group.muls () - muls0;
        blocks = Sha256.blocks () - blocks0;
        took;
      }

let ahead ?clock t pk payload ~signature =
  if not (Hashtbl.mem t.prechecks signature) then begin
    let kb = Schnorr.public_key_to_bytes pk in
    let key = match Hashtbl.find_opt t.keys kb with Some e -> e.key | None -> pk in
    let state = Atomic.make Queued in
    ignore
      (Worker.submit (fun () ->
           if Atomic.compare_and_set state Queued Started then
             (* A check that raises is void: the use checks inline, and
                raises there. *)
             Atomic.set state (Done (try run_precheck ?clock key payload ~signature with _ -> None))));
    let p = { signature; state } in
    if Queue.length t.order >= max_prechecks then begin
      let old = Queue.pop t.order in
      match Hashtbl.find_opt t.prechecks old.signature with
      | Some q when q == old ->
          Hashtbl.remove t.prechecks old.signature;
          ignore (Atomic.compare_and_set old.state Queued Taken)
      | _ -> ()
    end;
    Hashtbl.replace t.prechecks signature p;
    Queue.push p t.order
  end

let prechecks t = Hashtbl.length t.prechecks

(* The precheck for [signature], removed from the table: its outcome once
   the worker has made it, or [None] when it had not started (it is taken
   back) or its outcome is void. *)
let take t signature =
  match Hashtbl.find_opt t.prechecks signature with
  | None -> None
  | Some p ->
      Hashtbl.remove t.prechecks signature;
      if Atomic.compare_and_set p.state Queued Taken then None
      else
        let rec finished () =
          match Atomic.get p.state with
          | Done o -> o
          | _ ->
              Domain.cpu_relax ();
              finished ()
        in
        finished ()

(* A precheck stands in for the check only where the check would have
   been the same one: same signature, digest and key, and the key value
   now checked against has a comb exactly when the precheck's had. *)
let verify_timed t pk digest ~signature =
  let early = take t signature in
  let pk = use t pk in
  match early with
  | Some o
    when String.equal o.digest digest
         && String.equal o.kb (Schnorr.public_key_to_bytes pk)
         && o.comb = Schnorr.has_table pk ->
      Group.add_muls o.muls;
      Sha256.add_blocks o.blocks;
      (o.ok, o.took)
  | _ -> (Schnorr.verify pk digest ~signature, None)

let verify t pk digest ~signature = fst (verify_timed t pk digest ~signature)

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
      table = create_private ();
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
  let pk = use t.table pk in
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
