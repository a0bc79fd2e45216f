(* The auditor's signature checks as a job list that grows while they run
   (see sigbatch.mli).

   The caller appends jobs and publishes them 32 at a time. Helper
   domains claim chunks from a shared cursor; one that claims a chunk not
   yet published waits on a condition for it, so a helper that catches up
   with the producer sleeps instead of spinning. Claiming from a cursor
   means a domain that the host deschedules, or that runs a signal
   handler, only takes fewer chunks. Every job is checked, and a failure
   lowers a shared bound to the lowest failing index, so the verdict and
   the work counts do not depend on which domain got there first.

   The first domain to start work, a helper unless there is none, turns
   the plan into the key table and builds the combs while the caller
   queues jobs; no domain checks a job before the table is ready. *)

type 'a job = { pk : Schnorr.public_key; digest : string; signature : string; tag : 'a }

type 'a t = {
  plan : Schnorr.public_key list;
  preparing : bool Atomic.t; (* a domain has taken the plan *)
  lock : Mutex.t;
  published : Condition.t;
  (* Under [lock]: once [ready], the key each job checks against, per
     key's bytes, read-only from then on. *)
  mutable keys : (string, Schnorr.public_key) Hashtbl.t;
  mutable ready : bool;
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

(* Unit costs in microseconds, the medians in BENCH_crypto.json
   (bench/crypto.exe, 2-core x86-64 VM). A comb pays for a key once its
   uses save more than it costs to build: 4 uses or more. *)
let verify_untabled_us = 40.6
let verify_tabled_us = 17.0
let precompute_us = 72.3

let comb_pays uses =
  float_of_int uses *. (verify_untabled_us -. verify_tabled_us) > precompute_us

(* Jobs per chunk claimed, and the fewest jobs that earn a domain: a
   domain costs 0.25-0.9 ms to start and join, and 128 tabled checks take
   about 2 ms. *)
let chunk = 32
let jobs_per_domain = 128

let width n = max 1 (min (Domain.recommended_domain_count ()) (n / jobs_per_domain))

let rec lower bound i =
  let b = Atomic.get bound in
  if i < b && not (Atomic.compare_and_set bound b i) then lower bound i

let locked t f =
  Mutex.lock t.lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.lock)

(* One key value per distinct key, preferring one that already has a
   comb; a comb for each that has none and is planned often enough.
   Decoded messages carry a fresh key value each, so without this no comb
   would be shared. A comb is built on a copy of the key: the caller may
   be checking signatures against the plan's own values meanwhile (the
   scan's inline view-change checks), and whether those are tabled must
   not depend on timing. The table is published even if this raises, so
   no domain waits for it forever. *)
let prepare t =
  let keys = Hashtbl.create 256 in
  Fun.protect
    ~finally:(fun () ->
      locked t (fun () ->
          t.keys <- keys;
          t.ready <- true;
          Condition.broadcast t.published))
    (fun () ->
      let uses = Hashtbl.create 256 in
      List.iter
        (fun pk ->
          let kb = Schnorr.public_key_to_bytes pk in
          match Hashtbl.find_opt uses kb with
          | None -> Hashtbl.add uses kb (pk, 1)
          | Some (pk', n) ->
              Hashtbl.replace uses kb ((if Schnorr.has_table pk then pk else pk'), n + 1))
        t.plan;
      Hashtbl.iter
        (fun kb (pk, n) ->
          let pk =
            if Schnorr.has_table pk || not (comb_pays n) then pk
            else begin
              let copy = Option.get (Schnorr.public_key_of_bytes kb) in
              Schnorr.precompute copy;
              copy
            end
          in
          Hashtbl.add keys kb pk)
        uses)

(* Waits until the chunk at [lo] is published whole or the list is
   closed: the jobs array and the chunk's end, or [None] past the list's
   end. *)
let claim t lo =
  locked t (fun () ->
      while t.upto < lo + chunk && not t.closed do
        Condition.wait t.published t.lock
      done;
      if lo < t.upto then Some (t.shared, min t.upto (lo + chunk)) else None)

(* Prepares the plan if no domain has yet, then checks claimed chunks
   until the list is used up; returns the field multiplies and hash
   compressions it made, for the caller's counters. *)
let work t () =
  let muls0 = Group.muls () and blocks0 = Sha256.blocks () in
  if Atomic.compare_and_set t.preparing false true then prepare t;
  let keys =
    locked t (fun () ->
        while not t.ready do
          Condition.wait t.published t.lock
        done;
        t.keys)
  in
  let rec go () =
    let lo = Atomic.fetch_and_add t.cursor chunk in
    match claim t lo with
    | None -> ()
    | Some (jobs, hi) ->
        for i = lo to hi - 1 do
          let j = jobs.(i) in
          let pk =
            Option.value ~default:j.pk
              (Hashtbl.find_opt keys (Schnorr.public_key_to_bytes j.pk))
          in
          if not (Schnorr.verify pk j.digest ~signature:j.signature) then lower t.first i
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

let start ?width:w plan =
  let t =
    {
      plan;
      preparing = Atomic.make false;
      lock = Mutex.create ();
      published = Condition.create ();
      keys = Hashtbl.create 1;
      ready = false;
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
  (* Past the runtime's domain limit a helper is simply not started: the
     caller prepares the plan and claims the chunks instead. *)
  let n = List.length plan in
  let w = Option.value w ~default:(width n) in
  t.helpers <-
    List.filter_map
      (fun _ -> match Domain.spawn (work t) with d -> Some d | exception Failure _ -> None)
      (List.init (max 0 (min w n - 1)) Fun.id);
  t

let add t pk digest ~signature tag =
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

let planned t =
  let uses = Hashtbl.create 256 in
  let count d pk =
    let kb = Schnorr.public_key_to_bytes pk in
    Hashtbl.replace uses kb (d + Option.value ~default:0 (Hashtbl.find_opt uses kb))
  in
  List.iter (count 1) t.plan;
  for i = 0 to t.n - 1 do
    count (-1) t.jobs.(i).pk
  done;
  Hashtbl.fold (fun _ d ok -> ok && d = 0) uses true
