(* Host-speed reference. On a shared 2-core VM the effective CPU speed
   drifts by 15% or more (coefficient of variation) between runs a
   minute apart, and every wall-clock figure drifts with it. A phase that
   is timed on the wall clock therefore interleaves short slices of a
   fixed reference computation: 2 ms every 25 ms, and the wall-clock
   figures are divided by its speed.

   Wall-clock figures are reported normalised to [nominal_rate]: a
   throughput is divided by [speed], a duration multiplied by it, and
   the time spent in reference slices is left out of both. An injected
   slowdown in the system must still show in full: an allocation-heavy
   one that cut raw tx/s on closed-audit to 0.47x cut the normalised
   figure to 0.50x (NOTES.md). *)

(* One unit of reference work: twenty schoolbook multiplies of 11-limb,
   24-bit numbers. The same kind of work as the system's bignum
   arithmetic, but the benchmark's own code, so no change to the system
   can speed it up. The operands live in preallocated arrays, so a unit
   allocates nothing: a slice does no collector work, and the system's
   heap traffic can neither slow the reference down nor hide in it. *)
let ref_a = Array.init 11 (fun i -> ((i * 7919) + 13) land 0xff_ffff)
let ref_b = Array.make 11 0
let ref_r = Array.make 22 0

let unit_of_work () =
  let acc = ref 0 in
  for _ = 1 to 20 do
    for j = 0 to 10 do
      ref_b.(j) <- ((j * 104_729) + !acc) land 0xff_ffff
    done;
    Array.fill ref_r 0 22 0;
    for i = 0 to 10 do
      let carry = ref 0 in
      for j = 0 to 10 do
        let t = ref_r.(i + j) + (ref_a.(i) * ref_b.(j)) + !carry in
        ref_r.(i + j) <- t land 0xff_ffff;
        carry := t lsr 24
      done;
      ref_r.(i + 11) <- !carry
    done;
    acc := !acc + ref_r.(5)
  done;
  !acc

(* Units per second, near the rate seen on the 2-core VM the benchmark
   was tuned on. Only ratios between runs matter; this constant just
   keeps normalised figures near the raw ones. *)
let nominal_rate = 86_500.0

let slice_s = 0.002
let every_s = 0.025

type t = {
  mutable units : int;
  mutable secs : float;  (* wall time spent in reference slices *)
  mutable next : float;
  mutable slices : int;
  mutable rates : float list;  (* speed of each slice, newest first *)
}

let create () = { units = 0; secs = 0.0; next = 0.0; slices = 0; rates = [] }

(* Run one reference slice now. *)
let sample t =
  let t0 = Unix.gettimeofday () in
  let stop = t0 +. slice_s in
  let n = ref 0 in
  while Unix.gettimeofday () < stop do
    ignore (Sys.opaque_identity (unit_of_work ()));
    incr n
  done;
  let t1 = Unix.gettimeofday () in
  t.units <- t.units + !n;
  t.secs <- t.secs +. (t1 -. t0);
  t.next <- t1 +. every_s;
  t.slices <- t.slices + 1;
  t.rates <- (float_of_int !n /. (t1 -. t0) /. nominal_rate) :: t.rates

(* Run a slice if one is due; call it often from the phase's loop. *)
let tick t = if Unix.gettimeofday () >= t.next then sample t

(* Reference slices, back to back, for [s] seconds. *)
let sample_for t s =
  let stop = Unix.gettimeofday () +. s in
  while Unix.gettimeofday () < stop do
    sample t
  done

(* Run [f] with a slice every [every_s] taken from a SIGALRM interval
   timer: for phases that are one long call into the system, which has
   no loop of the benchmark's to tick from. The handler runs at the
   call's next poll point. Not for phases that wait in [select]: the
   signal would interrupt it. *)
let during t f =
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample t)) in
  let timer = { Unix.it_interval = every_s; it_value = every_s } in
  ignore (Unix.setitimer Unix.ITIMER_REAL timer);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigalrm previous)
    f

(* The host's speed relative to nominal: 0.8 when it ran at 80%; 1.0
   before any slice. *)
let speed t =
  if t.secs = 0.0 then 1.0 else float_of_int t.units /. t.secs /. nominal_rate

(* Slices taken so far: a timestamp for {!local}. *)
let slices t = t.slices

(* Normalise durations [(raw, k)] one by one, each by the host's speed
   around the moment [k] slices had been taken: the mean of the slice
   before and the slice after it. Per-call percentiles need this: the
   speed averaged over a phase scales the mean call, but a host that
   runs fast for part of the phase and slow for the rest moves the
   median and the tail by other amounts. *)
let local t timed =
  let rates = Array.of_list (List.rev t.rates) in
  let n = Array.length rates in
  List.map
    (fun (raw, k) ->
      let around = List.filter (fun i -> i >= 0 && i < n) [ k - 1; k ] in
      let s =
        match around with
        | [] -> 1.0
        | _ -> List.fold_left (fun acc i -> acc +. rates.(i)) 0.0 around
               /. float_of_int (List.length around)
      in
      raw *. s)
    timed

(* Wall seconds spent in reference slices. *)
let overhead t = t.secs

(* A wall-clock duration [raw] (reference slices already left out),
   normalised. *)
let duration t raw = raw *. speed t
