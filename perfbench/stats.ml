(* The benchmark's own arithmetic, kept free of the system under test so
   it can be tested on hand-built inputs. *)

(* Percentiles follow the obs histograms' nearest-rank rule, so figures
   agree with the system's own snapshots; 0 for an empty list. *)
module H = Iaccf_obs.Obs.Histogram

let median xs = H.percentile_of_list 0.5 xs

(* Samples strictly above the rank of percentile [p] among [n]. *)
let beyond ~n p = n - int_of_float (Float.ceil (p *. float_of_int n))

type tail = { t_p : float; t_value : float; t_count : int }

(* The highest percentile of the ladder that still has at least ten
   samples beyond it, with the sample count it rests on. Below 20
   samples not even the median qualifies; the median is reported then,
   and [t_count] tells the reader how little it rests on. *)
let tail_ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

let tail xs =
  let n = List.length xs in
  let p =
    match List.find_opt (fun p -> beyond ~n p >= 10) tail_ladder with
    | Some p -> p
    | None -> 0.5
  in
  { t_p = p; t_value = H.percentile_of_list p xs; t_count = n }

(* A ratio whose denominator may be zero (no traffic, no attempts):
   reported as 0 rather than nan or infinity, which JSON cannot carry. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den
let ratio_i num den = ratio (float_of_int num) (float_of_int den)

(* Requests that never committed, or, when the run's output check
   failed, every request of the run. *)
let failed ~attempted ~committed ~check_ok =
  if check_ok then max 0 (attempted - committed) else attempted

(* The share of attempted requests that committed and passed the
   output check; 0 when nothing was attempted. *)
let committed_ratio ~attempted ~failed = ratio_i (attempted - failed) attempted

(* Longest interval with no completion, over the sorted-or-not
   completion times [times] within [start, stop]. Both window edges
   count as events, so a window with no completion at all is one gap as
   long as the window. *)
let longest_gap ~start ~stop times =
  let inside =
    List.filter (fun t -> t >= start && t <= stop) times
    |> List.sort Float.compare
  in
  let rec go prev best = function
    | [] -> Float.max best (stop -. prev)
    | t :: rest -> go t (Float.max best (t -. prev)) rest
  in
  go start 0.0 inside

(* The first completion at or after [from]; [None] if there is none. *)
let first_at_or_after ~from times =
  List.fold_left
    (fun acc t -> if t >= from then match acc with Some b when b <= t -> acc | _ -> Some t else acc)
    None times

(* Catch-up from a timeline of a restarted replica's committed seqno,
   [(time, last_committed)]: from [restart] to the first sample that
   reaches [target], the fleet's committed prefix at restart time. *)
let catchup ~restart ~target samples =
  List.fold_left
    (fun acc (t, lc) ->
      if t >= restart && lc >= target then
        match acc with Some best when best <= t -> acc | _ -> Some t
      else acc)
    None samples
  |> Option.map (fun t -> t -. restart)
