module Vec = Iaccf_util.Vec
module Json = Iaccf_util.Json

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float; mutable g_max : float }

module Histogram = struct
  (* Raw samples are kept exactly up to [h_cap] and reservoir-sampled
     beyond it (Vitter's algorithm R with a private deterministic
     generator), so a histogram's memory is bounded no matter how long
     the run: percentiles are exact below the cap and uniformly sampled
     estimates above it, while count/sum/mean/min/max and the fixed
     buckets stay exact forever. *)
  type h = {
    h_active : bool;
    h_cap : int; (* reservoir size: max raw samples retained *)
    h_bounds : float array; (* strictly increasing upper bounds *)
    h_counts : int array; (* per-bucket, one extra slot for +inf *)
    h_samples : float Vec.t;
    mutable h_count : int; (* exact observation count *)
    mutable h_sum : float;
    mutable h_min : float;
    mutable h_max : float;
    mutable h_rng : int64; (* splitmix64 state for the reservoir draws *)
    mutable h_sorted : float array option; (* cache, invalidated on observe *)
  }

  (* Log-spaced latency buckets in milliseconds. *)
  let default_buckets =
    [|
      0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0;
      500.0; 1000.0; 2000.0; 5000.0;
    |]

  (* Samples retained before reservoir sampling: bucket counts, count,
     sum, min and max stay exact above it; percentiles come from a uniform
     sample of the stream. *)
  let default_cap = 8192

  let create ?(buckets = default_buckets) ?(cap = default_cap) ?(active = true)
      () =
    Array.iteri
      (fun i b ->
        if i > 0 && b <= buckets.(i - 1) then
          invalid_arg "Histogram.create: buckets must be strictly increasing")
      buckets;
    if cap < 1 then invalid_arg "Histogram.create: cap must be positive";
    {
      h_active = active;
      h_cap = cap;
      h_bounds = buckets;
      h_counts = Array.make (Array.length buckets + 1) 0;
      h_samples = Vec.create ();
      h_count = 0;
      h_sum = 0.0;
      h_min = 0.0;
      h_max = 0.0;
      h_rng = 0x9e3779b97f4a7c15L;
      h_sorted = None;
    }

  (* splitmix64 step; deterministic, private to the histogram so the
     reservoir draws never perturb any other seeded randomness. *)
  let next_rand h bound =
    let z = Int64.add h.h_rng 0x9e3779b97f4a7c15L in
    h.h_rng <- z;
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.unsigned_rem z (Int64.of_int bound))

  let bucket_index h v =
    (* First bound >= v, else the +inf slot. *)
    let n = Array.length h.h_bounds in
    let rec go lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if v <= h.h_bounds.(mid) then go lo mid else go (mid + 1) hi
      end
    in
    go 0 n

  let observe h v =
    if h.h_active then begin
      let empty = h.h_count = 0 in
      h.h_count <- h.h_count + 1;
      if Vec.length h.h_samples < h.h_cap then Vec.push h.h_samples v
      else begin
        (* Algorithm R: the n-th sample replaces a reservoir slot with
           probability cap/n, keeping the retained set uniform. *)
        let j = next_rand h h.h_count in
        if j < h.h_cap then Vec.set h.h_samples j v
      end;
      h.h_counts.(bucket_index h v) <- h.h_counts.(bucket_index h v) + 1;
      h.h_sum <- h.h_sum +. v;
      if empty || v < h.h_min then h.h_min <- v;
      if empty || v > h.h_max then h.h_max <- v;
      h.h_sorted <- None
    end

  let count h = h.h_count
  let retained h = Vec.length h.h_samples
  let sum h = h.h_sum
  let mean h = if count h = 0 then 0.0 else h.h_sum /. float_of_int (count h)
  let min_value h = h.h_min
  let max_value h = h.h_max

  let sorted h =
    match h.h_sorted with
    | Some a -> a
    | None ->
        let a = Array.of_list (Vec.to_list h.h_samples) in
        Array.sort Float.compare a;
        h.h_sorted <- Some a;
        a

  (* Nearest-rank: sample of rank ceil(p * n), 1-based; p<=0 -> minimum. *)
  let percentile h p =
    let a = sorted h in
    let n = Array.length a in
    if n = 0 then 0.0
    else begin
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      let rank = max 1 (min n rank) in
      a.(rank - 1)
    end

  let percentile_of_list p xs =
    let h = create ~active:true () in
    List.iter (observe h) xs;
    percentile h p

  let buckets h =
    let n = Array.length h.h_bounds in
    let acc = ref 0 in
    Array.init (n + 1) (fun i ->
        acc := !acc + h.h_counts.(i);
        ((if i = n then infinity else h.h_bounds.(i)), !acc))
end

(* Flow_start / Flow_finish are Chrome flow events ("s"/"f"): an arrow
   from the sender's timeline to the receiver's, correlated by (cat, id).
   The network layer emits them per traced message so one request's
   causal path links across replicas in Perfetto. *)
type phase = Span_begin | Span_end | Instant | Flow_start | Flow_finish

type event = {
  ev_ts : float;
  ev_ph : phase;
  ev_cat : string;
  ev_name : string;
  ev_node : int;
  ev_id : string;
  ev_args : (string * string) list;
}

type t = {
  metrics : bool;
  tracing : bool;
  mutable clock : unit -> float;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, Histogram.h) Hashtbl.t;
  marks : (string, float) Hashtbl.t;
  trace : event Vec.t;
  node_names : (int, string) Hashtbl.t;
}

let create ?(metrics = true) ?(tracing = true) ?(clock = fun () -> 0.0) () =
  {
    metrics;
    tracing;
    clock;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
    marks = Hashtbl.create 64;
    trace = Vec.create ();
    node_names = Hashtbl.create 8;
  }

let passive () = create ~metrics:false ~tracing:false ()
let tracing_enabled t = t.tracing
let set_clock t clock = t.clock <- clock
let now t = t.clock ()

(* ------------------------------------------------------------------ *)
(* Counters / gauges                                                   *)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace t.counters name c;
      c

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.c_value | None -> 0

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g_value = 0.0; g_max = 0.0 } in
      Hashtbl.replace t.gauges name g;
      g

let set_gauge g v =
  g.g_value <- v;
  if v > g.g_max then g.g_max <- v

let gauge_max g = g.g_max

let gauge_max_value t name =
  match Hashtbl.find_opt t.gauges name with Some g -> g.g_max | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Histograms / marks                                                  *)

let histogram t ?buckets ?cap name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = Histogram.create ?buckets ?cap ~active:t.metrics () in
      Hashtbl.replace t.histograms name h;
      h

let mark t key =
  if t.metrics && not (Hashtbl.mem t.marks key) then
    Hashtbl.replace t.marks key (now t)

let mark_lookup t key = Hashtbl.find_opt t.marks key

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let emit t ph ~node ~cat ~name ~id ~args =
  Vec.push t.trace
    {
      ev_ts = now t;
      ev_ph = ph;
      ev_cat = cat;
      ev_name = name;
      ev_node = node;
      ev_id = id;
      ev_args = args;
    }

let span_begin t ~node ~cat ~name ~id ?(args = []) () =
  if t.tracing then emit t Span_begin ~node ~cat ~name ~id ~args

let span_end t ~node ~cat ~name ~id ?(args = []) () =
  if t.tracing then emit t Span_end ~node ~cat ~name ~id ~args

let instant t ~node ~cat ~name ?(id = "") ?(args = []) () =
  if t.tracing then emit t Instant ~node ~cat ~name ~id ~args

let flow_start t ~node ~cat ~name ~id ?(args = []) () =
  if t.tracing then emit t Flow_start ~node ~cat ~name ~id ~args

let flow_finish t ~node ~cat ~name ~id ?(args = []) () =
  if t.tracing then emit t Flow_finish ~node ~cat ~name ~id ~args

let set_node_name t node name = Hashtbl.replace t.node_names node name
let events t = Vec.to_list t.trace
let event_count t = Vec.length t.trace

(* ------------------------------------------------------------------ *)
(* Metrics snapshot                                                    *)

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let bound_str b = if b = infinity then "inf" else float_str b

let snapshot t =
  let lines = ref [] in
  let put k v = lines := (k, v) :: !lines in
  Hashtbl.iter (fun _ c -> put c.c_name (string_of_int c.c_value)) t.counters;
  Hashtbl.iter (fun _ g -> put g.g_name (float_str g.g_value)) t.gauges;
  Hashtbl.iter
    (fun name h ->
      put (name ^ ".count") (string_of_int (Histogram.count h));
      put (name ^ ".sum") (float_str (Histogram.sum h));
      put (name ^ ".mean") (float_str (Histogram.mean h));
      put (name ^ ".min") (float_str (Histogram.min_value h));
      put (name ^ ".max") (float_str (Histogram.max_value h));
      put (name ^ ".p50") (float_str (Histogram.percentile h 0.50));
      put (name ^ ".p90") (float_str (Histogram.percentile h 0.90));
      put (name ^ ".p99") (float_str (Histogram.percentile h 0.99));
      Array.iter
        (fun (bound, cum) ->
          put
            (Printf.sprintf "%s.bucket.le_%s" name (bound_str bound))
            (string_of_int cum))
        (Histogram.buckets h))
    t.histograms;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !lines

let snapshot_string t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_char buf ' ';
      Buffer.add_string buf v;
      Buffer.add_char buf '\n')
    (snapshot t);
  Buffer.contents buf

let write_metrics t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (snapshot_string t))

let parse_snapshot s =
  String.split_on_char '\n' s
  |> List.filter (fun line -> line <> "")
  |> List.map (fun line ->
         match String.index_opt line ' ' with
         | None -> failwith ("Obs.parse_snapshot: malformed line: " ^ line)
         | Some i ->
             let k = String.sub line 0 i in
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             if k = "" || v = "" || String.contains v ' ' then
               failwith ("Obs.parse_snapshot: malformed line: " ^ line)
             else (k, v))

(* ------------------------------------------------------------------ *)
(* Trace export                                                        *)

let json_args args = Json.to_compact (Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args))

(* Chrome trace_event phases: async begin/end ("b"/"e") correlate
   overlapping spans by (cat, id); instants are "i"; flow start/finish
   ("s"/"f") draw cross-process arrows, again correlated by (cat, id). *)
let chrome_ph = function
  | Span_begin -> "b"
  | Span_end -> "e"
  | Instant -> "i"
  | Flow_start -> "s"
  | Flow_finish -> "f"

let chrome_event e =
  let base =
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":%d,\"tid\":0"
      (Json.escape e.ev_name) (Json.escape e.ev_cat) (chrome_ph e.ev_ph)
      (e.ev_ts *. 1000.0) (* virtual ms -> trace microseconds *)
      e.ev_node
  in
  let id = if e.ev_id = "" then "" else Printf.sprintf ",\"id\":\"%s\"" (Json.escape e.ev_id) in
  let scope =
    match e.ev_ph with
    | Instant -> ",\"s\":\"p\""
    (* Bind the arrow head to the enclosing slice's end, the convention
       Perfetto expects for terminating flow steps. *)
    | Flow_finish -> ",\"bp\":\"e\""
    | _ -> ""
  in
  let args = if e.ev_args = [] then "" else ",\"args\":" ^ json_args e.ev_args in
  base ^ id ^ scope ^ args ^ "}"

let write_trace_chrome t oc =
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let emit_line line =
    if !first then first := false else output_string oc ",\n";
    output_string oc line
  in
  let names =
    Hashtbl.fold (fun node name acc -> (node, name) :: acc) t.node_names []
    |> List.sort compare
  in
  List.iter
    (fun (node, name) ->
      emit_line
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           node (Json.escape name)))
    names;
  Vec.iter (fun e -> emit_line (chrome_event e)) t.trace;
  output_string oc "\n]}\n"

let phase_name = function
  | Span_begin -> "begin"
  | Span_end -> "end"
  | Instant -> "instant"
  | Flow_start -> "flow-start"
  | Flow_finish -> "flow-finish"

let write_trace_jsonl t oc =
  Vec.iter
    (fun e ->
      output_string oc
        (Printf.sprintf
           "{\"ts\":%.3f,\"ph\":\"%s\",\"cat\":\"%s\",\"name\":\"%s\",\"node\":%d,\"id\":\"%s\",\"args\":%s}\n"
           e.ev_ts (phase_name e.ev_ph) (Json.escape e.ev_cat)
           (Json.escape e.ev_name) e.ev_node (Json.escape e.ev_id)
           (json_args e.ev_args)))
    t.trace

let write_trace_file t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if Filename.check_suffix file ".jsonl" then write_trace_jsonl t oc
      else write_trace_chrome t oc)
