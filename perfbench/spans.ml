(* Benchmark-side tracing: wall-clock spans around each call the
   benchmark makes into a layer, kept in memory and written out as one
   Chrome trace_event file when the run ends. A disabled recorder runs
   the wrapped call after one branch, so the untraced run that yields
   the end-to-end figures pays nothing for it. *)

type span = {
  s_id : int;
  s_name : string;
  s_start_us : float;
  s_dur_us : float;
  s_parent : int;  (* id of the enclosing span; -1 at top level *)
}

type t = {
  enabled : bool;
  origin : float;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable stack : int list;  (* ids of the open spans, innermost first *)
  totals : (string, float ref * int ref) Hashtbl.t;  (* self-inclusive us *)
}

let create ~enabled () =
  {
    enabled;
    origin = Unix.gettimeofday ();
    spans = [];
    next_id = 0;
    stack = [];
    totals = Hashtbl.create 16;
  }

let now_us t = (Unix.gettimeofday () -. t.origin) *. 1e6

let record t ~id ~name ~start_us ~dur_us ~parent =
  t.spans <-
    { s_id = id; s_name = name; s_start_us = start_us; s_dur_us = dur_us; s_parent = parent }
    :: t.spans;
  let total, n =
    match Hashtbl.find_opt t.totals name with
    | Some cell -> cell
    | None ->
        let cell = (ref 0.0, ref 0) in
        Hashtbl.replace t.totals name cell;
        cell
  in
  total := !total +. dur_us;
  incr n

(* Run [f] inside a span named [name]. *)
let wrap t name f =
  if not t.enabled then f ()
  else begin
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let id = t.next_id in
    t.next_id <- id + 1;
    t.stack <- id :: t.stack;
    let start_us = now_us t in
    Fun.protect
      ~finally:(fun () ->
        t.stack <- List.tl t.stack;
        let dur_us = now_us t -. start_us in
        record t ~id ~name ~start_us ~dur_us ~parent)
      f
  end

(* Total wall microseconds and call count recorded under [name]. *)
let total_us t name =
  match Hashtbl.find_opt t.totals name with Some (us, _) -> !us | None -> 0.0

let calls t name =
  match Hashtbl.find_opt t.totals name with Some (_, n) -> !n | None -> 0

let mean_us t name =
  let n = calls t name in
  if n = 0 then 0.0 else total_us t name /. float_of_int n

let spans t = List.rev t.spans

(* Chrome trace_event "complete" events, one per span. *)
let write_chrome t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d}}"
        s.s_name s.s_start_us s.s_dur_us s.s_id s.s_parent)
    (spans t);
  output_string oc "\n]}\n"
