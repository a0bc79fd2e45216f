(* Bench-trajectory reporting: load the BENCH_*.json files the bench
   harness writes, flatten them into gated metric rows, render trend
   tables, and compare a current run against a committed baseline with
   per-metric tolerance — the regression gate behind `iaccf bench-report`
   and the @bench-regress alias.

   Every file uses the "rows/1" schema written by {!write_rows}: each row
   names its series and metric and carries its own gate tag.

   Gate semantics:
   - [Exact]  — counts and sizes that are fully seed-deterministic
                (transactions, signatures, bytes, chunks). Any change
                fails: these only move when the protocol moves.
   - [Ms]     — virtual-clock latencies. Deterministic too, but gated
                with a relative tolerance so a baseline survives benign
                scheduling-order changes; only the bad direction
                (slower) fails.
   - [Info]   — wall-clock-derived numbers (throughput, wall seconds).
                Reported in the trend table, never gated: they move with
                the machine, not the code. *)

module Json = Iaccf_util.Json

type gate = Exact | Ms | Info

let gate_to_string = function Exact -> "exact" | Ms -> "ms" | Info -> "info"

let gate_of_string = function
  | "exact" -> Some Exact
  | "ms" -> Some Ms
  | "info" -> Some Info
  | _ -> None

type row = {
  r_bench : string;
  r_series : string;  (* which run within the bench (a label / config) *)
  r_metric : string;
  r_value : float;
  r_gate : gate;
}

let row ~bench ~series ~metric ~gate value =
  { r_bench = bench; r_series = series; r_metric = metric;
    r_value = value; r_gate = gate }

let key r = (r.r_bench, r.r_series, r.r_metric)

(* ------------------------------------------------------------------ *)
(* Writing the explicit rows schema                                    *)

let json_str s = Printf.sprintf "\"%s\"" (Json.escape s)

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let write_rows ~file ~bench ?(meta = []) rows =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\n";
  Printf.fprintf oc "  \"bench\": %s,\n" (json_str bench);
  Printf.fprintf oc "  \"schema\": \"rows/1\",\n";
  List.iter
    (fun (k, v) -> Printf.fprintf oc "  %s: %s,\n" (json_str k) (json_str v))
    meta;
  output_string oc "  \"rows\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"series\": %s, \"metric\": %s, \"value\": %s, \"gate\": %s}%s\n"
        (json_str r.r_series) (json_str r.r_metric) (json_float r.r_value)
        (json_str (gate_to_string r.r_gate))
        (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n"

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)

exception Bad_file of string

let failf fmt = Printf.ksprintf (fun s -> raise (Bad_file s)) fmt

let num_of = function
  | Json.Num f -> f
  | Json.Null -> Float.nan (* the emitters write null for non-finite *)
  | j -> failf "expected a number, got %s" (Json.to_compact j)

let str_of = function
  | Json.Str s -> s
  | j -> failf "expected a string, got %s" (Json.to_compact j)

let member name obj =
  match Json.member name obj with
  | Some v -> v
  | None -> failf "missing field %S" name

let list_of = function
  | Json.Arr xs -> xs
  | j -> failf "expected an array, got %s" (Json.to_compact j)

let rows_of_json j =
  let bench = str_of (member "bench" j) in
  List.map
    (fun r ->
      let gate_s = str_of (member "gate" r) in
      let gate =
        match gate_of_string gate_s with
        | Some g -> g
        | None -> failf "unknown gate %S" gate_s
      in
      row ~bench
        ~series:(str_of (member "series" r))
        ~metric:(str_of (member "metric" r))
        ~gate
        (num_of (member "value" r)))
    (list_of (member "rows" j))

let load_file file =
  match Json.parse_file file with
  | Error e -> Error (Printf.sprintf "%s: %s" file e)
  | Ok j -> (
      try Ok (rows_of_json j)
      with Bad_file e -> Error (Printf.sprintf "%s: %s" file e))

(* Schema check: the file parses and flattens; used by @bench-regress so a
   bench emitting malformed JSON fails tier-1 even with no baseline. *)
let check_file file =
  match load_file file with
  | Ok rows when rows <> [] -> Ok (List.length rows)
  | Ok _ -> Error (Printf.sprintf "%s: no metric rows" file)
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

type verdict =
  | Pass
  | Regression of string
  | Missing  (** present in the baseline, absent from the current run *)
  | New  (** no baseline yet; informational *)

type comparison = {
  c_row : row;  (* current row (for Missing: the baseline row) *)
  c_base : float option;
  c_verdict : verdict;
}

let default_tolerance = 0.10

(* Absolute slack for ms gates: sub-0.05 ms shifts are below anything the
   latency model resolves, and it keeps near-zero baselines from turning
   the relative tolerance into an exact gate. *)
let ms_epsilon = 0.05

let judge ~tolerance ~base r =
  match r.r_gate with
  | Info -> Pass
  | Exact ->
      if base = r.r_value then Pass
      else
        Regression
          (Printf.sprintf "exact metric changed: %.6g -> %.6g" base r.r_value)
  | Ms ->
      let limit = (base *. (1.0 +. tolerance)) +. ms_epsilon in
      if r.r_value <= limit then Pass
      else
        Regression
          (Printf.sprintf "%.2f ms exceeds baseline %.2f ms by more than %.0f%%"
             r.r_value base (100.0 *. tolerance))

let compare_rows ?(tolerance = default_tolerance) ~baseline ~current () =
  let base_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace base_tbl (key r) r) baseline;
  let seen = Hashtbl.create 64 in
  let out =
    List.map
      (fun r ->
        Hashtbl.replace seen (key r) ();
        match Hashtbl.find_opt base_tbl (key r) with
        | None -> { c_row = r; c_base = None; c_verdict = New }
        | Some b ->
            {
              c_row = r;
              c_base = Some b.r_value;
              c_verdict = judge ~tolerance ~base:b.r_value r;
            })
      current
  in
  (* A gated metric that vanished is a regression: a bench silently
     dropping a row must not pass the gate. *)
  let missing =
    List.filter_map
      (fun b ->
        if Hashtbl.mem seen (key b) || b.r_gate = Info then None
        else Some { c_row = b; c_base = Some b.r_value; c_verdict = Missing })
      baseline
  in
  out @ missing

let regressions comparisons =
  List.filter
    (fun c ->
      match c.c_verdict with Regression _ | Missing -> true | Pass | New -> false)
    comparisons

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let verdict_cell = function
  | Pass -> "ok"
  | New -> "new"
  | Missing -> "MISSING"
  | Regression _ -> "REGRESSED"

let render_trend rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %-28s %-26s %12s %6s\n" "bench" "series" "metric"
       "value" "gate");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-24s %-28s %-26s %12.6g %6s\n" r.r_bench r.r_series
           r.r_metric r.r_value
           (gate_to_string r.r_gate)))
    rows;
  Buffer.contents buf

(* The trajectory view groups the flat row list into one section per
   bench with series as columns, so a metric's movement across
   configurations (or across PRs, when several BENCH_*.json files are
   aggregated) reads left to right on a single line. *)
let uniq xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let render_trajectory rows =
  let buf = Buffer.create 1024 in
  let benches = uniq (List.map (fun r -> r.r_bench) rows) in
  Buffer.add_string buf
    (Printf.sprintf "%d bench(es), %d series, %d metric rows\n"
       (List.length benches)
       (List.length (uniq (List.map (fun r -> (r.r_bench, r.r_series)) rows)))
       (List.length rows));
  List.iter
    (fun bench ->
      let brows = List.filter (fun r -> r.r_bench = bench) rows in
      let series = uniq (List.map (fun r -> r.r_series) brows) in
      let metrics = uniq (List.map (fun r -> (r.r_metric, r.r_gate)) brows) in
      let w =
        List.fold_left (fun acc s -> max acc (String.length s)) 12 series
      in
      Buffer.add_string buf
        (Printf.sprintf "\n== %s (%d series, %d metrics)\n" bench
           (List.length series) (List.length metrics));
      Buffer.add_string buf (Printf.sprintf "%-26s %6s" "metric" "gate");
      List.iter
        (fun s -> Buffer.add_string buf (Printf.sprintf "  %*s" w s))
        series;
      Buffer.add_char buf '\n';
      List.iter
        (fun (metric, gate) ->
          Buffer.add_string buf
            (Printf.sprintf "%-26s %6s" metric (gate_to_string gate));
          List.iter
            (fun s ->
              let cell =
                match
                  List.find_opt
                    (fun r -> r.r_series = s && r.r_metric = metric)
                    brows
                with
                | Some r -> Printf.sprintf "%.6g" r.r_value
                | None -> "-"
              in
              Buffer.add_string buf (Printf.sprintf "  %*s" w cell))
            series;
          Buffer.add_char buf '\n')
        metrics)
    benches;
  Buffer.contents buf

let render_comparison comparisons =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %-28s %-26s %12s %12s %9s\n" "bench" "series"
       "metric" "baseline" "current" "verdict");
  List.iter
    (fun c ->
      let r = c.c_row in
      Buffer.add_string buf
        (Printf.sprintf "%-24s %-28s %-26s %12s %12s %9s\n" r.r_bench r.r_series
           r.r_metric
           (match c.c_base with Some b -> Printf.sprintf "%.6g" b | None -> "-")
           (match c.c_verdict with
           | Missing -> "-"
           | _ -> Printf.sprintf "%.6g" r.r_value)
           (verdict_cell c.c_verdict));
      match c.c_verdict with
      | Regression why ->
          Buffer.add_string buf (Printf.sprintf "    ^ %s\n" why)
      | _ -> ())
    comparisons;
  Buffer.contents buf
