(* Per-operation crypto cost accounting (Table 3's "where do the cycles
   go"). Every sign/verify/MAC on a replica's hot path is recorded here,
   keyed by operation, the message class that demanded it, and which kind
   of principal's key was involved — client keys (request signatures) vs
   replica keys (protocol signatures). The virtual clock makes compute
   free, so costs are measured on a wall clock the caller supplies
   (defaulting to CPU time); the registry is instance-scoped so parallel
   runs do not bleed into each other.

   The breakdown shows how much of the budget is client-signature
   verification (the paper's dominant row) and how much is amortized
   per-batch protocol crypto. *)

(* [Apply] is the one non-crypto row: request execution against the KV
   store, recorded so the critical-path overlay can compare crypto cost
   against apply cost in the same table. *)
type op = Sign | Verify | Mac | Apply

type principal = Client_key | Replica_key

let op_to_string = function
  | Sign -> "sign"
  | Verify -> "verify"
  | Mac -> "mac"
  | Apply -> "apply"

let principal_to_string = function
  | Client_key -> "client"
  | Replica_key -> "replica"

type cell = { mutable count : int; mutable wall_s : float }

type t = {
  enabled : bool;
  wall : unit -> float;
  cells : (op * string * principal, cell) Hashtbl.t;
  mutable started_at : float;
}

let create ?(enabled = true) ?(wall = Sys.time) () =
  { enabled; wall; cells = Hashtbl.create 32; started_at = wall () }

let disabled = create ~enabled:false ~wall:(fun () -> 0.0) ()

let enabled t = t.enabled

let cell t key =
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
      let c = { count = 0; wall_s = 0.0 } in
      Hashtbl.replace t.cells key c;
      c

(* Record one operation that another domain may have made ahead of the
   call: [f] returns the result and, when the work was made there, what
   it took there on this profiler's clock. That is charged instead of
   [f]'s own time, which was then only a wait for the result. *)
let time_ahead t op ~cls principal f =
  if not t.enabled then fst (f ())
  else begin
    let t0 = t.wall () in
    let result, took = f () in
    let c = cell t (op, cls, principal) in
    c.count <- c.count + 1;
    c.wall_s <- c.wall_s +. (match took with Some s -> s | None -> t.wall () -. t0);
    result
  end

(* Record one operation: runs [f], charging its wall time to
   (op, cls, principal). Disabled profilers run [f] with zero overhead
   beyond the branch. *)
let time t op ~cls principal f =
  if not t.enabled then f () else time_ahead t op ~cls principal (fun () -> (f (), None))

(* The clock to time work made on another domain with, for [time_ahead];
   [None] when the profiler is disabled. *)
let clock t = if t.enabled then Some t.wall else None

type row = {
  r_op : op;
  r_cls : string;
  r_principal : principal;
  r_count : int;
  r_wall_s : float;
}

(* Rows sorted by wall time spent, descending; ties broken by key so the
   rendering is deterministic. *)
let rows t =
  Hashtbl.fold
    (fun (op, cls, principal) c acc ->
      { r_op = op; r_cls = cls; r_principal = principal;
        r_count = c.count; r_wall_s = c.wall_s }
      :: acc)
    t.cells []
  |> List.sort (fun a b ->
         match Float.compare b.r_wall_s a.r_wall_s with
         | 0 ->
             compare
               (a.r_op, a.r_cls, a.r_principal)
               (b.r_op, b.r_cls, b.r_principal)
         | c -> c)

let total_wall_s t =
  Hashtbl.fold (fun _ c acc -> acc +. c.wall_s) t.cells 0.0

let total_count t = Hashtbl.fold (fun _ c acc -> acc + c.count) t.cells 0

let elapsed_s t = t.wall () -. t.started_at

let reset t =
  Hashtbl.reset t.cells;
  t.started_at <- t.wall ()

(* Table-3-shaped rendering: one row per (operation, message class,
   principal kind), dominant cost first. *)
let render t =
  let buf = Buffer.create 512 in
  let total = total_wall_s t in
  Buffer.add_string buf
    (Printf.sprintf "%-8s %-14s %-9s %10s %12s %10s %7s\n" "op" "class"
       "principal" "count" "wall ms" "us/op" "share");
  List.iter
    (fun r ->
      let us_per_op =
        if r.r_count = 0 then 0.0 else r.r_wall_s *. 1e6 /. float_of_int r.r_count
      in
      let share = if total > 0.0 then 100.0 *. r.r_wall_s /. total else 0.0 in
      Buffer.add_string buf
        (Printf.sprintf "%-8s %-14s %-9s %10d %12.3f %10.2f %6.1f%%\n"
           (op_to_string r.r_op) r.r_cls
           (principal_to_string r.r_principal)
           r.r_count (r.r_wall_s *. 1000.0) us_per_op share))
    (rows t);
  Buffer.add_string buf
    (Printf.sprintf "%-8s %-14s %-9s %10d %12.3f\n" "total" "" ""
       (total_count t) (total *. 1000.0));
  Buffer.contents buf
