module Obs = Iaccf_obs.Obs

type result = {
  r_scenario : string;
  r_suite : string;
  r_seed : int;
  r_verdict : Oracle.verdict;
  r_metrics : (string * string) list;
  r_wall_s : float;
}

let ok r = Result.is_ok r.r_verdict.Oracle.vd_result

let reproducer r =
  Printf.sprintf "iaccf chaos --suite %s --scenario %s --seeds %d..%d" r.r_suite
    r.r_scenario r.r_seed r.r_seed

(* The cell's view changes, by why each started: every view change a
   replica starts counts one replica.vc.cause.<cause>. *)
let view_changes r =
  let causes =
    List.filter_map
      (fun (k, v) ->
        match String.split_on_char '.' k with
        | [ "replica"; "vc"; "cause"; c ] -> Some (c, int_of_string v)
        | _ -> None)
      r.r_metrics
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 causes in
  if causes = [] then Printf.sprintf "vc=%d" total
  else
    Printf.sprintf "vc=%d (%s)" total
      (String.concat " " (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) causes))

let describe r =
  match r.r_verdict.Oracle.vd_result with
  | Ok summary ->
      Printf.sprintf "PASS %-32s seed=%-4d %s, %s" r.r_scenario r.r_seed summary
        (view_changes r)
  | Error violation ->
      Printf.sprintf "FAIL %-32s seed=%-4d %s, %s\n  reproduce: %s" r.r_scenario
        r.r_seed violation (view_changes r) (reproducer r)

(* --- scratch directories (package exports, durable stores) --- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let scratch_dir (sc : Scenario.t) ~seed =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "iaccf-chaos-%d-%s-%d" (Unix.getpid ()) sc.Scenario.sc_name
         seed)
  in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

(* --- single run: scenario(seed) -> oracle verdict + obs snapshot --- *)

let run_one (sc : Scenario.t) ~seed =
  let scratch = scratch_dir sc ~seed in
  let t0 = Unix.gettimeofday () in
  let verdict, metrics =
    match sc.Scenario.sc_run ~seed ~scratch with
    | outcome ->
        ( Oracle.check sc ~seed ~scratch outcome,
          Obs.snapshot outcome.Scenario.oc_obs )
    | exception e ->
        ( {
            Oracle.vd_scenario = sc.Scenario.sc_name;
            vd_seed = seed;
            vd_result =
              Error (Printf.sprintf "scenario raised: %s" (Printexc.to_string e));
          },
          [] )
  in
  rm_rf scratch;
  {
    r_scenario = sc.Scenario.sc_name;
    r_suite = Scenario.suite_name sc.Scenario.sc_suite;
    r_seed = seed;
    r_verdict = verdict;
    r_metrics = metrics;
    r_wall_s = Unix.gettimeofday () -. t0;
  }

(* --- seed sweep, parallel over domains --- *)

let default_jobs () = min 4 (max 1 (Domain.recommended_domain_count () - 1))

let sweep ?(jobs = default_jobs ()) ~scenarios ~seeds () =
  let matrix =
    Array.of_list
      (List.concat_map (fun sc -> List.map (fun s -> (sc, s)) seeds) scenarios)
  in
  let n = Array.length matrix in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let sc, seed = matrix.(i) in
        results.(i) <- Some (run_one sc ~seed);
        loop ()
      end
    in
    loop ()
  in
  let jobs = max 1 (min jobs n) in
  let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  Array.to_list results |> List.filter_map Fun.id

let failures results = List.filter (fun r -> not (ok r)) results

let seed_range spec =
  match String.index_opt spec '.' with
  | None ->
      let s = int_of_string (String.trim spec) in
      [ s ]
  | Some _ -> (
      match String.split_on_char '.' spec with
      | [ a; ""; b ] | [ a; b ] ->
          let a = int_of_string (String.trim a)
          and b = int_of_string (String.trim b) in
          if b < a then invalid_arg "seed range: end before start"
          else List.init (b - a + 1) (fun i -> a + i)
      | _ -> invalid_arg "seed range: expected A..B")
