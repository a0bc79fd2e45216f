(* Local fleet supervision: spawn one [serve] process per manifest
   replica, wait until every listen socket accepts, and tear the fleet
   down cleanly (SIGTERM, bounded wait, SIGKILL fallback). The argv is
   caller-provided so both [iaccf] and the bench executable can respawn
   themselves as serve processes. *)

type child = { ch_id : int; ch_pid : int; ch_log : string }

(* Start one child with stdout/stderr redirected to [log]; its pid. *)
let spawn ~argv ~log =
  let log_fd =
    Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process argv.(0) argv null log_fd log_fd in
  Unix.close log_fd;
  Unix.close null;
  pid

let spawn_fleet ~(manifest : Manifest.t) ~serve_argv =
  List.map
    (fun (r : Manifest.replica_entry) ->
      let id = r.Manifest.id in
      let log =
        Filename.concat manifest.Manifest.dir
          (Printf.sprintf "replica-%d.log" id)
      in
      { ch_id = id; ch_pid = spawn ~argv:(serve_argv ~id) ~log; ch_log = log })
    manifest.Manifest.replicas

(* A replica is ready once its listen socket accepts a connection (the
   serve runtime binds before entering its loop, so accept implies the
   replica exists). *)
let addr_ready addr =
  let fd = Unix.socket (Addr.domain addr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Addr.sockaddr addr) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let wait_ready ?(timeout_ms = 10_000.0) (manifest : Manifest.t) =
  let deadline = Unix.gettimeofday () +. (timeout_ms /. 1000.0) in
  let rec go pending =
    match List.filter (fun (r : Manifest.replica_entry) ->
        not (addr_ready r.Manifest.addr)) pending with
    | [] -> true
    | pending ->
        if Unix.gettimeofday () > deadline then false
        else begin
          ignore (Unix.select [] [] [] 0.05);
          go pending
        end
  in
  go manifest.Manifest.replicas

let kill_quiet pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

let shutdown ?(grace_ms = 3_000.0) children =
  List.iter (fun c -> kill_quiet c.ch_pid Sys.sigterm) children;
  let deadline = Unix.gettimeofday () +. (grace_ms /. 1000.0) in
  let rec reap pending acc =
    match pending with
    | [] -> acc
    | _ when Unix.gettimeofday () > deadline ->
        (* grace expired: the hammer, then a blocking reap *)
        List.iter (fun c -> kill_quiet c.ch_pid Sys.sigkill) pending;
        List.fold_left
          (fun acc c ->
            match Unix.waitpid [] c.ch_pid with
            | _, st -> (c.ch_id, st) :: acc
            | exception Unix.Unix_error (ECHILD, _, _) ->
                (c.ch_id, Unix.WEXITED 0) :: acc)
          acc pending
    | _ ->
        let done_, still =
          List.partition_map
            (fun c ->
              match Unix.waitpid [ Unix.WNOHANG ] c.ch_pid with
              | 0, _ -> Right c
              | _, st -> Left (c.ch_id, st)
              | exception Unix.Unix_error (ECHILD, _, _) ->
                  Left (c.ch_id, Unix.WEXITED 0))
            pending
        in
        if still <> [] then ignore (Unix.select [] [] [] 0.02);
        reap still (done_ @ acc)
  in
  List.rev (reap children [])
