(** Local fleet supervision for [iaccf cluster] and the socket bench:
    spawn one serve process per manifest replica, wait for their listen
    sockets, tear down with SIGTERM and a SIGKILL fallback. *)

type child = { ch_id : int; ch_pid : int; ch_log : string }

val spawn_fleet :
  manifest:Manifest.t -> serve_argv:(id:int -> string array) -> child list
(** One child per manifest replica, logging to
    [<dir>/replica-<id>.log]. [serve_argv] builds each child's argv
    (e.g. [iaccf serve --manifest M --id N]). *)

val wait_ready : ?timeout_ms:float -> Manifest.t -> bool
(** Poll until every replica's listen socket accepts a connection;
    [false] on timeout (default 10 s). *)

val shutdown : ?grace_ms:float -> child list -> (int * Unix.process_status) list
(** SIGTERM each child, wait up to [grace_ms] (default 3 s) for clean
    exits, SIGKILL stragglers; returns each child's exit status. *)
