(** File I/O shared by the store, audit packages and snapshots. *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte of the string at the descriptor's position. *)

val read_file : string -> string
(** The whole file. @raise Sys_error if it cannot be opened or read. *)

val fsync_dir : string -> unit
(** fsync a directory so that renames and unlinks in it are durable; a
    directory that cannot be opened or synced is skipped. *)

val write_atomic : string -> string -> unit
(** [write_atomic path data] writes [data] to [path ^ ".tmp"], fsyncs it,
    renames it over [path] and fsyncs the directory: after a crash [path]
    holds either its old bytes or all of [data], never a torn file.
    @raise Unix.Unix_error if the file cannot be written. *)
