(** Socket addresses for the transport: [unix:PATH] or [tcp:HOST:PORT]. *)

type t = Unix_sock of string | Tcp of string * int

val to_string : t -> string
val of_string : string -> (t, string) result

val sockaddr : t -> Unix.sockaddr
(** Resolve to a [Unix.sockaddr] (TCP hostnames resolved here).
    @raise Invalid_argument if the host cannot be resolved. *)

val domain : t -> Unix.socket_domain

val prepare_bind : t -> unit
(** Remove a stale unix-socket file before binding; no-op for TCP. *)
