type t = Unix_sock of string | Tcp of string * int

let to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "address %S: expected unix:PATH or tcp:HOST:PORT" s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" when rest <> "" -> Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "address %S: tcp needs HOST:PORT" s)
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
              | _ -> Error (Printf.sprintf "address %S: bad port %S" s port)))
      | _ -> Error (Printf.sprintf "address %S: unknown scheme %S" s scheme))

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found ->
            invalid_arg (Printf.sprintf "cannot resolve host %S" host))
      in
      Unix.ADDR_INET (ip, port)

let domain = function
  | Unix_sock _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

(* Bind cleanup: a stale unix-socket file from a killed process blocks
   the next bind; remove it first (the supervisor owns the directory). *)
let prepare_bind = function
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
