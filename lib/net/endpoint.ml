(* Socket endpoint: one process's window onto the fleet.

   A [Unix.select]-based event loop (the stdlib has no poll(2) binding)
   owning a listen socket, one outbound connection per manifest peer, and
   any number of accepted connections. Everything is nonblocking: reads
   come in arbitrary-sized chunks and go through the incremental frame
   decoder; writes drain per-connection queues as far as the kernel
   accepts and keep a head offset for the short-write remainder.

   Routing: manifest peers (replica ids) are dialled actively with
   exponential-backoff retry; every other address — clients, observers —
   is reached by a learned return route (the transport records which
   connection an envelope's source arrived on). A destination with
   neither is dropped and counted ([net.dropped.no_route]), as is a frame
   for a peer inside its dial backoff window ([net.dropped.backoff]), one
   that finds the connection's queue full ([net.dropped.queue_full]), and
   every frame still queued when a connection dies
   ([net.dropped.conn_lost]; the death itself counts under
   [net.sock.closed.<cause>]): the protocol layer above owns
   retransmission, the transport never blocks on a corpse. *)

module Obs = Iaccf_obs.Obs

let chunk = 65536

type conn = {
  fd : Unix.file_descr;
  mutable peer_id : int option; (* manifest peer dialled, if outbound *)
  decoder : Framing.t;
  outq : string Queue.t; (* framed bytes awaiting the kernel *)
  mutable out_off : int; (* bytes of the queue head already written *)
  mutable connecting : bool; (* nonblocking connect still in flight *)
  mutable dead : bool;
}

type peer = {
  p_id : int;
  p_addr : Addr.t;
  mutable p_conn : conn option;
  mutable p_retry_at : float; (* wall seconds; next dial attempt *)
  mutable p_backoff : float;
  p_queue_gauge : Obs.gauge;
}

type t = {
  obs : Obs.t;
  mutable listen_fd : Unix.file_descr option;
  peers : (int, peer) Hashtbl.t;
  mutable conns : conn list; (* every live conn, accepted or dialled *)
  routes : (int, conn) Hashtbl.t; (* learned src address -> conn *)
  mutable on_frame : conn -> string -> unit;
  c_bytes_in : Obs.counter;
  c_bytes_out : Obs.counter;
  c_frames_in : Obs.counter;
  c_frames_out : Obs.counter;
  c_accepted : Obs.counter;
  c_connect_retries : Obs.counter;
  c_dropped_backoff : Obs.counter;
  c_dropped_queue_full : Obs.counter;
  c_dropped_conn_lost : Obs.counter;
  c_dropped_no_route : Obs.counter;
  c_dropped_garbage : Obs.counter;
}

(* Bound on each connection's outbound frame queue. *)
let queue_cap = 8192
let initial_backoff = 0.05
let max_backoff = 1.0

let create ?obs ?listen () =
  (* A peer dying mid-write must surface as EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let obs = match obs with Some o -> o | None -> Obs.passive () in
  let listen_fd =
    Option.map
      (fun addr ->
        Addr.prepare_bind addr;
        let fd = Unix.socket (Addr.domain addr) Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.set_nonblock fd;
        Unix.bind fd (Addr.sockaddr addr);
        Unix.listen fd 64;
        fd)
      listen
  in
  {
    obs;
    listen_fd;
    peers = Hashtbl.create 8;
    conns = [];
    routes = Hashtbl.create 16;
    on_frame = (fun _ _ -> ());
    c_bytes_in = Obs.counter obs "net.sock.bytes_in";
    c_bytes_out = Obs.counter obs "net.sock.bytes_out";
    c_frames_in = Obs.counter obs "net.sock.frames_in";
    c_frames_out = Obs.counter obs "net.sock.frames_out";
    c_accepted = Obs.counter obs "net.sock.accepted";
    c_connect_retries = Obs.counter obs "net.sock.connect_retries";
    c_dropped_backoff = Obs.counter obs "net.dropped.backoff";
    c_dropped_queue_full = Obs.counter obs "net.dropped.queue_full";
    c_dropped_conn_lost = Obs.counter obs "net.dropped.conn_lost";
    c_dropped_no_route = Obs.counter obs "net.dropped.no_route";
    c_dropped_garbage = Obs.counter obs "net.dropped.garbage";
  }

let set_on_frame t f = t.on_frame <- f

let add_peer t ~id addr =
  Hashtbl.replace t.peers id
    {
      p_id = id;
      p_addr = addr;
      p_conn = None;
      p_retry_at = 0.0;
      p_backoff = initial_backoff;
      p_queue_gauge = Obs.gauge t.obs (Printf.sprintf "net.sock.queue.%d" id);
    }

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let peer_of_conn t c =
  match c.peer_id with None -> None | Some id -> Hashtbl.find_opt t.peers id

(* Tear a connection down, counting why under [net.sock.closed.<cause>].
   Frames still queued on it are gone — count them rather than pretend
   they were sent. *)
let kill_conn t c ~cause =
  if not c.dead then begin
    c.dead <- true;
    Obs.incr (Obs.counter t.obs ("net.sock.closed." ^ cause));
    Obs.add t.c_dropped_conn_lost (Queue.length c.outq);
    close_fd c.fd;
    t.conns <- List.filter (fun c' -> c' != c) t.conns;
    Hashtbl.iter
      (fun src c' -> if c' == c then Hashtbl.remove t.routes src)
      (Hashtbl.copy t.routes);
    match peer_of_conn t c with
    | Some p ->
        p.p_conn <- None;
        p.p_retry_at <- Unix.gettimeofday () +. p.p_backoff;
        p.p_backoff <- Float.min max_backoff (p.p_backoff *. 2.0);
        Obs.set_gauge p.p_queue_gauge 0.0
    | None -> ()
  end

let new_conn ?peer_id fd =
  Unix.set_nonblock fd;
  {
    fd;
    peer_id;
    decoder = Framing.create ();
    outq = Queue.create ();
    out_off = 0;
    connecting = false;
    dead = false;
  }

let dial t p =
  let fd = Unix.socket (Addr.domain p.p_addr) Unix.SOCK_STREAM 0 in
  let c = new_conn ~peer_id:p.p_id fd in
  (match p.p_addr with Addr.Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true | _ -> ());
  match Unix.connect fd (Addr.sockaddr p.p_addr) with
  | () ->
      p.p_conn <- Some c;
      p.p_backoff <- initial_backoff;
      t.conns <- c :: t.conns
  | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _) ->
      c.connecting <- true;
      p.p_conn <- Some c;
      t.conns <- c :: t.conns
  | exception Unix.Unix_error _ ->
      close_fd fd;
      Obs.incr t.c_connect_retries;
      p.p_retry_at <- Unix.gettimeofday () +. p.p_backoff;
      p.p_backoff <- Float.min max_backoff (p.p_backoff *. 2.0)

let ensure_dialled t p =
  match p.p_conn with
  | Some _ -> ()
  | None -> if Unix.gettimeofday () >= p.p_retry_at then dial t p

let enqueue t p_gauge c framed =
  if Queue.length c.outq >= queue_cap then Obs.incr t.c_dropped_queue_full
  else begin
    Queue.push framed c.outq;
    match p_gauge with
    | Some g -> Obs.set_gauge g (float_of_int (Queue.length c.outq))
    | None -> ()
  end

let send t ~dst payload =
  let framed = Framing.encode payload in
  match Hashtbl.find_opt t.peers dst with
  | Some p -> (
      ensure_dialled t p;
      match p.p_conn with
      | Some c -> enqueue t (Some p.p_queue_gauge) c framed
      | None ->
          (* dial refused and we are inside the backoff window *)
          Obs.incr t.c_dropped_backoff)
  | None -> (
      match Hashtbl.find_opt t.routes dst with
      | Some c when not c.dead -> enqueue t None c framed
      | Some _ | None -> Obs.incr t.c_dropped_no_route)

let learn_route t ~src c = Hashtbl.replace t.routes src c

let pending_out t =
  List.fold_left (fun acc c -> acc + Queue.length c.outq) 0 t.conns

(* --- event loop ------------------------------------------------------ *)

let handle_accept t fd =
  match Unix.accept fd with
  | afd, _ ->
      Obs.incr t.c_accepted;
      (try Unix.setsockopt afd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      t.conns <- new_conn afd :: t.conns
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> ()

let handle_read t c =
  let buf = Bytes.create chunk in
  match Unix.read c.fd buf 0 chunk with
  | 0 -> kill_conn t c ~cause:"eof"
  | n ->
      Obs.add t.c_bytes_in n;
      Framing.feed c.decoder (Bytes.sub_string buf 0 n);
      let continue = ref true in
      while !continue && not c.dead do
        match Framing.next c.decoder with
        | `Frame payload ->
            Obs.incr t.c_frames_in;
            t.on_frame c payload
        | `Need_more -> continue := false
        | `Corrupt _ ->
            (* Boundaries are lost: everything else on this connection is
               unreadable. Drop it; a manifest peer will be redialled. *)
            Obs.incr t.c_dropped_garbage;
            kill_conn t c ~cause:"garbage";
            continue := false
      done
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> kill_conn t c ~cause:"read_error"

let handle_write t c =
  if c.connecting then begin
    c.connecting <- false;
    match Unix.getsockopt_error c.fd with
    | None -> (
        match peer_of_conn t c with
        | Some p -> p.p_backoff <- initial_backoff
        | None -> ())
    | Some _ ->
        Obs.incr t.c_connect_retries;
        kill_conn t c ~cause:"connect_failed"
  end;
  let continue = ref true in
  while !continue && (not c.dead) && not (Queue.is_empty c.outq) do
    let head = Queue.peek c.outq in
    let len = String.length head - c.out_off in
    match Unix.write_substring c.fd head c.out_off len with
    | n ->
        Obs.add t.c_bytes_out n;
        if n = len then begin
          ignore (Queue.pop c.outq);
          c.out_off <- 0;
          Obs.incr t.c_frames_out;
          match peer_of_conn t c with
          | Some p ->
              Obs.set_gauge p.p_queue_gauge (float_of_int (Queue.length c.outq))
          | None -> ()
        end
        else begin
          (* short write: the kernel buffer is full, come back later *)
          c.out_off <- c.out_off + n;
          continue := false
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        continue := false
    | exception Unix.Unix_error _ ->
        kill_conn t c ~cause:"write_error";
        continue := false
  done

let poll t ~timeout_ms =
  Hashtbl.iter (fun _ p -> ensure_dialled t p) t.peers;
  let reads =
    (match t.listen_fd with Some fd -> [ fd ] | None -> [])
    @ List.filter_map
        (fun c -> if c.connecting then None else Some c.fd)
        t.conns
  in
  let writes =
    List.filter_map
      (fun c ->
        if c.connecting || not (Queue.is_empty c.outq) then Some c.fd else None)
      t.conns
  in
  let timeout = Float.max 0.0 (timeout_ms /. 1000.0) in
  match Unix.select reads writes [] timeout with
  | rs, ws, _ ->
      List.iter
        (fun fd ->
          match t.listen_fd with
          | Some lfd when fd = lfd -> handle_accept t fd
          | _ -> (
              match List.find_opt (fun c -> c.fd = fd) t.conns with
              | Some c -> handle_read t c
              | None -> ()))
        rs;
      List.iter
        (fun fd ->
          match List.find_opt (fun c -> c.fd = fd) t.conns with
          | Some c -> handle_write t c
          | None -> ())
        ws
  | exception Unix.Unix_error (EINTR, _, _) -> ()

(* Best-effort flush of queued output before exit (bounded by wall time):
   a serve process sends its final replies, a driver its last requests. *)
let drain t ~timeout_ms =
  let deadline = Unix.gettimeofday () +. (timeout_ms /. 1000.0) in
  while pending_out t > 0 && Unix.gettimeofday () < deadline do
    poll t ~timeout_ms:10.0
  done

let close t =
  (match t.listen_fd with Some fd -> close_fd fd | None -> ());
  t.listen_fd <- None;
  List.iter (fun c -> close_fd c.fd) t.conns;
  t.conns <- [];
  Hashtbl.reset t.routes;
  Hashtbl.iter (fun _ p -> p.p_conn <- None) t.peers
