(* One background domain that runs jobs in the order they were submitted.
   A submit that finds no worker spawns one, and the worker ends once it
   has waited [idle_s] for a job in vain, so a program that stopped
   submitting runs on one domain again. The worker ends, and a submit
   spawns one, only under the lock: while a job is queued, a worker
   exists. An idle worker waits on a pipe that the next submit writes a
   byte to, since the stdlib's condition variables have no timed wait. A
   job sets its pending cell and signals [finished] under the lock;
   [await] waits on it for that cell. *)

type 'a state = Waiting | Done of 'a | Failed of exn * Printexc.raw_backtrace
type 'a pending = { mutable state : 'a state }

let idle_s = 0.05
let lock = Mutex.create ()
let finished = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let worker : Domain.id option ref = ref None
let sleeping = ref false (* the worker waits on the pipe *)
let wake_r, wake_w = Unix.pipe ~cloexec:true ()
let () = Unix.set_nonblock wake_r

(* Wait for a byte on the pipe, at most [idle_s], and take it. *)
let wait_for_job () =
  match Unix.select [ wake_r ] [] [] idle_s with
  | [], _, _ -> ()
  | _ -> ignore (Unix.read wake_r (Bytes.create 1) 0 1)
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()

let rec loop ~waited =
  Mutex.lock lock;
  sleeping := false;
  match Queue.take_opt queue with
  | Some job ->
      Mutex.unlock lock;
      job ();
      loop ~waited:false
  | None when waited ->
      worker := None;
      Mutex.unlock lock
  | None ->
      sleeping := true;
      Mutex.unlock lock;
      wait_for_job ();
      loop ~waited:true

let submit f =
  let p = { state = Waiting } in
  let job () =
    let r = match f () with v -> Done v | exception e -> Failed (e, Printexc.get_raw_backtrace ()) in
    Mutex.lock lock;
    p.state <- r;
    Condition.broadcast finished;
    Mutex.unlock lock
  in
  Mutex.lock lock;
  Queue.push job queue;
  if !worker = None then
    worker := Some (Domain.get_id (Domain.spawn (fun () -> loop ~waited:false)));
  let wake = !sleeping in
  sleeping := false;
  Mutex.unlock lock;
  if wake then ignore (Unix.single_write_substring wake_w "j" 0 1);
  p

let ready v = { state = Done v }

let await p =
  Mutex.lock lock;
  let rec wait () =
    match p.state with
    | Waiting ->
        Condition.wait finished lock;
        wait ()
    | state -> state
  in
  let state = wait () in
  Mutex.unlock lock;
  match state with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Waiting -> assert false

let drain () =
  Mutex.lock lock;
  let idle = !worker = None in
  Mutex.unlock lock;
  if not idle then await (submit Fun.id)

(* A job still queued at exit may be writing a file: let it finish. *)
let () = at_exit drain
