(* Hashtbl + intrusive doubly-linked recency list; all operations O(1). *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  cap : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option; (* most recent *)
  mutable tail : ('k, 'v) node option; (* least recent *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  {
    cap = capacity;
    tbl = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.value

let put t k v =
  if t.cap > 0 then begin
    (match Hashtbl.find_opt t.tbl k with
    | Some n ->
        n.value <- v;
        unlink t n;
        push_front t n
    | None ->
        let n = { key = k; value = v; prev = None; next = None } in
        Hashtbl.replace t.tbl k n;
        push_front t n);
    if Hashtbl.length t.tbl > t.cap then
      match t.tail with
      | Some lru ->
          unlink t lru;
          Hashtbl.remove t.tbl lru.key
      | None -> assert false
  end
