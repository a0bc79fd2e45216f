module Entry = Iaccf_ledger.Entry
module Ledger = Iaccf_ledger.Ledger
module Tree = Iaccf_merkle.Tree
module Codec = Iaccf_util.Codec
module Vec = Iaccf_util.Vec
module D = Iaccf_crypto.Digest32
module Obs = Iaccf_obs.Obs
module Worker = Iaccf_util.Worker

exception Storage_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Storage_error s)) fmt

type fsync_policy = No_fsync | Fsync_always | Fsync_interval of int

type config = {
  dir : string;
  segment_bytes : int;
  fsync : fsync_policy;
}

let default_config ~dir =
  { dir; segment_bytes = 1 lsl 20; fsync = Fsync_interval 64 }

type recovery_info = {
  ri_segments : int;
  ri_entries : int;
  ri_torn_frames : int;
  ri_torn_bytes : int;
  ri_root_verified : bool;
}

(* Where each entry lives: its segment (named by first index) and the
   frame's offset and on-disk length. *)
type slot = { s_seg : int; s_off : int; s_len : int }

type t = {
  cfg : config;
  readonly : bool;
  obs : Obs.t;
  owner : int; (* trace-event node id (e.g. the owning replica) *)
  c_appends : Obs.counter;
  c_append_bytes : Obs.counter;
  c_fsyncs : Obs.counter;
  c_truncates : Obs.counter;
  slots : slot Vec.t; (* entries [base, base + length), in order *)
  mutable base : int; (* first on-disk entry index (> 0 after a prune) *)
  recovered_m : int * D.t; (* M's size and root over the entries found on open *)
  mutable ledger : Ledger.t option;
      (* the attached ledger: the one copy of M, and where [sync] takes the
         root it records *)
  mutable tail_first : int;  (* first index of the open tail segment *)
  mutable tail_fd : Unix.file_descr option;
  mutable tail_size : int;
  mutable seg_count : int;
  mutable disk : int;
  mutable unsynced : int;
  mutable syncing : unit Worker.pending option;  (* the interval sync in flight *)
  mutable closed : bool;
  recovered : recovery_info;
}

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)

let seg_name first = Printf.sprintf "segment-%016d.iaccf" first
let seg_path t first = Filename.concat t.cfg.dir (seg_name first)
let root_path dir = Filename.concat dir "root.iaccf"
let prune_path dir = Filename.concat dir "prune.iaccf"
let audit_package_name = "audit-prefix.iapkg"
let audit_package_path dir = Filename.concat dir audit_package_name

let parse_seg_name name =
  match String.length name = 30 && String.sub name 0 8 = "segment-"
        && Filename.check_suffix name ".iaccf"
  with
  | true -> int_of_string_opt (String.sub name 8 16)
  | false -> None
  | exception _ -> None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Root-of-trust file: the durably promised (length, Merkle root)      *)

let root_magic = "IACCF-ROOT-v1"

let encode_root ~length ~m_size ~(m_root : D.t) =
  Codec.encode (fun w ->
      Codec.W.bytes w root_magic;
      Codec.W.u64 w length;
      Codec.W.u64 w m_size;
      Codec.W.raw w (D.to_raw m_root))

let decode_root s =
  match
    Codec.decode s (fun r ->
        let magic = Codec.R.bytes r in
        if magic <> root_magic then raise (Codec.Decode_error "bad root magic");
        let length = Codec.R.u64 r in
        let m_size = Codec.R.u64 r in
        let m_root = D.of_raw (Codec.R.raw r D.size) in
        (length, m_size, m_root))
  with
  | v -> v
  | exception Codec.Decode_error m -> fail "corrupt root-of-trust file: %s" m

(* ------------------------------------------------------------------ *)
(* Prune marker: which prefix was compacted away, and the Merkle tree
   frontier needed to resume M without the pruned leaves.              *)

let prune_magic = "IACCF-PRUNE-v1"

let encode_prune ~base ~base_msize ~frontier =
  Codec.encode (fun w ->
      Codec.W.bytes w prune_magic;
      Codec.W.u64 w base;
      Codec.W.u64 w base_msize;
      Codec.W.list w (fun d -> Codec.W.raw w (D.to_raw d)) frontier)

let decode_prune s =
  match
    Codec.decode s (fun r ->
        let magic = Codec.R.bytes r in
        if magic <> prune_magic then raise (Codec.Decode_error "bad prune magic");
        let base = Codec.R.u64 r in
        let base_msize = Codec.R.u64 r in
        let frontier = Codec.R.list r (fun r -> D.of_raw (Codec.R.raw r D.size)) in
        (base, base_msize, frontier))
  with
  | v -> v
  | exception Codec.Decode_error m -> fail "corrupt prune marker: %s" m

(* ------------------------------------------------------------------ *)
(* Open + recovery                                                     *)

let list_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map parse_seg_name
  |> List.sort compare

(* Scan one segment's bytes, passing each recovered entry and its frame's
   offset, length and payload to [found]. [tail] enables torn-frame
   truncation; interior damage is unrecoverable. Returns the number of
   surviving bytes and the torn byte count (0 unless tail). *)
let scan_segment ~seg ~tail ~found data =
  let total = String.length data in
  let rec go off =
    match Frame.scan data ~pos:off with
    | Frame.End_of_input -> (off, 0)
    | Frame.Frame { payload; next } -> (
        match Entry.deserialize payload with
        | entry ->
            found ~off ~len:(next - off) ~payload entry;
            go next
        | exception Codec.Decode_error m ->
            if tail then (off, total - off)
            else fail "segment %s: undecodable entry at offset %d: %s" (seg_name seg) off m)
    | Frame.Torn { reason } ->
        if tail then (off, total - off)
        else fail "segment %s: torn frame at offset %d (%s) before the tail" (seg_name seg) off reason
  in
  go 0

let open_tail_fd t ~first ~size =
  let fd =
    Unix.openfile (seg_path t first) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  ignore (Unix.LargeFile.lseek fd (Int64.of_int size) Unix.SEEK_SET);
  t.tail_fd <- Some fd;
  t.tail_first <- first;
  t.tail_size <- size

let open_store ?(readonly = false) ?obs ?(owner = 0) cfg =
  if cfg.segment_bytes < Frame.header_bytes + 1 then
    invalid_arg "Store.open_store: segment_bytes too small";
  if readonly then begin
    if not (Sys.file_exists cfg.dir && Sys.is_directory cfg.dir) then
      fail "no store at %s" cfg.dir
  end
  else mkdir_p cfg.dir;
  let obs = match obs with Some o -> o | None -> Obs.passive () in
  (* M is rebuilt here only to check the root-of-trust. A prune marker
     means the prefix [0, base) was compacted away: M resumes from the
     recorded frontier instead of leaves we no longer hold. *)
  let base, tree =
    if Sys.file_exists (prune_path cfg.dir) then begin
      let base, base_msize, frontier = decode_prune (Disk.read_file (prune_path cfg.dir)) in
      if base < 1 || base_msize < 0 || base_msize > base then
        fail "prune marker claims base %d with tree size %d" base base_msize;
      match Tree.of_frontier ~size:base_msize frontier with
      | tree -> (base, tree)
      | exception Invalid_argument _ ->
          fail "prune marker frontier does not match tree size %d" base_msize
    end
    else (0, Tree.create ())
  in
  let promised =
    if Sys.file_exists (root_path cfg.dir) then
      Some (decode_root (Disk.read_file (root_path cfg.dir)))
    else None
  in
  let slots = Vec.create () and disk = ref 0 in
  (* M's size and root once the scan reaches the promised length. *)
  let at_promise = ref None in
  let note () =
    if Option.map (fun (l, _, _) -> l) promised = Some (base + Vec.length slots) then
      at_promise := Some (Tree.size tree, Tree.root tree)
  in
  note ();
  let found ~seg ~off ~len ~payload entry =
    if Entry.in_merkle_tree entry then
      Tree.append tree (Entry.leaf_of_serialized payload);
    Vec.push slots { s_seg = seg; s_off = off; s_len = len };
    disk := !disk + len;
    note ()
  in
  let seg_path first = Filename.concat cfg.dir (seg_name first) in
  let segs = list_segments cfg.dir in
  (* Segments wholly behind the prune marker are leftovers of a crash
     between marker write and unlink; their contents live on in the audit
     package, so finish the unlink (read-only opens just skip them). *)
  let stale, segs = List.partition (fun seg -> seg < base) segs in
  if not readonly then List.iter (fun seg -> Sys.remove (seg_path seg)) stale;
  let n_segs = List.length segs in
  let torn_frames = ref 0 and torn_bytes = ref 0 in
  List.iteri
    (fun k seg ->
      if seg <> base + Vec.length slots then
        fail "segment %s: expected first index %d" (seg_name seg)
          (base + Vec.length slots);
      let tail = k = n_segs - 1 in
      let data = Disk.read_file (seg_path seg) in
      let survive, torn = scan_segment ~seg ~tail ~found:(found ~seg) data in
      if torn > 0 then begin
        incr torn_frames;
        torn_bytes := !torn_bytes + torn;
        (* Cut the damaged suffix so the file again ends on a frame edge.
           A read-only open (offline audit) must leave the evidence
           byte-identical, so it only skips the damaged bytes in memory. *)
        if not readonly then begin
          let fd = Unix.openfile (seg_path seg) [ Unix.O_WRONLY ] 0o644 in
          Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
              Unix.LargeFile.ftruncate fd (Int64.of_int survive))
        end
      end)
    segs;
  (* A tail segment that lost every frame (crash during roll) is dropped. *)
  let live_segs =
    match Vec.last slots with
    | None ->
        if not readonly then List.iter (fun seg -> Sys.remove (seg_path seg)) segs;
        []
    | Some last ->
        let live, dead = List.partition (fun seg -> seg <= last.s_seg) segs in
        if not readonly then List.iter (fun seg -> Sys.remove (seg_path seg)) dead;
        live
  in
  (* Check the recovered prefix against the durable root-of-trust. *)
  let recovered = base + Vec.length slots in
  (match promised with
  | None -> ()
  | Some (length, m_size, m_root) ->
      if length > recovered then
        fail "recovered %d entries but the root-of-trust covers %d: durable data lost"
          recovered length;
      if length < base then
        fail "root-of-trust covers %d entries but the prune marker claims %d were \
              compacted: marker cannot postdate the durable root"
          length base;
      let size, root = Option.get !at_promise in
      if length > 0 && size <> m_size then
        fail "root-of-trust tree size mismatch at length %d" length;
      if not (D.equal root m_root) then
        fail "recovered Merkle root does not match the root-of-trust at length %d"
          length);
  let t =
    {
      cfg;
      readonly;
      obs;
      owner;
      c_appends = Obs.counter obs "storage.appends";
      c_append_bytes = Obs.counter obs "storage.append_bytes";
      c_fsyncs = Obs.counter obs "storage.fsyncs";
      c_truncates = Obs.counter obs "storage.truncates";
      slots;
      base;
      recovered_m = (Tree.size tree, Tree.root tree);
      ledger = None;
      tail_first = 0;
      tail_fd = None;
      tail_size = 0;
      seg_count = List.length live_segs;
      disk = !disk;
      unsynced = 0;
      syncing = None;
      closed = false;
      recovered =
        {
          ri_segments = n_segs;
          ri_entries = Vec.length slots;
          ri_torn_frames = !torn_frames;
          ri_torn_bytes = !torn_bytes;
          ri_root_verified = Option.is_some promised;
        };
    }
  in
  (match Vec.last slots with
  | Some last when not readonly ->
      open_tail_fd t ~first:last.s_seg ~size:(last.s_off + last.s_len)
  | Some _ | None -> ());
  t

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let recovery t = t.recovered
let config t = t.cfg
let length t = t.base + Vec.length t.slots
let pruned_before t = t.base
let package_path t = audit_package_path t.cfg.dir
let segments t = t.seg_count
let disk_bytes t = t.disk

let check_open t op = if t.closed then invalid_arg ("Store." ^ op ^ ": store is closed")

let check_rw t op =
  check_open t op;
  if t.readonly then fail "Store.%s: store was opened read-only" op

(* ------------------------------------------------------------------ *)
(* Append path                                                         *)

(* Wait for the interval sync in flight, if any, and re-raise its
   failure. Everything that closes the tail descriptor or writes another
   file of the store calls this first, so the files on disk are the ones
   the synchronous path would have left. *)
let settle t =
  match t.syncing with
  | None -> ()
  | Some p ->
      t.syncing <- None;
      Worker.await p

(* A sync in two halves. [capture] runs on the caller: it takes the tail
   descriptor and the root-of-trust record of the store's current length
   with M's size and root there (the attached ledger runs ahead of the
   store only while [attach] backfills it), and counts and traces the
   sync. The half it returns makes it durable: the segment's fsync, then
   the root file. *)
let capture t =
  let length = length t in
  let m_size, m_root =
    match t.ledger with
    | None -> t.recovered_m
    | Some l when Ledger.length l = length -> (Ledger.m_size l, Ledger.m_root l)
    | Some l -> (Ledger.m_size_at l length, Ledger.m_root_at l length)
  in
  Obs.incr t.c_fsyncs;
  Obs.instant t.obs ~node:t.owner ~cat:"storage" ~name:"storage.fsync"
    ~args:[ ("entries", string_of_int length) ]
    ();
  t.unsynced <- 0;
  let fd = t.tail_fd and path = root_path t.cfg.dir in
  let record = encode_root ~length ~m_size ~m_root in
  fun () ->
    Option.iter Unix.fsync fd;
    Disk.write_atomic path record

let sync t =
  check_rw t "sync";
  settle t;
  capture t ()

(* The interval sync runs on the background worker: nothing reads its
   result, and the next one waits for it. *)
let sync_later t =
  settle t;
  t.syncing <- Some (Worker.submit (capture t))

let roll_segment t =
  settle t;
  (match t.tail_fd with
  | Some fd ->
      (* The finished segment is immutable from here on: make it durable
         before anything lands in its successor. *)
      Unix.fsync fd;
      Obs.incr t.c_fsyncs;
      Unix.close fd
  | None -> ());
  t.tail_fd <- None;
  open_tail_fd t ~first:(length t) ~size:0;
  t.seg_count <- t.seg_count + 1

(* [payload] is the entry as [Ledger] serialized it. *)
let append t payload =
  check_rw t "append";
  let frame = Frame.encode payload in
  let len = String.length frame in
  if t.tail_fd = None || (t.tail_size > 0 && t.tail_size + len > t.cfg.segment_bytes)
  then roll_segment t;
  let fd = Option.get t.tail_fd in
  Disk.write_all fd frame;
  let index = length t in
  Vec.push t.slots { s_seg = t.tail_first; s_off = t.tail_size; s_len = len };
  t.disk <- t.disk + len;
  t.tail_size <- t.tail_size + len;
  Obs.incr t.c_appends;
  Obs.add t.c_append_bytes len;
  if Obs.tracing_enabled t.obs then
    Obs.instant t.obs ~node:t.owner ~cat:"storage" ~name:"storage.append"
      ~args:[ ("index", string_of_int index); ("bytes", string_of_int len) ]
      ();
  t.unsynced <- t.unsynced + 1;
  (match t.cfg.fsync with
  | Fsync_always -> sync t
  | Fsync_interval n when t.unsynced >= n -> sync_later t
  | Fsync_interval _ | No_fsync -> ());
  index

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)

let read_payload t i =
  check_open t "get";
  if i < 0 || i >= length t then invalid_arg "Store.get: index out of range";
  if i < t.base then
    fail "Store.get: entry %d was pruned (first retained entry %d); read it from \
          the audit package" i t.base;
  let slot = Vec.get t.slots (i - t.base) in
  let ic = open_in_bin (seg_path t slot.s_seg) in
  let raw =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        seek_in ic slot.s_off;
        really_input_string ic slot.s_len)
  in
  match Frame.scan raw ~pos:0 with
  | Frame.Frame { payload; _ } -> payload
  | Frame.Torn { reason } -> fail "entry %d: frame damaged on disk (%s)" i reason
  | Frame.End_of_input -> assert false

let get t i = Entry.deserialize (read_payload t i)

(* Entries [lo, hi) of the retained range, reading each segment file once:
   its frames are walked with [Frame.scan], which checks each CRC, and each
   frame must sit at its slot's offset with its slot's length. *)
let read_range t lo hi =
  let rec go i seg data acc =
    if i >= hi then List.rev acc
    else begin
      let slot = Vec.get t.slots (i - t.base) in
      let data = if slot.s_seg = seg then data else Disk.read_file (seg_path t slot.s_seg) in
      if slot.s_off >= String.length data then
        fail "entry %d: segment %s ends before its frame" i (seg_name slot.s_seg);
      match Frame.scan data ~pos:slot.s_off with
      | Frame.Frame { payload; next } when next = slot.s_off + slot.s_len ->
          go (i + 1) slot.s_seg data (Entry.deserialize payload :: acc)
      | Frame.Frame _ -> fail "entry %d: frame length on disk does not match the index" i
      | Frame.Torn { reason } -> fail "entry %d: frame damaged on disk (%s)" i reason
      | Frame.End_of_input -> assert false
    end
  in
  go lo (-1) "" []

(* ------------------------------------------------------------------ *)
(* Truncation (view-change rollback)                                   *)

let truncate t n =
  check_rw t "truncate";
  if n < 1 then invalid_arg "Store.truncate: cannot drop the genesis";
  if n <= t.base then
    fail "Store.truncate: cannot roll back to %d, entries before %d were pruned"
      n t.base;
  if n < length t then begin
    settle t;
    Obs.incr t.c_truncates;
    Obs.instant t.obs ~node:t.owner ~cat:"storage" ~name:"storage.truncate"
      ~args:[ ("to", string_of_int n); ("from", string_of_int (length t)) ]
      ();
    let last = Vec.get t.slots (n - 1 - t.base) in
    let cut = last.s_off + last.s_len in
    for i = n to length t - 1 do
      let s = Vec.get t.slots (i - t.base) in
      t.disk <- t.disk - s.s_len;
      if
        s.s_seg <> last.s_seg
        && (i = n || (Vec.get t.slots (i - 1 - t.base)).s_seg <> s.s_seg)
      then begin
        Sys.remove (seg_path t s.s_seg);
        t.seg_count <- t.seg_count - 1
      end
    done;
    Vec.truncate t.slots (n - t.base);
    (match t.tail_fd with Some fd -> Unix.close fd | None -> ());
    t.tail_fd <- None;
    let fd = Unix.openfile (seg_path t last.s_seg) [ Unix.O_WRONLY ] 0o644 in
    Unix.LargeFile.ftruncate fd (Int64.of_int cut);
    ignore (Unix.LargeFile.lseek fd (Int64.of_int cut) Unix.SEEK_SET);
    t.tail_fd <- Some fd;
    t.tail_first <- last.s_seg;
    t.tail_size <- cut;
    (* A rollback is a deliberate history change: refresh the root-of-trust
       now so a crash cannot resurrect the truncated suffix's promise. *)
    sync t
  end

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)

(* The entries of the cumulative audit package, which must cover the
   pruned prefix. *)
let package_entries t ~what =
  let pkg_path = package_path t in
  if Sys.file_exists pkg_path then begin
    let entries = (Package.read_file pkg_path).Package.pkg_entries in
    if List.length entries < t.base then
      fail "%s: audit package covers only %d entries but entries before %d \
            were pruned" what (List.length entries) t.base;
    entries
  end
  else if t.base > 0 then
    fail "%s: audit package %s is missing but entries before %d were pruned"
      what pkg_path t.base
  else []

(* Drop whole segments strictly behind [upto], but only after the pruned
   prefix is safe in the cumulative audit package: accountability evidence
   must survive compaction, so the package always covers [0, max so far)
   from genesis and is checked against the attached ledger's M before any
   unlink. Crash ordering: sync -> package -> prune marker -> unlink; every
   intermediate state reopens correctly (a marker without unlinks just
   finishes the unlink on open). *)
let prune_before t upto =
  check_rw t "prune_before";
  let ledger =
    match t.ledger with Some l -> l | None -> fail "prune_before: no ledger is attached"
  in
  if upto < 1 || upto > length t then
    invalid_arg "Store.prune_before: index out of range";
  (* The cut lands on a segment boundary at or before [upto]; the open
     tail segment itself survives even when it starts before [upto]. *)
  let cut = ref t.base in
  Vec.iter
    (fun s -> if s.s_seg <= upto && s.s_seg > !cut then cut := s.s_seg)
    t.slots;
  let cut = !cut in
  if cut <= t.base then 0
  else begin
    sync t;
    let pkg_path = package_path t in
    let prev_entries = package_entries t ~what:"prune_before" in
    let prev_end = List.length prev_entries in
    let pkg_end = max prev_end upto in
    if pkg_end > prev_end then begin
      let entries =
        prev_entries @ read_range t prev_end pkg_end
      in
      let pkg = Package.of_entries entries in
      if not (D.equal pkg.Package.pkg_m_root (Ledger.m_root_at ledger pkg_end)) then
        fail
          "prune_before: audit package would not reproduce the ledger's Merkle \
           root at %d (stale or foreign %s?)"
          pkg_end audit_package_name;
      Package.write_file pkg_path pkg
    end;
    let cut_msize = Ledger.m_size_at ledger cut in
    let frontier =
      let tree = Ledger.m_tree_copy ledger in
      Tree.truncate tree cut_msize;
      Tree.frontier tree
    in
    Disk.write_atomic (prune_path t.cfg.dir)
      (encode_prune ~base:cut ~base_msize:cut_msize ~frontier);
    (* The marker is durable: from here on a crash leaves at worst stale
       pre-cut segments, which open_store unlinks. *)
    let dropped = cut - t.base in
    let dropped_bytes = ref 0 in
    for i = t.base to cut - 1 do
      let s = Vec.get t.slots (i - t.base) in
      dropped_bytes := !dropped_bytes + s.s_len;
      if i = t.base || (Vec.get t.slots (i - 1 - t.base)).s_seg <> s.s_seg then begin
        Sys.remove (seg_path t s.s_seg);
        t.seg_count <- t.seg_count - 1
      end
    done;
    Disk.fsync_dir t.cfg.dir;
    let live = Vec.sub_list t.slots dropped (Vec.length t.slots - dropped) in
    Vec.truncate t.slots 0;
    List.iter (Vec.push t.slots) live;
    t.disk <- t.disk - !dropped_bytes;
    t.base <- cut;
    Obs.incr (Obs.counter t.obs "storage.prunes");
    Obs.add (Obs.counter t.obs "storage.pruned_entries") dropped;
    Obs.add (Obs.counter t.obs "storage.pruned_bytes") !dropped_bytes;
    Obs.instant t.obs ~node:t.owner ~cat:"storage" ~name:"storage.prune"
      ~args:
        [
          ("base", string_of_int cut);
          ("entries", string_of_int dropped);
          ("bytes", string_of_int !dropped_bytes);
        ]
      ();
    dropped
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let close t =
  if not t.closed then begin
    if not t.readonly then sync t;
    (match t.tail_fd with Some fd -> Unix.close fd | None -> ());
    t.tail_fd <- None;
    t.closed <- true
  end

let crash t =
  if not t.closed then begin
    settle t;
    (match t.tail_fd with Some fd -> Unix.close fd | None -> ());
    t.tail_fd <- None;
    t.closed <- true
  end

(* ------------------------------------------------------------------ *)
(* Ledger integration                                                  *)

let to_ledger t =
  check_open t "to_ledger";
  if length t = 0 then fail "to_ledger: store is empty";
  if t.base > 0 then
    fail
      "to_ledger: entries before %d were pruned; reconstruct the full history \
       from the audit package (%s)"
      t.base audit_package_name;
  Ledger.of_entries (read_range t 0 (length t))

let history t =
  check_open t "history";
  List.filteri (fun i _ -> i < t.base) (package_entries t ~what:"history")
  @ read_range t t.base (length t)

(* The surplus a crashed append can leave behind a replayed prefix:
   evidence entries, then at most one pre-prepare followed by (a prefix
   of) its transactions. *)
let rec crash_shaped = function
  | [] -> true
  | (Entry.Prepare_evidence _ | Entry.Nonce_evidence _) :: rest -> crash_shaped rest
  | Entry.Pre_prepare _ :: rest -> List.for_all (function Entry.Tx _ -> true | _ -> false) rest
  | (Entry.Tx _ | Entry.Genesis _ | Entry.View_change_set _ | Entry.New_view _) :: _ -> false

let attach t ledger =
  check_rw t "attach";
  if Option.is_some t.ledger then fail "attach: a ledger is already attached";
  let ll = Ledger.length ledger in
  let sl = length t in
  if ll < t.base then
    fail "attach: ledger holds %d entries but entries before %d were pruned" ll
      t.base;
  (* Prove BEFORE any destructive step that the ledger's prefix, plus any
     store surplus, reproduces the root recovered on open: a mis-addressed
     or diverging ledger must never cost persisted history. *)
  let surplus = List.init (max 0 (sl - ll)) (fun i -> read_payload t (ll + i)) in
  let surplus_entries = List.map Entry.deserialize surplus in
  let tree = Ledger.m_tree_copy ledger in
  Tree.truncate tree (Ledger.m_size_at ledger (min sl ll));
  List.iter2
    (fun raw entry ->
      if Entry.in_merkle_tree entry then Tree.append tree (Entry.leaf_of_serialized raw))
    surplus surplus_entries;
  if not (D.equal (Tree.root tree) (snd t.recovered_m)) then
    fail "attach: persisted prefix diverges from the ledger (common prefix %d)"
      (min sl ll);
  (* Shrinking the store drops entries that may have been durably synced.
     Only a crash artifact may go; anything else means the persisted
     history itself is bad, and destroying it would hide the evidence. *)
  if not (crash_shaped surplus_entries) then
    fail
      "attach: store holds %d entries but the ledger only %d, and the surplus is \
       not a crashed append; refusing to drop persisted history"
      sl ll;
  t.ledger <- Some ledger;
  if sl > ll then truncate t ll;
  for i = sl to ll - 1 do
    ignore (append t (Entry.serialize (Ledger.get ledger i)))
  done;
  Ledger.set_sink ledger
    (Some
       {
         Ledger.sink_append =
           (fun i payload ->
             let j = append t payload in
             (* The store must mirror the ledger index-for-index; drift means
                the two histories no longer describe the same prefix. *)
             if i <> j then
               fail "attach sink: ledger appended entry %d but the store wrote %d" i j);
         sink_truncate = (fun n -> truncate t n);
       })
