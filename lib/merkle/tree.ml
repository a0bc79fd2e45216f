module D = Iaccf_crypto.Digest32
module Sha256 = Iaccf_crypto.Sha256
module Vec = Iaccf_util.Vec

let empty_root = D.of_string ""
let leaf_hash d = D.of_raw (Sha256.digest_concat [ "\x00"; D.to_raw d ])
let node_hash l r = D.of_raw (Sha256.digest_concat [ "\x01"; D.to_raw l; D.to_raw r ])

(* Leaves are stored verbatim. levels.(0) holds the leaf hashes and
   levels.(k) the interior nodes of height k over complete, 2^k-aligned
   subtrees, maintained incrementally. The RFC 6962 root folds the
   incomplete right spine over these cached peaks, so [append], [root] and
   [truncate] are all O(log n); nodes are only ever dropped from the right,
   which is exactly the roll-back L-PBFT needs (Appx. A, Lemma 1). *)
type t = { leaves : D.t Vec.t; mutable levels : D.t Vec.t array }

let create () = { leaves = Vec.create (); levels = [| Vec.create () |] }
let size t = Vec.length t.leaves

let level t k =
  while k >= Array.length t.levels do
    t.levels <-
      Array.append t.levels (Array.init (Array.length t.levels) (fun _ -> Vec.create ()))
  done;
  t.levels.(k)

let append t d =
  Vec.push t.leaves d;
  Vec.push (level t 0) (leaf_hash d);
  (* Cascade: whenever level k gains a complete pair, emit its parent. *)
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let cur = level t !k and parent = level t (!k + 1) in
    if Vec.length cur = 2 * (Vec.length parent + 1) then begin
      let n = Vec.length cur in
      Vec.push parent (node_hash (Vec.get cur (n - 2)) (Vec.get cur (n - 1)));
      incr k
    end
    else continue := false
  done

let leaf t i = Vec.get t.leaves i

let truncate t n =
  Vec.truncate t.leaves n;
  let m = ref n in
  let k = ref 0 in
  while !k < Array.length t.levels do
    Vec.truncate t.levels.(!k) !m;
    m := !m / 2;
    incr k
  done

(* Largest power of two strictly less than n (n >= 2). *)
let split_point n =
  let k = ref 1 in
  while !k * 2 < n do
    k := !k * 2
  done;
  !k

(* RFC 6962 MTH over leaves lo..lo+len-1, using the level cache for
   complete aligned power-of-two subtrees. *)
let rec subtree_root t lo len =
  if len = 1 then Vec.get t.levels.(0) lo
  else begin
    let k = split_point len in
    if len = 2 * k && lo mod len = 0 then begin
      (* Complete aligned subtree: look up the cached node if present. *)
      let h = ref 0 and l = ref len in
      while !l > 1 do
        incr h;
        l := !l / 2
      done;
      if !h < Array.length t.levels && lo / len < Vec.length t.levels.(!h) then
        Vec.get t.levels.(!h) (lo / len)
      else node_hash (subtree_root t lo k) (subtree_root t (lo + k) k)
    end
    else node_hash (subtree_root t lo k) (subtree_root t (lo + k) (len - k))
  end

let root t = if size t = 0 then empty_root else subtree_root t 0 (size t)

(* The cached nodes of a prefix are the whole tree's, so its root folds
   the same right spine a tree of [n] leaves would. *)
let root_at t n =
  if n < 0 || n > size t then invalid_arg "Merkle.Tree.root_at: size out of range";
  if n = 0 then empty_root else subtree_root t 0 n

let rec subtree_path t lo len i =
  if len = 1 then []
  else begin
    let k = split_point len in
    if i < k then subtree_path t lo k i @ [ subtree_root t (lo + k) (len - k) ]
    else subtree_path t (lo + k) (len - k) (i - k) @ [ subtree_root t lo k ]
  end

let path t i =
  if i < 0 || i >= size t then invalid_arg "Merkle.Tree.path: index out of range";
  subtree_path t 0 (size t) i

let verify_path ~leaf ~index ~size ~path ~root =
  if index < 0 || index >= size then false
  else begin
    (* Replay the recursion that produced the path, bottom-up. *)
    let rec go index size path =
      if size = 1 then if path = [] then Some (leaf_hash leaf) else None
      else begin
        let k = split_point size in
        match List.rev path with
        | [] -> None
        | sibling :: rest ->
            let rest = List.rev rest in
            if index < k then
              Option.map (fun h -> node_hash h sibling) (go index k rest)
            else
              Option.map (fun h -> node_hash sibling h) (go (index - k) (size - k) rest)
      end
    in
    match go index size path with None -> false | Some h -> D.equal h root
  end

(* Every level is built at its final length, [n lsr k] nodes at level k
   (the invariant [append] keeps), instead of growing each from empty. *)
let of_leaves ds =
  let leaves = Array.of_list ds in
  let n = Array.length leaves in
  let rec above k lv =
    if n lsr k = 0 then []
    else
      let up =
        Vec.init (n lsr k) (fun i ->
            node_hash (Vec.get lv (2 * i)) (Vec.get lv ((2 * i) + 1)))
      in
      up :: above (k + 1) up
  in
  let l0 = Vec.init n (fun i -> leaf_hash leaves.(i)) in
  { leaves = Vec.init n (Array.get leaves); levels = Array.of_list (l0 :: above 1 l0) }

let root_of_leaves leaves = root (of_leaves leaves)

let copy t =
  { leaves = Vec.copy t.leaves; levels = Array.map Vec.copy t.levels }

(* The peak for set bit [k] of [size t] is the root of the rightmost
   complete 2^k-aligned subtree, which by the level-length invariant
   (level k holds exactly n >> k nodes) is always the LAST cached node at
   level k. *)
let frontier t =
  let n = size t in
  let peaks = ref [] in
  let k = ref 0 in
  while n lsr !k > 0 do
    if n land (1 lsl !k) <> 0 then
      peaks := Vec.get (level t !k) ((n lsr !k) - 1) :: !peaks;
    incr k
  done;
  !peaks

let of_frontier ~size peaks =
  if size < 0 then invalid_arg "Merkle.Tree.of_frontier: negative size";
  (* Pad leaves and every level to the lengths a size-[size] tree would
     have. The padding is never read: [append]'s cascade only ever looks
     at the last two nodes of a level (the peak, then post-resume nodes)
     and [subtree_root] resolves every complete aligned subtree from the
     cache, recursing only along the right spine, which is exactly the
     peak set. *)
  let depth = Seq.length (Seq.take_while (fun k -> size lsr k > 0) (Seq.ints 0)) in
  let pad n = Vec.init n (fun _ -> empty_root) in
  let t =
    { leaves = pad size; levels = Array.init (max 1 depth) (fun k -> pad (size lsr k)) }
  in
  (* The peaks' levels are the set bits of [size], highest first. *)
  let bits = List.filter (fun k -> size land (1 lsl k) <> 0) (List.init depth Fun.id) in
  (try
     List.iter2
       (fun k d -> Vec.set t.levels.(k) ((size lsr k) - 1) d)
       (List.rev bits) peaks
   with Invalid_argument _ ->
     invalid_arg "Merkle.Tree.of_frontier: wrong number of peaks");
  t
