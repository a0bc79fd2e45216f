(* A persistent HAMT with 5-bit (32-way) branching on a 60-bit key hash.
   Collision nodes handle full-hash collisions (exercised in tests with a
   degenerate hash depth). *)

let bits = 5
let branch = 1 lsl bits
let mask_bits = branch - 1
let max_depth = 12 (* 12 * 5 = 60 hash bits *)

type node =
  | Empty
  | Leaf of int * string * string (* hash, key, value *)
  | Collision of int * (string * string) list
  | Branch of int * node array (* bitmap, compressed children *)

type t = { root : node; card : int }

(* FNV-1a, folded to 60 bits so shifts stay in range. *)
let hash_key k =
  let h = ref 0x3bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    k;
  !h land ((1 lsl 60) - 1)

let empty = { root = Empty; card = 0 }
let is_empty t = t.card = 0
let cardinal t = t.card

let index_of h depth = (h lsr (depth * bits)) land mask_bits
let popcount_below bitmap i =
  let below = bitmap land ((1 lsl i) - 1) in
  let rec count x acc = if x = 0 then acc else count (x lsr 1) (acc + (x land 1)) in
  count below 0

let rec find_node h k node depth =
  match node with
  | Empty -> None
  | Leaf (h', k', v) -> if h = h' && String.equal k k' then Some v else None
  | Collision (h', kvs) -> if h = h' then List.assoc_opt k kvs else None
  | Branch (bitmap, children) ->
      let i = index_of h depth in
      if bitmap land (1 lsl i) = 0 then None
      else find_node h k children.(popcount_below bitmap i) (depth + 1)

let find k t = find_node (hash_key k) k t.root 0

(* Insert both entries below a fresh branch; they are known distinct. *)
let rec join depth h1 e1 h2 e2 =
  if depth >= max_depth then begin
    let k1, v1 = e1 and k2, v2 = e2 in
    Collision (h1, [ (k1, v1); (k2, v2) ])
  end
  else begin
    let i1 = index_of h1 depth and i2 = index_of h2 depth in
    if i1 = i2 then
      Branch (1 lsl i1, [| join (depth + 1) h1 e1 h2 e2 |])
    else begin
      let l1 = (let k, v = e1 in Leaf (h1, k, v)) in
      let l2 = (let k, v = e2 in Leaf (h2, k, v)) in
      let children = if i1 < i2 then [| l1; l2 |] else [| l2; l1 |] in
      Branch ((1 lsl i1) lor (1 lsl i2), children)
    end
  end

(* Returns the new node and whether the key was fresh. *)
let rec add_node h k v node depth =
  match node with
  | Empty -> (Leaf (h, k, v), true)
  | Leaf (h', k', v') ->
      if h = h' && String.equal k k' then (Leaf (h, k, v), false)
      else if h = h' then (Collision (h, [ (k, v); (k', v') ]), true)
      else (join depth h (k, v) h' (k', v'), true)
  | Collision (h', kvs) ->
      (* A collision node sits at max depth; a different hash cannot reach
         it, because all 60 hash bits were consumed choosing this position. *)
      assert (h = h');
      let fresh = not (List.mem_assoc k kvs) in
      (Collision (h, (k, v) :: List.remove_assoc k kvs), fresh)
  | Branch (bitmap, children) ->
      let i = index_of h depth in
      let pos = popcount_below bitmap i in
      if bitmap land (1 lsl i) = 0 then begin
        let children' = Array.make (Array.length children + 1) Empty in
        Array.blit children 0 children' 0 pos;
        children'.(pos) <- Leaf (h, k, v);
        Array.blit children pos children' (pos + 1) (Array.length children - pos);
        (Branch (bitmap lor (1 lsl i), children'), true)
      end
      else begin
        let child, fresh = add_node h k v children.(pos) (depth + 1) in
        let children' = Array.copy children in
        children'.(pos) <- child;
        (Branch (bitmap, children'), fresh)
      end

let add k v t =
  let root, fresh = add_node (hash_key k) k v t.root 0 in
  { root; card = (if fresh then t.card + 1 else t.card) }

(* Returns the new node and whether a key was removed. *)
let rec remove_node h k node depth =
  match node with
  | Empty -> (Empty, false)
  | Leaf (h', k', _) ->
      if h = h' && String.equal k k' then (Empty, true) else (node, false)
  | Collision (h', kvs) ->
      if h = h' && List.mem_assoc k kvs then begin
        match List.remove_assoc k kvs with
        | [ (k1, v1) ] -> (Leaf (h', k1, v1), true)
        | kvs' -> (Collision (h', kvs'), true)
      end
      else (node, false)
  | Branch (bitmap, children) ->
      let i = index_of h depth in
      if bitmap land (1 lsl i) = 0 then (node, false)
      else begin
        let pos = popcount_below bitmap i in
        let child, removed = remove_node h k children.(pos) (depth + 1) in
        if not removed then (node, false)
        else begin
          match child with
          | Empty ->
              if Array.length children = 1 then (Empty, true)
              else begin
                let children' = Array.make (Array.length children - 1) Empty in
                Array.blit children 0 children' 0 pos;
                Array.blit children (pos + 1) children' pos
                  (Array.length children - pos - 1);
                (Branch (bitmap land lnot (1 lsl i), children'), true)
              end
          | (Leaf _ | Collision _) when Array.length children = 1 ->
              (* Collapse single-child branches into the leaf itself. *)
              (child, true)
          | _ ->
              let children' = Array.copy children in
              children'.(pos) <- child;
              (Branch (bitmap, children'), true)
        end
      end

let remove k t =
  let root, removed = remove_node (hash_key k) k t.root 0 in
  if removed then { root; card = t.card - 1 } else t

let rec iter_node f = function
  | Empty -> ()
  | Leaf (_, k, v) -> f k v
  | Collision (_, kvs) -> List.iter (fun (k, v) -> f k v) kvs
  | Branch (_, children) -> Array.iter (iter_node f) children

let to_sorted_list t =
  let acc = ref [] in
  iter_node (fun k v -> acc := (k, v) :: !acc) t.root;
  List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) !acc

let fold_sorted f t acc =
  List.fold_left (fun acc (k, v) -> f k v acc) acc (to_sorted_list t)

let of_list l = List.fold_left (fun t (k, v) -> add k v t) empty l

let equal a b =
  a.card = b.card && to_sorted_list a = to_sorted_list b
