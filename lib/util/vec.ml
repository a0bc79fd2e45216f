type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let init n f = { data = Array.init n f; len = n }
let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get: index out of bounds";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set: index out of bounds";
  v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let new_cap = if cap = 0 then 8 else 2 * cap in
  let data = Array.make new_cap x in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let last v = if v.len = 0 then None else Some v.data.(v.len - 1)

let truncate v n =
  if n < 0 then invalid_arg "Vec.truncate: negative length";
  if n < v.len then v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v = List.init v.len (fun i -> v.data.(i))

let of_list l =
  let v = create () in
  List.iter (push v) l;
  v

let sub_list v pos len =
  if pos < 0 || len < 0 || pos + len > v.len then
    invalid_arg "Vec.sub_list: out of bounds";
  List.init len (fun i -> v.data.(pos + i))

let copy v = { data = Array.sub v.data 0 v.len; len = v.len }
