let count ~chunk_bytes data =
  if chunk_bytes < 1 then invalid_arg "Chunk.count: chunk_bytes < 1";
  max 1 ((String.length data + chunk_bytes - 1) / chunk_bytes)

let nth ~chunk_bytes data i =
  if i < 0 || i >= count ~chunk_bytes data then None
  else
    let off = i * chunk_bytes in
    Some (String.sub data off (min chunk_bytes (String.length data - off)))

let split ~chunk_bytes data =
  List.init (count ~chunk_bytes data) (fun i -> Option.get (nth ~chunk_bytes data i))

(* Reassembly of an out-of-order chunk stream. The assembler is purely
   mechanical: it enforces index bounds and the advertised total byte size,
   while content authenticity is the installer's job (checkpoint digest). *)
type asm = {
  total : int;
  bytes : int;
  parts : string option array;
  mutable received : int;
  mutable received_bytes : int;
}

let create ~total ~bytes =
  if total < 1 || bytes < 0 then invalid_arg "Chunk.create: bad dimensions";
  { total; bytes; parts = Array.make total None; received = 0; received_bytes = 0 }

let add asm ~index data =
  if index < 0 || index >= asm.total then `Invalid
  else begin
    match asm.parts.(index) with
    | Some _ -> `Duplicate
    | None ->
        if asm.received_bytes + String.length data > asm.bytes then `Invalid
        else begin
          asm.parts.(index) <- Some data;
          asm.received <- asm.received + 1;
          asm.received_bytes <- asm.received_bytes + String.length data;
          `Added
        end
  end

let complete asm = asm.received = asm.total
let total asm = asm.total

let missing asm =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if asm.parts.(i) = None then i :: acc else acc)
  in
  go (asm.total - 1) []

let assembled asm =
  if not (complete asm) then None
  else begin
    let data =
      String.concat "" (Array.to_list (Array.map Option.get asm.parts))
    in
    if String.length data = asm.bytes then Some data else None
  end
