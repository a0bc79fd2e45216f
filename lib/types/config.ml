module Codec = Iaccf_util.Codec
module Schnorr = Iaccf_crypto.Schnorr
module Sigcheck = Iaccf_crypto.Sigcheck
module D = Iaccf_crypto.Digest32

type member = { member_name : string; member_pk : Schnorr.public_key }

type replica_info = {
  replica_id : int;
  operator : string;
  replica_pk : Schnorr.public_key;
  endorsement : string;
}

type t = {
  config_no : int;
  members : member list;
  replicas : replica_info list;
  vote_threshold : int;
}

let n_replicas t = List.length t.replicas
let f t = ((n_replicas t + 2) / 3) - 1
let quorum t = n_replicas t - f t
let replica_ids_sorted t =
  List.sort compare (List.map (fun r -> r.replica_id) t.replicas)

(* [n] plus how many replicas in the list have an id below [id]
   ([~eq:false]), or at or below it ([~eq:true]). *)
let rec count_ids ~eq id n = function
  | [] -> n
  | r :: rest ->
      let hit = r.replica_id < id || (eq && r.replica_id = id) in
      count_ids ~eq id (if hit then n + 1 else n) rest

(* The id at position [pos] of the sorted ids is the one with at most
   [pos] smaller ids and more than [pos] ids at or below it; "at most",
   not "exactly", so that repeated ids, which [validate] refuses but an
   unchecked configuration can hold, give what sorting gives. Counting
   instead of sorting keeps this per-message call free of allocation. *)
let rec nth_smallest t pos = function
  | [] -> invalid_arg "Config.primary_of_view"
  | r :: rest ->
      let id = r.replica_id in
      if count_ids ~eq:false id 0 t.replicas <= pos && pos < count_ids ~eq:true id 0 t.replicas
      then id
      else nth_smallest t pos rest

let primary_of_view t view = nth_smallest t (view mod n_replicas t) t.replicas
let replica t id = List.find_opt (fun r -> r.replica_id = id) t.replicas
let replica_pk t id = Option.map (fun r -> r.replica_pk) (replica t id)
let member t name = List.find_opt (fun m -> m.member_name = name) t.members
let operator_of_replica t id = Option.map (fun r -> r.operator) (replica t id)

let is_member_pk t pk =
  List.exists (fun m -> Schnorr.public_key_equal m.member_pk pk) t.members

let endorsement_payload t ~replica_id ~pk =
  D.of_string
    (Codec.encode (fun w ->
         Codec.W.raw w "iaccf-endorse";
         Codec.W.u64 w t.config_no;
         Codec.W.u64 w replica_id;
         Codec.W.bytes w (Schnorr.public_key_to_bytes pk)))

let validate t =
  let n = n_replicas t in
  let ids = replica_ids_sorted t in
  let rec distinct = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a <> b && distinct rest
  in
  let ids_ok =
    distinct ids
    && List.for_all (fun i -> i >= 0 && i < Iaccf_util.Bitmap.max_replicas) ids
  in
  if n = 0 then Error "no replicas"
  else if not ids_ok then Error "replica ids must be distinct and below 64"
  else if t.vote_threshold <= 0 || t.vote_threshold > List.length t.members then
    Error "vote threshold out of range"
  else begin
    let bad_operator =
      List.find_opt (fun r -> not (List.exists (fun m -> m.member_name = r.operator) t.members)) t.replicas
    in
    match bad_operator with
    | Some r -> Error (Printf.sprintf "replica %d has unknown operator %s" r.replica_id r.operator)
    | None ->
        let sigs = Sigcheck.create_private () in
        let bad_endorsement =
          List.find_opt
            (fun r ->
              match member t r.operator with
              | None -> true
              | Some m ->
                  not
                    (Sigcheck.verify sigs m.member_pk
                       (D.to_raw (endorsement_payload t ~replica_id:r.replica_id ~pk:r.replica_pk))
                       ~signature:r.endorsement))
            t.replicas
        in
        (match bad_endorsement with
        | Some r -> Error (Printf.sprintf "replica %d has an invalid endorsement" r.replica_id)
        | None -> Ok ())
  end

let encode w t =
  Codec.W.u64 w t.config_no;
  Codec.W.list w
    (fun m ->
      Codec.W.bytes w m.member_name;
      Codec.W.bytes w (Schnorr.public_key_to_bytes m.member_pk))
    t.members;
  Codec.W.list w
    (fun r ->
      Codec.W.u64 w r.replica_id;
      Codec.W.bytes w r.operator;
      Codec.W.bytes w (Schnorr.public_key_to_bytes r.replica_pk);
      Codec.W.bytes w r.endorsement)
    t.replicas;
  Codec.W.u64 w t.vote_threshold

let decode_pk s =
  match Schnorr.public_key_of_bytes s with
  | Some pk -> pk
  | None -> raise (Codec.Decode_error "invalid public key")

let decode r =
  let config_no = Codec.R.u64 r in
  let members =
    Codec.R.list r (fun r ->
        let member_name = Codec.R.bytes r in
        let member_pk = decode_pk (Codec.R.bytes r) in
        { member_name; member_pk })
  in
  let replicas =
    Codec.R.list r (fun r ->
        let replica_id = Codec.R.u64 r in
        let operator = Codec.R.bytes r in
        let replica_pk = decode_pk (Codec.R.bytes r) in
        let endorsement = Codec.R.bytes r in
        { replica_id; operator; replica_pk; endorsement })
  in
  let vote_threshold = Codec.R.u64 r in
  { config_no; members; replicas; vote_threshold }

let serialize t = Codec.encode (fun w -> encode w t)
let deserialize s = Codec.decode s decode
let equal a b = String.equal (serialize a) (serialize b)
