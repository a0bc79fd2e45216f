type secret_key = { x : Group.scalar; seed : string; pk_bytes : string }

(* [table] is the key's comb (Group.make_table y); built on demand for
   keys that verify repeatedly (replica keys, chatty clients). The table
   is immutable after build, so concurrent readers are safe; a racing
   rebuild just wastes one build. *)
type public_key = { y : Group.elt; y_bytes : string; mutable table : Group.table option }

let public_key_equal a b = String.equal a.y_bytes b.y_bytes

let nonzero_scalar v = if Group.scalar_is_zero v then Group.scalar_one else v

let make_public x =
  let y = Group.pow_g x in
  { y; y_bytes = Group.element_to_bytes y; table = None }

let keypair_of_seed seed =
  let x = nonzero_scalar (Group.scalar_of_bytes (Sha256.digest_concat [ "iaccf-sk"; seed ])) in
  let pk = make_public x in
  let sk = { x; seed = Sha256.digest_concat [ "iaccf-nonce-key"; seed ]; pk_bytes = pk.y_bytes } in
  (sk, pk)

let public_key sk = make_public sk.x
let public_key_to_bytes pk = pk.y_bytes

let public_key_of_bytes s =
  match Group.element_of_bytes s with
  | None -> None
  | Some y -> Some { y; y_bytes = Group.element_to_bytes y; table = None }

let precompute pk =
  match pk.table with
  | Some _ -> ()
  | None -> pk.table <- Some (Group.make_table pk.y)

let has_table pk = pk.table <> None

let challenge r_bytes pk_bytes digest =
  Group.scalar_of_bytes (Sha256.digest_concat [ r_bytes; pk_bytes; digest ])

let sign sk digest =
  if String.length digest <> 32 then invalid_arg "Schnorr.sign: digest must be 32 bytes";
  let pk_bytes = sk.pk_bytes in
  let k = nonzero_scalar (Group.scalar_of_bytes (Hmac.mac ~key:sk.seed digest)) in
  let r = Group.pow_g k in
  let r_bytes = Group.element_to_bytes r in
  let e = challenge r_bytes pk_bytes digest in
  let s = Group.scalar_mul_add e sk.x k in
  Group.scalar_to_bytes e ^ Group.scalar_to_bytes s

let verify pk digest ~signature =
  String.length digest = 32
  && String.length signature = 64
  &&
  let e_bytes = String.sub signature 0 32 in
  match
    (Group.scalar_of_canonical e_bytes, Group.scalar_of_canonical (String.sub signature 32 32))
  with
  | Some e, Some s ->
      (* R' = g^s * y^(-e). A key with a table shares g's squaring chain
         in one pass; others pay a 4-bit window chain for y. *)
      let ne = Group.scalar_neg e in
      let r' =
        match pk.table with
        | Some table -> Group.pow_g_table s table ne
        | None -> Group.mul (Group.pow_g s) (Group.pow pk.y ne)
      in
      String.equal e_bytes
        (Group.scalar_to_bytes (challenge (Group.element_to_bytes r') pk.y_bytes digest))
  | _ -> false
