(** Stored-procedure applications (§2).

    A service's logic is a set of named stored procedures executed
    deterministically against the transactional key-value store. The same
    procedures run on replicas during consensus and on auditors during
    replay (Alg. 4), so misexecution is detectable by re-execution.

    Procedure names beginning with ["gov/"] are reserved for the built-in
    governance procedures (§5.1), which are part of every application. *)

type context = {
  caller : Iaccf_crypto.Schnorr.public_key;  (** the signing client *)
  tx : Iaccf_kv.Store.tx;
  config : Iaccf_types.Config.t;  (** configuration in force *)
}

type procedure = context -> string -> (string, string) result
(** [procedure ctx args] returns [Ok output] or [Error reason]. Failed
    procedures still commit (with an error output) so that the ledger
    records them; they must not write. *)

type t

val create : (string * procedure) list -> t
(** @raise Invalid_argument on duplicate names or reserved ["gov/"] names. *)

val execute :
  t ->
  config:Iaccf_types.Config.t ->
  caller:Iaccf_crypto.Schnorr.public_key ->
  store:Iaccf_kv.Store.t ->
  proc:string ->
  args:string ->
  string * Iaccf_crypto.Digest32.t
(** Run one procedure in a fresh transaction and commit it. Returns the
    encoded output [o] (a tagged ok/error string) and the write-set hash.
    Unknown procedures yield an error output with an empty write set. *)

val execute_ws :
  t ->
  config:Iaccf_types.Config.t ->
  caller:Iaccf_crypto.Schnorr.public_key ->
  store:Iaccf_kv.Store.t ->
  proc:string ->
  args:string ->
  string * Iaccf_crypto.Digest32.t * (string * Iaccf_kv.Store.write) list
(** Like {!execute} but additionally returns the normalized write set whose
    digest is the write-set hash, so replicas can index which transaction
    last wrote each key and observers can serve verifiable reads. *)

val config_key : string
(** Reserved key under which a passed referendum installs the serialized
    next configuration; replicas watch it to trigger reconfiguration. *)

val output_ok : string -> string
(** Encode a successful output the way [execute] does. *)

val decode_output : string -> (string, string) result
