(** An access-controlled bank.

    Unlike {!Smallbank} (whose accounts are numbered and world-writable, as
    in the benchmark), accounts here are owned by client signing keys: only
    the key that opened an account can withdraw from or transfer out of it.
    Stored procedures see the authenticated caller (§2: "clients ...
    identified by their signing keys"), and because the caller identity is
    part of the signed request, misexecution of an access-control check is
    caught by audit replay like any other fraud. *)

val app : unit -> Iaccf_core.App.t

val owner_hex : Iaccf_crypto.Schnorr.public_key -> string
(** The account identifier for a client key (hex of the key bytes). *)
