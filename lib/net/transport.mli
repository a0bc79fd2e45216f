(** The transport seam between core logic and a backend.

    Core components only ever see a [Wire.t Iaccf_sim.Network.t]. On the
    simulator backend nothing is attached and every address is in-process.
    On the socket backend, {!attach} installs the network's gateway
    (out-of-process sends become CRC-framed envelopes on the endpoint)
    and the endpoint's frame handler (inbound envelopes are injected back
    into the network's scheduler). Core logic cannot tell the difference;
    the wiring layer picks the backend. *)

type t

val attach :
  ?obs:Iaccf_obs.Obs.t ->
  network:Iaccf_core.Wire.t Iaccf_sim.Network.t ->
  endpoint:Endpoint.t ->
  unit ->
  t
(** Connect a simulator network to a socket endpoint. Inbound envelope
    sources are learned as return routes. Undecodable (but CRC-valid)
    payloads are dropped and counted as [net.dropped.garbage]. *)

val set_on_request : t -> (src:int -> Iaccf_types.Request.t -> unit) -> unit
(** Observe inbound client requests before injection — the serve runtime
    uses this to bind client public keys to their network addresses, so
    replica replies route back over the learned connection. *)
