(** Internet-scale multi-origin propagation experiment ([beatbgp scale]).

    Generates a {!Netsim_topo.Generator.generate_scale} topology,
    propagates a spread of stub-origin prefixes (fanned out over the
    domain pool by {!Netsim_par.Pool.map_batches}, 16 origins per
    task — the unit of parallel work, never the result, which the
    report prints as the batch size), and reports aggregate routing
    statistics.  Each state is reduced to a per-origin summary inside
    its pool task, so no state outlives its task and the RIB cache is
    never touched.  All output derives from the routing states alone,
    so it is byte-identical for any [NETSIM_DOMAINS] value and
    RIB-cache setting — the property the scale golden rules in
    [test/dune] pin down. *)

type params = {
  sp_scale : Netsim_topo.Generator.scale_params;
  sp_origins : int;  (** Stub prefixes to propagate (clamped to stubs). *)
  sp_check : bool;
      (** Recompute every origin with a second
          {!Netsim_bgp.Propagate.run} inside its pool task and compare
          ({!Netsim_bgp.Propagate.equal}).  Both sides run the same
          kernel, so this checks run-to-run determinism under the
          pool, not the kernel; the independent check against the
          Set-based reference is in [test/test_scale.ml]. *)
}

val default_params : params
(** {!Netsim_topo.Generator.scale_params} (≈74.5k ASes), 64 origins,
    no check. *)

val small_params : params
(** Same, over {!Netsim_topo.Generator.small_scale_params} (≈600
    ASes). *)

val map :
  params ->
  Netsim_topo.Topology.t ->
  (Netsim_bgp.Propagate.state -> 'a) ->
  'a array
(** The sweep's fan-out alone: [map p topo f] propagates each picked
    origin with {!Netsim_bgp.Propagate.run} and applies [f] to the
    state inside the same pool task, returning the results in origin
    order.  Only [f]'s results leave the tasks. *)

val run : params -> (string, string) result
(** The rendered report, or an error (cap violation from the
    generator, or a differential-check failure naming the origins). *)
