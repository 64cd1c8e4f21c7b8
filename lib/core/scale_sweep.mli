(** Internet-scale multi-origin propagation experiment ([beatbgp scale]).

    Generates a {!Netsim_topo.Generator.generate_scale} topology,
    propagates a spread of stub-origin prefixes (fanned out over the
    domain pool in contiguous chunks, one
    {!Netsim_bgp.Rib_cache.run_batch} call per chunk, via
    {!Netsim_par.Pool.map_batches}), and reports aggregate routing
    statistics.  All output derives from the routing states alone, so
    it is byte-identical for any [NETSIM_DOMAINS] value, chunk size
    and RIB-cache setting — the property the [make verify] golden
    matrix pins down. *)

type params = {
  sp_scale : Netsim_topo.Generator.scale_params;
  sp_origins : int;  (** Stub prefixes to propagate (clamped to stubs). *)
  sp_batch : int;
      (** Origins per pool task: the chunk size handed to
          {!Netsim_par.Pool.map_batches}.  It sets the unit of
          parallel work, never the result. *)
  sp_check : bool;
      (** Recompute every state with {!Netsim_bgp.Propagate.run}
          outside the cache and pool and compare
          ({!Netsim_bgp.Propagate.equal}).  This checks the cache and
          the fan-out, not the kernel: both sides run the same kernel.
          The independent check against the Set-based reference is in
          [test/test_scale.ml]. *)
}

val default_params : params
(** {!Netsim_topo.Generator.scale_params} (≈74.5k ASes), 64 origins,
    16 origins per pool task, no check. *)

val small_params : params
(** Same, over {!Netsim_topo.Generator.small_scale_params} (≈600
    ASes). *)

val states :
  params -> Netsim_topo.Topology.t -> Netsim_bgp.Propagate.state array
(** The sweep's fan-out alone: one state per picked origin, in origin
    order, as {!run} aggregates them. *)

val run : params -> (string, string) result
(** The rendered report, or an error (cap violation from the
    generator, or a differential-check failure naming the origins). *)
