(** End-to-end MinRTT samples for flow walks.

    Combines the deterministic propagation floor with the stochastic
    congestion components and a small multiplicative jitter modelling
    what TCP's MinRTT estimator sees over a session. *)

type flow = {
  walk : Netsim_bgp.Walk.t;
  terminal : Propagation.terminal;
  access : Congestion.entity option;
      (** Client last-mile segment, if the flow has one. *)
  dest_net : Congestion.entity option;
      (** Destination network segment shared by all routes. *)
  extra_ms : float;
      (** Deterministic extra RTT beyond the walk — e.g. carriage on a
          private WAN whose cable graph differs from the geodesic. *)
}

val make_flow :
  ?access:Congestion.entity ->
  ?dest_net:Congestion.entity ->
  ?extra_ms:float ->
  terminal:Propagation.terminal ->
  Netsim_bgp.Walk.t ->
  flow

val floor_ms :
  Params.t -> Netsim_topo.Topology.t -> Congestion.t -> flow -> float
(** Propagation + stable per-prefix access base; no time-varying or
    random components.  The congestion state supplies the per-access
    base draw. *)

val samples_ms :
  Congestion.t ->
  rng:Netsim_prng.Splitmix.t ->
  time_min:float ->
  count:int ->
  flow ->
  float array
(** [count] MinRTT observations in one window: floor + per-link
    queueing and episodes + shared access/destination episodes, times
    one jitter draw from [rng] per sample.  Floor and congestion are
    computed once per call; values and [rng]'s final state equal
    [count] successive {!sample_ms} calls bit for bit.  Metrics: one
    [add] to [latency.rtt.samples], one [latency.rtt.ms] observation
    per sample. *)

val sample_ms :
  Congestion.t ->
  rng:Netsim_prng.Splitmix.t ->
  time_min:float ->
  flow ->
  float
(** One MinRTT observation at a point in time: [samples_ms ~count:1]. *)

val median_of_samples :
  Congestion.t ->
  rng:Netsim_prng.Splitmix.t ->
  time_min:float ->
  count:int ->
  flow ->
  float
(** Median of {!samples_ms} (jitter varies; congestion state is that
    of [time_min]). *)

val pooled_samples_ms :
  Congestion.t ->
  rng:Netsim_prng.Splitmix.t ->
  windows:Netsim_traffic.Window.t list ->
  count:int ->
  flow ->
  float array
(** One flow's samples pooled over a horizon: [count] {!samples_ms} at
    each window's midpoint, in list order, concatenated. *)

val pooled_median_ms :
  Congestion.t ->
  rng:Netsim_prng.Splitmix.t ->
  windows:Netsim_traffic.Window.t list ->
  count:int ->
  flow ->
  float
(** Median of {!pooled_samples_ms}. *)
