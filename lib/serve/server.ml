module Sm = Netsim_prng.Splitmix
module Generator = Netsim_topo.Generator
module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Announce = Netsim_bgp.Announce
module Propagate = Netsim_bgp.Propagate
module Rib_cache = Netsim_bgp.Rib_cache
module Walk = Netsim_bgp.Walk
module Route = Netsim_bgp.Route
module Deployment = Netsim_cdn.Deployment
module Population = Netsim_traffic.Population
module Prefix = Netsim_traffic.Prefix
module Congestion = Netsim_latency.Congestion
module Params = Netsim_latency.Params
module Propagation = Netsim_latency.Propagation
module Rtt = Netsim_latency.Rtt
module World = Netsim_geo.World
module City = Netsim_geo.City
module Engine = Netsim_dynamics.Engine
module Script = Netsim_dynamics.Script
module Metrics = Netsim_obs.Metrics
module Recorder = Netsim_obs.Recorder
module Pool = Netsim_par.Pool
module Scenario = Beatbgp.Scenario

type config = {
  seed : int;
  base_params : Generator.params;
  n_prefixes : int;
  pop_count : int;
  track : int;
  churn : bool;
  churn_days : int;
  batch : int;
  batch_minutes : float;
}

let config_of_sizes (s : Scenario.sizes) ~pop_count ~track =
  {
    seed = s.Scenario.seed;
    base_params = s.Scenario.base;
    n_prefixes = s.Scenario.n_prefixes;
    pop_count;
    track;
    churn = false;
    churn_days = max 1 (int_of_float s.Scenario.days);
    batch = 16;
    batch_minutes = 15.;
  }

let default_config = config_of_sizes Scenario.default_sizes ~pop_count:40 ~track:8
let small_config = config_of_sizes Scenario.test_sizes ~pop_count:12 ~track:4

type counts = {
  mutable q_catchment : int;
  mutable q_egress : int;
  mutable q_rtt : int;
  mutable q_explain : int;
  mutable q_stats : int;
  mutable q_snapshot : int;
  mutable q_prom : int;
  mutable q_advance : int;
  mutable q_quit : int;
  mutable q_invalid : int;
}

let zero_counts () =
  {
    q_catchment = 0;
    q_egress = 0;
    q_rtt = 0;
    q_explain = 0;
    q_stats = 0;
    q_snapshot = 0;
    q_prom = 0;
    q_advance = 0;
    q_quit = 0;
    q_invalid = 0;
  }

(* One client's view of the daemon: its own query counters and stop
   flag.  STATS reports the session's numbers, so a client served
   concurrently sees exactly the counters it would see served alone. *)
type session = {
  s_counts : counts;
  mutable s_queries : int;
  mutable s_stopped : bool;
}

let fresh_session () =
  { s_counts = zero_counts (); s_queries = 0; s_stopped = false }

type t = {
  cfg : config;
  engine : Engine.t;
  cong : Congestion.t;
  asid : int;
  pops : int list;
  prefixes : Prefix.t array;
  session0 : session;  (** the [handle_line] session *)
  mutable pop_index : (int, Prefix.t list) Hashtbl.t option;
  mutable queries : int;  (** across all sessions *)
  mutable stopped : bool;
}

(* ---- construction ----------------------------------------------------- *)

let schedule_churn cfg ~root ~topo engine =
  let link_ids = Array.init (Topology.link_count topo) (fun i -> i) in
  Script.schedule_all engine
    (Script.flaps
       (Sm.of_label root "serve.flaps")
       ~link_ids ~mean_interval_min:120. ~mean_down_min:15. ~days:cfg.churn_days);
  Script.schedule_all engine
    (Script.congestion_bursts
       (Sm.of_label root "serve.bursts")
       ~link_ids ~mean_interval_min:90. ~median_extra_ms:30. ~sigma:0.6
       ~mean_duration_min:45. ~days:cfg.churn_days)

(* The first [track] distinct client ASes in prefix order. *)
let client_origins cfg prefixes =
  let seen = Hashtbl.create 64 and acc = ref [] in
  Array.iter
    (fun (p : Prefix.t) ->
      if Hashtbl.length seen < cfg.track && not (Hashtbl.mem seen p.Prefix.asid)
      then begin
        Hashtbl.add seen p.Prefix.asid ();
        acc := p.Prefix.asid :: !acc
      end)
    prefixes;
  List.rev !acc

let build cfg =
  let root = Sm.create cfg.seed in
  let base =
    Generator.generate { cfg.base_params with Generator.seed = cfg.seed }
  in
  let spec =
    Deployment.default_spec ~name:"CONTENT"
      ~pop_metros:(Scenario.spread_metros cfg.pop_count)
  in
  let deployment = Deployment.deploy base ~rng:(Sm.of_label root "deploy") spec in
  let topo = deployment.Deployment.topo in
  let prefixes =
    Population.generate topo
      ~rng:(Sm.of_label root "population")
      ~n_prefixes:cfg.n_prefixes
  in
  let cong = Congestion.create Params.default topo ~seed:(cfg.seed + 1) in
  let engine = Engine.create ~congestion:cong topo in
  Engine.track engine (Announce.default ~origin:deployment.Deployment.asid);
  List.iter
    (fun origin -> Engine.track engine (Announce.default ~origin))
    (client_origins cfg prefixes);
  if cfg.churn then schedule_churn cfg ~root ~topo engine;
  {
    cfg;
    engine;
    cong;
    asid = deployment.Deployment.asid;
    pops = deployment.Deployment.pops;
    prefixes;
    session0 = fresh_session ();
    pop_index = None;
    queries = 0;
    stopped = false;
  }

exception Bad of string

let of_snapshot cfg (snap : Snapshot.t) =
  try
    let n = Topology.as_count snap.Snapshot.base in
    let n_cities = Array.length World.cities in
    if snap.Snapshot.asid < 0 || snap.Snapshot.asid >= n then
      raise (Bad (Printf.sprintf "provider AS %d out of range" snap.Snapshot.asid));
    List.iter
      (fun m ->
        if m < 0 || m >= n_cities then
          raise (Bad (Printf.sprintf "PoP metro %d out of range" m)))
      snap.Snapshot.pops;
    Array.iter
      (fun (p : Prefix.t) ->
        if p.Prefix.asid < 0 || p.Prefix.asid >= n then
          raise (Bad (Printf.sprintf "prefix %d: AS %d out of range" p.Prefix.id p.Prefix.asid));
        if p.Prefix.city < 0 || p.Prefix.city >= n_cities then
          raise (Bad (Printf.sprintf "prefix %d: city %d out of range" p.Prefix.id p.Prefix.city)))
      snap.Snapshot.prefixes;
    let cong =
      Congestion.create Params.default snap.Snapshot.base
        ~seed:(snap.Snapshot.seed + 1)
    in
    List.iter
      (fun (l, ms) -> Congestion.add_event_delay_ms cong ~link_id:l ~ms)
      snap.Snapshot.overlays;
    let engine =
      try
        Engine.restore ~congestion:cong ~base:snap.Snapshot.base
          ~down:snap.Snapshot.down_links ~now:snap.Snapshot.now_min ()
      with Invalid_argument msg -> raise (Bad msg)
    in
    List.iter
      (fun (r : Snapshot.rib) ->
        let config = Announce.default ~origin:r.Snapshot.rib_origin in
        let state =
          try
            Propagate.of_rib_arrays ~topo:(Engine.topology engine) ~config
              ~cust:r.Snapshot.rib_cust ~peer:r.Snapshot.rib_peer
              ~prov:r.Snapshot.rib_prov
          with Invalid_argument msg ->
            raise
              (Bad
                 (Printf.sprintf "tracked origin %d: %s" r.Snapshot.rib_origin
                    msg))
        in
        Engine.track_state engine config ~state ~active:r.Snapshot.rib_active)
      snap.Snapshot.ribs;
    Script.schedule_all engine snap.Snapshot.pending;
    Ok
      {
        cfg = { cfg with seed = snap.Snapshot.seed };
        engine;
        cong;
        asid = snap.Snapshot.asid;
        pops = snap.Snapshot.pops;
        prefixes = snap.Snapshot.prefixes;
        session0 = fresh_session ();
        pop_index = None;
        queries = 0;
        stopped = false;
      }
  with Bad msg -> Error ("snapshot: " ^ msg)

let snapshot t =
  let base = Engine.base_topology t.engine in
  let overlays =
    Array.to_list (Topology.links base)
    |> List.filter_map (fun (l : Relation.link) ->
           let ms = Congestion.event_delay_ms t.cong ~link_id:l.Relation.id in
           if ms > 0. then Some (l.Relation.id, ms) else None)
  in
  {
    Snapshot.git_sha = Version.git_sha ();
    created_gen = Topology.generation base;
    seed = t.cfg.seed;
    now_min = Engine.now t.engine;
    base;
    down_links = Engine.down_links t.engine;
    asid = t.asid;
    pops = t.pops;
    prefixes = t.prefixes;
    ribs =
      Engine.tracked_prefixes t.engine
      |> List.map (fun (origin, active, state) ->
             let cust, peer, prov = Propagate.rib_arrays state in
             {
               Snapshot.rib_origin = origin;
               rib_active = active;
               rib_cust = cust;
               rib_peer = peer;
               rib_prov = prov;
             });
    pending = Engine.pending t.engine;
    overlays;
  }

(* ---- query answering --------------------------------------------------

   Every read-only verb is split into a PLAN step and a pure RUN
   thunk.  Planning runs on the coordinating domain in request order:
   it parses arguments and touches every piece of shared mutable
   state — the RIB cache via [state_for] / [pv_state], the
   lazily-built PoP index, the counters — capturing the resolved
   routing states in the thunk's closure.  The returned thunk only
   reads immutable data (walks, scans, formatting), so the concurrent
   executor can run it on any pool domain.  Because all cache traffic
   happens at plan time in request order, cache hit/miss counters and
   response bytes are identical at any domain count, and identical to
   the sequential loop. *)

let const r () = r

(* Warm state toward an origin: the engine's continuously-reconverged
   state for tracked origins, the RIB cache (exact memoized
   Propagate.run on the current topology) for everything else. *)
let state_for t ~origin =
  match Engine.routing t.engine ~origin with
  | s -> s
  | exception Not_found ->
      Rib_cache.run (Engine.topology t.engine) (Announce.default ~origin)

let prefix_of t s =
  match int_of_string_opt s with
  | Some id when id >= 0 && id < Array.length t.prefixes -> Ok t.prefixes.(id)
  | Some id ->
      Error
        (Printf.sprintf "unknown prefix %d (known: 0..%d)" id
           (Array.length t.prefixes - 1))
  | None -> Error ("not a prefix id: " ^ s)

let city_name m = World.cities.(m).City.name

(* The provider's client-to-PoP map: geographically nearest PoP, ties
   broken by PoP list order (deterministic; the list is persisted). *)
let nearest_pop t ~city =
  let c = World.cities.(city) in
  match t.pops with
  | [] -> invalid_arg "nearest_pop: no PoPs"
  | p0 :: rest ->
      let best = ref p0 and best_d = ref (City.distance_km c World.cities.(p0)) in
      List.iter
        (fun m ->
          let d = City.distance_km c World.cities.(m) in
          if d < !best_d then begin
            best := m;
            best_d := d
          end)
        rest;
      !best

let plan_catchment t arg =
  match prefix_of t arg with
  | Error e -> const (Error e)
  | Ok (p : Prefix.t) ->
      if p.Prefix.asid = t.asid then
        const
          (Error (Printf.sprintf "prefix %d sits in the provider AS" p.Prefix.id))
      else begin
        let st = state_for t ~origin:t.asid in
        fun () ->
          match
            Walk.from_metro st ~src:p.Prefix.asid ~start_metro:p.Prefix.city
          with
          | None ->
              Ok
                (Printf.sprintf "prefix=%d client_as=%d site=unreachable"
                   p.Prefix.id p.Prefix.asid)
          | Some w ->
              let m = Walk.entry_metro w in
              Ok
                (Printf.sprintf "prefix=%d client_as=%d site=%d site_city=%s"
                   p.Prefix.id p.Prefix.asid m (city_name m))
      end

(* Private peering beats public peering beats transit — the provider
   egress-preference order used throughout the paper. *)
let kind_rank = function
  | Relation.Peer_private -> 0
  | Relation.Peer_public -> 1
  | Relation.C2p -> 2

let best_received routes =
  List.sort
    (fun (a : Route.t) (b : Route.t) ->
      compare
        ( kind_rank a.Route.via_link.Relation.kind,
          a.Route.path_len,
          a.Route.via_link.Relation.id )
        ( kind_rank b.Route.via_link.Relation.kind,
          b.Route.path_len,
          b.Route.via_link.Relation.id ))
    routes
  |> function
  | [] -> None
  | r :: _ -> Some r

(* The client prefixes a PoP fronts (nearest-PoP assignment, in prefix
   table order).  A pure function of the immutable PoP list and prefix
   table, so it is computed once and memoized — EGRESS planning then
   touches exactly the prefixes it needs instead of re-scanning the
   whole population against every PoP. *)
let pop_prefixes t pop =
  let idx =
    match t.pop_index with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 64 in
        Array.iter
          (fun (p : Prefix.t) ->
            if p.Prefix.asid <> t.asid then begin
              let m = nearest_pop t ~city:p.Prefix.city in
              let cur =
                match Hashtbl.find_opt h m with Some l -> l | None -> []
              in
              Hashtbl.replace h m (p :: cur)
            end)
          t.prefixes;
        let ms = Hashtbl.fold (fun m _ acc -> m :: acc) h [] in
        List.iter (fun m -> Hashtbl.replace h m (List.rev (Hashtbl.find h m))) ms;
        t.pop_index <- Some h;
        h
  in
  match Hashtbl.find_opt idx pop with Some l -> l | None -> []

let plan_egress t pop =
  if not (List.mem pop t.pops) then
    const (Error (Printf.sprintf "unknown pop %d (not a provider PoP metro)" pop))
  else begin
    (* Resolve the per-prefix states now, in prefix order — the same
       cache access order the pre-index scan performed. *)
    let states =
      List.map
        (fun (p : Prefix.t) -> state_for t ~origin:p.Prefix.asid)
        (pop_prefixes t pop)
    in
    fun () ->
      let total = ref 0
      and priv = ref 0
      and pub = ref 0
      and transit = ref 0
      and unreachable = ref 0 in
      List.iter
        (fun st ->
          incr total;
          match best_received (Propagate.received_at_metro st t.asid ~metro:pop)
          with
          | None -> incr unreachable
          | Some r -> (
              match r.Route.via_link.Relation.kind with
              | Relation.Peer_private -> incr priv
              | Relation.Peer_public -> incr pub
              | Relation.C2p -> incr transit))
        states;
      Ok
        (Printf.sprintf
           "pop=%d city=%s prefixes=%d private=%d public=%d transit=%d \
            unreachable=%d"
           pop (city_name pop) !total !priv !pub !transit !unreachable)
  end

let origin_of t arg =
  match String.lowercase_ascii arg with
  | "anycast" -> Ok t.asid
  | _ -> (
      match int_of_string_opt arg with
      | Some o
        when List.exists
               (fun (og, _, _) -> og = o)
               (Engine.tracked_prefixes t.engine) ->
          Ok o
      | Some o ->
          Error
            (Printf.sprintf
               "origin %d is not tracked (use 'anycast' or a tracked origin AS)"
               o)
      | None -> Error ("not an origin: " ^ arg))

let plan_rtt t client arg =
  match prefix_of t client with
  | Error e -> const (Error e)
  | Ok (p : Prefix.t) -> (
      match origin_of t arg with
      | Error e -> const (Error e)
      | Ok origin ->
          if p.Prefix.asid = origin then
            const
              (Error
                 (Printf.sprintf "client prefix %d sits in origin AS %d"
                    p.Prefix.id origin))
          else begin
            let st = state_for t ~origin in
            fun () ->
              match
                Walk.from_metro st ~src:p.Prefix.asid ~start_metro:p.Prefix.city
              with
              | None ->
                  Ok
                    (Printf.sprintf "client=%d origin=%d rtt=unreachable"
                       p.Prefix.id origin)
              | Some w ->
                  let flow =
                    Rtt.make_flow
                      ~access:(Congestion.Access p.Prefix.id)
                      ~terminal:Propagation.At_entry w
                  in
                  let floor =
                    Rtt.floor_ms (Congestion.params t.cong)
                      (Engine.topology t.engine) t.cong flow
                  in
                  let churn =
                    List.fold_left
                      (fun acc (h : Walk.hop) ->
                        acc
                        +. Congestion.event_delay_ms t.cong
                             ~link_id:h.Walk.link.Relation.id)
                      0. w.Walk.hops
                  in
                  Ok
                    (Printf.sprintf
                       "client=%d origin=%d floor_ms=%.3f churn_ms=%.3f \
                        rtt_ms=%.3f"
                       p.Prefix.id origin floor churn (floor +. churn))
          end)

(* ---- EXPLAIN: the decision chain behind a routing outcome ------------- *)

module Decision = Netsim_bgp.Decision

(* Provenance state toward an origin.  Always recomputed on the
   current topology (via the RIB cache, which upgrades plain cached
   entries in place): warm engine states loaded from a snapshot carry
   no arena, and recomputation is what makes seed-built and
   snapshot-loaded daemons answer EXPLAIN byte-identically. *)
let pv_state t ~origin =
  Rib_cache.run ~provenance:true (Engine.topology t.engine)
    (Announce.default ~origin)

(* The prefix argument names the destination: "anycast" for the
   provider's prefix, or a client prefix id for its origin AS. *)
let explain_origin t arg =
  match String.lowercase_ascii arg with
  | "anycast" -> Ok (t.asid, "anycast")
  | _ ->
      Result.bind (prefix_of t arg) (fun (p : Prefix.t) ->
          Ok (p.Prefix.asid, string_of_int p.Prefix.id))

let phase_name = function
  | Route.Customer -> "customer (Gao-Rexford phase 1)"
  | Route.Peer -> "peer (Gao-Rexford phase 2)"
  | Route.Provider -> "provider (Gao-Rexford phase 3)"

let floor_of_walk t w =
  let flow = Rtt.make_flow ~terminal:Propagation.At_entry w in
  Rtt.floor_ms (Congestion.params t.cong) (Engine.topology t.engine) t.cong
    flow

(* The latency-optimal counterfactual (the paper's Fig. 1 gap, per
   AS): rate every received announcement by its deterministic RTT
   floor over the same walk model, and report what separates BGP's
   choice from the fastest alternative. *)
let counterfactual t st a (d : Propagate.decision) =
  let rated =
    List.filter_map
      (fun (r : Route.t) ->
        match Walk.of_route st ~src:a ~route:r with
        | None -> None
        | Some w -> Some (r, floor_of_walk t w))
      (Propagate.received st a)
  in
  let chosen =
    List.find_opt
      (fun ((r : Route.t), _) ->
        r.Route.klass = d.Propagate.d_klass
        && r.Route.next_hop = d.Propagate.d_next_hop
        && r.Route.via_link.Relation.id = d.Propagate.d_link_id)
      rated
  in
  match chosen with
  | None -> "counterfactual: unavailable (chosen route has no walk)"
  | Some ((chosen_r, chosen_ms) as c) ->
      let best =
        List.fold_left
          (fun ((_, bms) as b) ((_, ms) as cand) ->
            if ms < bms then cand else b)
          c rated
      in
      let best_r, best_ms = best in
      if best_r == chosen_r then
        Printf.sprintf
          "counterfactual: chosen route is latency-optimal \
           (floor_ms=%.3f, %d alternatives)"
          chosen_ms
          (List.length rated - 1)
      else
        Printf.sprintf
          "counterfactual: chosen_ms=%.3f best_ms=%.3f delta_ms=%.3f \
           best_class=%s best_next_hop=%d best_link=%d separated_by=%s"
          chosen_ms best_ms (chosen_ms -. best_ms)
          (Route.klass_to_string best_r.Route.klass)
          best_r.Route.next_hop best_r.Route.via_link.Relation.id
          (Decision.discriminator_to_string
             (Decision.discriminator Decision.gao_rexford chosen_r best_r))

let explain_text t st ~origin ~plabel a =
  let header = Printf.sprintf "explain prefix=%s origin_as=%d as=%d" plabel origin a in
  match Propagate.decision st a with
  | None -> header ^ "\nselected: unreachable (no candidate routes)"
  | Some d ->
      let path =
        Propagate.as_path st a |> List.map string_of_int |> String.concat " "
      in
      let runner =
        match d.Propagate.d_runner with
        | None -> "runner-up: none (only candidate)"
        | Some r ->
            Printf.sprintf "runner-up: class=%s next_hop=%d link=%d len=%d"
              (Route.klass_to_string r.Propagate.r_klass)
              r.Propagate.r_next_hop r.Propagate.r_link_id r.Propagate.r_path_len
      in
      String.concat "\n"
        [
          header;
          Printf.sprintf "selected: class=%s next_hop=%d link=%d len=%d path=[%s]"
            (Route.klass_to_string d.Propagate.d_klass)
            d.Propagate.d_next_hop d.Propagate.d_link_id d.Propagate.d_path_len
            path;
          "phase: " ^ phase_name d.Propagate.d_klass;
          Printf.sprintf "candidates: customer=%d peer=%d provider=%d total=%d"
            d.Propagate.d_cand_cust d.Propagate.d_cand_peer
            d.Propagate.d_cand_prov
            (d.Propagate.d_cand_cust + d.Propagate.d_cand_peer
           + d.Propagate.d_cand_prov);
          "tie-break: "
          ^ Netsim_obs.Provenance.rule_to_string d.Propagate.d_rule;
          runner;
          counterfactual t st a d;
        ]

let plan_explain t parg aarg =
  match explain_origin t parg with
  | Error e -> const (Error e)
  | Ok (origin, plabel) -> (
      let n = Topology.as_count (Engine.topology t.engine) in
      match int_of_string_opt aarg with
      | None -> const (Error ("not an AS id: " ^ aarg))
      | Some a when a < 0 || a >= n ->
          const (Error (Printf.sprintf "AS %d out of range (0..%d)" a (n - 1)))
      | Some a when a = origin ->
          const (Error (Printf.sprintf "AS %d is the origin itself" a))
      | Some a ->
          let st = pv_state t ~origin in
          fun () -> Ok (explain_text t st ~origin ~plabel a))

let explain t parg aarg = plan_explain t parg aarg ()

(* Schema-tagged JSONL dump of the whole provenance table toward one
   origin: a header line, then one object per decided AS. *)
let provenance_jsonl t ~origin =
  let st = pv_state t ~origin in
  let n = Topology.as_count (Engine.topology t.engine) in
  let b = Buffer.create (n * 96) in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":%S,\"origin_as\":%d,\"as_count\":%d}\n"
       Netsim_obs.Provenance.schema origin n);
  for x = 0 to n - 1 do
    match Propagate.decision st x with
    | None -> ()
    | Some d ->
        let runner =
          match d.Propagate.d_runner with
          | None -> "null"
          | Some r ->
              Printf.sprintf
                "{\"class\":%S,\"next_hop\":%d,\"link\":%d,\"len\":%d}"
                (Route.klass_to_string r.Propagate.r_klass)
                r.Propagate.r_next_hop r.Propagate.r_link_id
                r.Propagate.r_path_len
        in
        Buffer.add_string b
          (Printf.sprintf
             "{\"as\":%d,\"class\":%S,\"next_hop\":%d,\"link\":%d,\"len\":%d,\
              \"cand_cust\":%d,\"cand_peer\":%d,\"cand_prov\":%d,\
              \"rule\":%S,\"runner\":%s}\n"
             x
             (Route.klass_to_string d.Propagate.d_klass)
             d.Propagate.d_next_hop d.Propagate.d_link_id
             d.Propagate.d_path_len d.Propagate.d_cand_cust
             d.Propagate.d_cand_peer d.Propagate.d_cand_prov
             (Netsim_obs.Provenance.rule_to_string d.Propagate.d_rule)
             runner)
  done;
  Buffer.contents b

(* Only fields that are a deterministic function of (seed, request
   sequence) — so a seed-built and a snapshot-loaded server answer
   STATS byte-identically to the same request stream.  Query counters
   are the session's own: a concurrently-served client reads the same
   STATS it would read served alone. *)
let stats t (s : session) =
  let topo = Engine.topology t.engine in
  let c = s.s_counts in
  Ok
    (String.concat "\n"
       [
         Printf.sprintf "server seed=%d snapshot_schema=%d" t.cfg.seed
           Snapshot.schema_version;
         Printf.sprintf "topology ases=%d links=%d down=%d"
           (Topology.as_count topo) (Topology.link_count topo)
           (List.length (Engine.down_links t.engine));
         Printf.sprintf "engine now_min=%.3f tracked=%d pending=%d"
           (Engine.now t.engine)
           (List.length (Engine.tracked_prefixes t.engine))
           (List.length (Engine.pending t.engine));
         Printf.sprintf "population prefixes=%d pops=%d"
           (Array.length t.prefixes) (List.length t.pops);
         Printf.sprintf
           "queries total=%d catchment=%d egress=%d rtt=%d explain=%d \
            stats=%d snapshot=%d prom=%d advance=%d quit=%d invalid=%d"
           s.s_queries c.q_catchment c.q_egress c.q_rtt c.q_explain c.q_stats
           c.q_snapshot c.q_prom c.q_advance c.q_quit c.q_invalid;
         Printf.sprintf "rib_cache hits=%d misses=%d size=%d" (Rib_cache.hits ())
           (Rib_cache.misses ()) (Rib_cache.size ());
       ])

(* Step the churn engine and leave a flight-recorder trace: ADVANCE
   was the one verb whose state change produced no recorder event, so
   a trace could not distinguish "no churn scheduled" from "never
   advanced".  Wall-clock ns only under the timing gate, mirroring the
   bgp.reconverge site, so default traces stay deterministic. *)
let advance t minutes =
  let before = Engine.events_processed t.engine in
  let t0 = if Recorder.timing () then Unix.gettimeofday () else 0. in
  Engine.run t.engine ~until:(Engine.now t.engine +. minutes);
  if Recorder.enabled () then begin
    let fields =
      Recorder.
        [
          I ("events", Engine.events_processed t.engine - before);
          F ("minutes", minutes);
          F ("t_min", Engine.now t.engine);
        ]
    in
    let fields =
      if Recorder.timing () then
        fields
        @ [ Recorder.I ("ns", int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)) ]
      else fields
    in
    Recorder.record ~kind:"serve.advance" fields
  end

(* Write-barrier verbs: executed on the coordinating domain, never
   with reads in flight. *)
let exec_mutation t (req : Protocol.request) =
  match req with
  | Protocol.Snapshot_to path -> (
      try
        Snapshot.save (snapshot t) ~path;
        Ok ("snapshot written to " ^ path)
      with Sys_error e -> Error e)
  | Protocol.Advance minutes ->
      advance t minutes;
      Ok (Printf.sprintf "now_min=%.3f" (Engine.now t.engine))
  | Protocol.Quit -> Ok "bye"
  | Protocol.Catchment _ | Protocol.Egress _ | Protocol.Rtt _
  | Protocol.Explain _ | Protocol.Stats | Protocol.Prom ->
      assert false

let plan_read t (s : session) (req : Protocol.request) =
  match req with
  | Protocol.Catchment arg -> plan_catchment t arg
  | Protocol.Egress pop -> plan_egress t pop
  | Protocol.Rtt (client, origin) -> plan_rtt t client origin
  | Protocol.Explain (prefix, asn) -> plan_explain t prefix asn
  | Protocol.Stats -> const (stats t s)
  | Protocol.Prom ->
      (* The Prometheus exposition reads the whole registry, which
         pool workers may not touch concurrently — so it is rendered
         at plan time on the coordinating domain. *)
      const (Ok (Netsim_obs.Export_prom.to_string ()))
  | Protocol.Snapshot_to _ | Protocol.Advance _ | Protocol.Quit -> assert false

let handle t (req : Protocol.request) =
  if Protocol.read_only req then plan_read t t.session0 req ()
  else exec_mutation t req

(* ---- the request loop ------------------------------------------------- *)

let count_verb c = function
  | "catchment" -> c.q_catchment <- c.q_catchment + 1
  | "egress" -> c.q_egress <- c.q_egress + 1
  | "rtt" -> c.q_rtt <- c.q_rtt + 1
  | "explain" -> c.q_explain <- c.q_explain + 1
  | "stats" -> c.q_stats <- c.q_stats + 1
  | "snapshot" -> c.q_snapshot <- c.q_snapshot + 1
  | "prom" -> c.q_prom <- c.q_prom + 1
  | "advance" -> c.q_advance <- c.q_advance + 1
  | "quit" -> c.q_quit <- c.q_quit + 1
  | _ -> c.q_invalid <- c.q_invalid + 1

let c_requests = Metrics.counter "serve.requests"
let c_errors = Metrics.counter "serve.errors"
let c_sessions = Metrics.counter "serve.sessions"
let c_rounds = Metrics.counter "serve.rounds"
let h_round_reads = Metrics.histogram "serve.round.reads"

let new_session () =
  Metrics.incr c_sessions;
  fresh_session ()

let record_query t ~q ~verb ~ok =
  if Recorder.enabled () then
    Recorder.(
      record ~kind:"serve.query"
        [
          I ("q", q);
          S ("verb", verb);
          S ("status", (if ok then "ok" else "err"));
          F ("t_min", Engine.now t.engine);
        ])

(* A planned request: everything needed to execute, frame and meter it
   away from the shared state. *)
type work = {
  w_q : int;  (** global query number, assigned at plan time *)
  w_verb : string;
  w_timed : bool;  (** false only for unparseable lines *)
  w_run : unit -> (string, string) result;
}

type ingested =
  | Read of work  (** safe on any pool domain *)
  | Barrier of work
      (** must run on the coordinating domain with no reads in flight *)

(* Parse, count and plan one line for a session. *)
let ingest t (s : session) line =
  t.queries <- t.queries + 1;
  s.s_queries <- s.s_queries + 1;
  Metrics.incr c_requests;
  let q = t.queries in
  match Protocol.parse line with
  | Error e ->
      s.s_counts.q_invalid <- s.s_counts.q_invalid + 1;
      Read { w_q = q; w_verb = "invalid"; w_timed = false; w_run = const (Error e) }
  | Ok req ->
      let verb = Protocol.verb req in
      count_verb s.s_counts verb;
      if Protocol.read_only req then
        let run =
          try plan_read t s req
          with exn ->
            const
              (Error
                 (Printf.sprintf "internal error: %s" (Printexc.to_string exn)))
        in
        Read { w_q = q; w_verb = verb; w_timed = true; w_run = run }
      else
        Barrier
          {
            w_q = q;
            w_verb = verb;
            w_timed = true;
            w_run = (fun () -> exec_mutation t req);
          }

(* Execute a planned work item, then meter, record and frame.  Returns
   the framed response and the wall-clock microseconds. *)
let run_work t (w : work) =
  let t0 = Unix.gettimeofday () in
  let result =
    try w.w_run ()
    with exn ->
      Error (Printf.sprintf "internal error: %s" (Printexc.to_string exn))
  in
  let us = (Unix.gettimeofday () -. t0) *. 1e6 in
  if w.w_timed && Metrics.enabled () then begin
    Metrics.incr (Metrics.counter ("serve.query." ^ w.w_verb));
    Metrics.observe (Metrics.histogram ("serve." ^ w.w_verb ^ ".us")) us
  end;
  match result with
  | Ok body ->
      record_query t ~q:w.w_q ~verb:w.w_verb ~ok:true;
      (Protocol.frame ~ok:true body, us)
  | Error e ->
      Metrics.incr c_errors;
      record_query t ~q:w.w_q ~verb:w.w_verb ~ok:false;
      (Protocol.frame ~ok:false e, us)

(* The sequential reference: plan and run each line immediately.  The
   round executor below must answer every session byte-identically to
   this; tests and the parallel benchmark compare against it. *)
let session_line t (s : session) line =
  let framed =
    match ingest t s line with
    | Read w -> fst (run_work t w)
    | Barrier w ->
        let framed, _ = run_work t w in
        if w.w_verb = "quit" then begin
          s.s_stopped <- true;
          t.stopped <- true
        end;
        framed
  in
  (* Churn advances on request-count boundaries, never wall clock, so
     the response stream is a pure function of the request stream. *)
  if t.cfg.batch > 0 && s.s_queries mod t.cfg.batch = 0 then
    advance t t.cfg.batch_minutes;
  (framed, not s.s_stopped)

let handle_line t line = session_line t t.session0 line

(* ---- the concurrent executor ------------------------------------------

   [run_round] executes one scheduling round over a set of client
   sessions.  PLAN: each session's pending lines are ingested in
   session order, stopping at a write-barrier verb (ADVANCE, SNAPSHOT,
   QUIT), at a churn batch boundary, or at the chunk cap.  EXECUTE:
   all planned reads of the round are fanned out over the domain pool
   in one [Pool.map] — plan order is submission order, so per-task
   metrics and recorder events absorb in plan order and the registry
   is byte-identical at any domain count.  BARRIER: each session's
   pending mutation (and batch-boundary advance) then runs on the
   coordinating domain, in session order, with no reads in flight.

   The produced interleaving is serializable as "[all round reads]
   [mutations in session order]": reads of a round see the
   pre-mutation state, exactly as if their session had been served
   alone up to that point.  Responses per session are therefore
   byte-identical to the sequential loop — the property the QCheck
   suite and `make verify` enforce across domain counts. *)

let max_round_chunk = 32

let run_round ?on_latency t (sessions : session array) ~pull ~deliver =
  let n = Array.length sessions in
  let reads = ref [] and n_reads = ref 0 in
  let barriers = Array.make n None in
  let boundary = Array.make n false in
  let progressed = ref false in
  for i = 0 to n - 1 do
    let s = sessions.(i) in
    let stop = ref s.s_stopped in
    let chunk = ref 0 in
    while not !stop do
      if !chunk >= max_round_chunk then stop := true
      else
        match pull i with
        | None -> stop := true
        | Some line ->
            progressed := true;
            incr chunk;
            (match ingest t s line with
            | Read w ->
                reads := (i, w) :: !reads;
                incr n_reads
            | Barrier w ->
                barriers.(i) <- Some w;
                stop := true);
            if t.cfg.batch > 0 && s.s_queries mod t.cfg.batch = 0 then begin
              boundary.(i) <- true;
              stop := true
            end
    done
  done;
  if !progressed then begin
    Metrics.incr c_rounds;
    if Metrics.enabled () then
      Metrics.observe h_round_reads (float_of_int !n_reads)
  end;
  let reads = Array.of_list (List.rev !reads) in
  let results = Pool.map (fun ((_, w) : int * work) -> run_work t w) reads in
  Array.iteri
    (fun k ((i, _) : int * work) ->
      let framed, us = results.(k) in
      (match on_latency with Some f -> f i us | None -> ());
      deliver i framed)
    reads;
  for i = 0 to n - 1 do
    (match barriers.(i) with
    | Some w ->
        let framed, us = run_work t w in
        (match on_latency with Some f -> f i us | None -> ());
        deliver i framed;
        if w.w_verb = "quit" then begin
          sessions.(i).s_stopped <- true;
          t.stopped <- true
        end
    | None -> ());
    if boundary.(i) then advance t t.cfg.batch_minutes
  done;
  !progressed

let serve_streams ?on_latency t streams =
  let n = Array.length streams in
  let sessions = Array.init n (fun _ -> new_session ()) in
  let remaining = Array.map (fun l -> ref l) streams in
  let out = Array.make n [] in
  let pull i =
    match !(remaining.(i)) with
    | [] -> None
    | line :: rest ->
        remaining.(i) := rest;
        Some line
  in
  let deliver i framed = out.(i) <- framed :: out.(i) in
  while run_round ?on_latency t sessions ~pull ~deliver do
    ()
  done;
  Array.map List.rev out

(* ---- the serving loop ------------------------------------------------ *)

let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Per-connection state: raw bytes in, complete request lines queued,
   framed responses out (written incrementally, so under O_NONBLOCK
   one stalled client cannot wedge the daemon).  A TCP connection
   reads and writes one socket; the stdio connection reads one fd and
   writes another, and the serving loop never closes it. *)
type conn = {
  c_in : Unix.file_descr;
  c_out : Unix.file_descr;
  c_owned : bool;  (** closed by the serving loop once finished *)
  c_session : session;
  c_rbuf : Buffer.t;
  c_lines : string Queue.t;
  c_outq : string Queue.t;
  mutable c_out_off : int;
      (** bytes of [Queue.peek c_outq] already written *)
  mutable c_eof : bool;
  mutable c_dead : bool;
}

(* A peer that sends this much without a newline is not speaking the
   protocol; drop it rather than buffer unboundedly. *)
let max_buffered_input = 1 lsl 20

let new_conn ~owned c_in c_out =
  {
    c_in;
    c_out;
    c_owned = owned;
    c_session = new_session ();
    c_rbuf = Buffer.create 256;
    c_lines = Queue.create ();
    c_outq = Queue.create ();
    c_out_off = 0;
    c_eof = false;
    c_dead = false;
  }

let split_lines c =
  let data = Buffer.contents c.c_rbuf in
  let n = String.length data in
  let start = ref 0 in
  (try
     while true do
       let i = String.index_from data !start '\n' in
       Queue.push (String.sub data !start (i - !start)) c.c_lines;
       start := i + 1
     done
   with Not_found -> ());
  if !start > 0 then begin
    Buffer.clear c.c_rbuf;
    Buffer.add_substring c.c_rbuf data !start (n - !start)
  end;
  if Buffer.length c.c_rbuf > max_buffered_input then c.c_dead <- true

let read_conn c =
  let buf = Bytes.create 65536 in
  match Unix.read c.c_in buf 0 (Bytes.length buf) with
  | 0 ->
      (* A final line without a newline is still a request. *)
      c.c_eof <- true;
      if Buffer.length c.c_rbuf > 0 then begin
        Queue.push (Buffer.contents c.c_rbuf) c.c_lines;
        Buffer.clear c.c_rbuf
      end
  | n ->
      Buffer.add_subbytes c.c_rbuf buf 0 n;
      split_lines c
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error _ -> c.c_dead <- true

let rec flush_conn c =
  if (not c.c_dead) && not (Queue.is_empty c.c_outq) then begin
    let s = Queue.peek c.c_outq in
    match
      Unix.single_write_substring c.c_out s c.c_out_off
        (String.length s - c.c_out_off)
    with
    | written ->
        if c.c_out_off + written = String.length s then begin
          ignore (Queue.pop c.c_outq);
          c.c_out_off <- 0;
          flush_conn c
        end
        else c.c_out_off <- c.c_out_off + written
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_conn c
    | exception Unix.Unix_error _ ->
        (* EPIPE, ECONNRESET, ...: the peer is gone. *)
        c.c_dead <- true
  end

(* Finished: beyond help, or owed nothing more (a stopped session
   discards any input queued after its QUIT). *)
let conn_finished c =
  c.c_dead
  || (c.c_session.s_stopped && Queue.is_empty c.c_outq)
  || (c.c_eof && Queue.is_empty c.c_lines && Queue.is_empty c.c_outq)

let close_conn c = if c.c_owned then close_fd c.c_in

(* The one serving loop: [select] over the connections (and the
   listening socket, if any), one scheduling round per wakeup.  It
   ends when no connection remains and nothing more can be accepted:
   at once without a socket, after QUIT with one. *)
let drive ?sock t conns =
  (* A peer that resets, or a closed stdout pipe, must surface as
     EPIPE on that connection, not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let conns = ref conns in
  Fun.protect
    ~finally:(fun () -> List.iter close_conn !conns)
    (fun () ->
      while !conns <> [] || (sock <> None && not t.stopped) do
        let accepting =
          match sock with Some s when not t.stopped -> [ s ] | _ -> []
        in
        let rset =
          accepting
          @ List.filter_map
              (fun c ->
                if c.c_dead || c.c_eof || c.c_session.s_stopped then None
                else Some c.c_in)
              !conns
        in
        let wset =
          List.filter_map
            (fun c ->
              if (not c.c_dead) && not (Queue.is_empty c.c_outq) then
                Some c.c_out
              else None)
            !conns
        in
        (* Lines already queued (chunk cap, or a just-passed barrier)
           must be served without waiting for new IO. *)
        let backlog =
          List.exists
            (fun c ->
              (not c.c_dead)
              && (not c.c_session.s_stopped)
              && not (Queue.is_empty c.c_lines))
            !conns
        in
        let r, _, _ =
          if rset = [] && wset = [] && not backlog then ([], [], [])
          else
            retry_eintr (fun () ->
                Unix.select rset wset [] (if backlog then 0. else -1.))
        in
        (match accepting with
        | [ s ] when List.mem s r -> (
            match retry_eintr (fun () -> Unix.accept s) with
            | fd, _ ->
                Unix.set_nonblock fd;
                conns := !conns @ [ new_conn ~owned:true fd fd ]
            | exception Unix.Unix_error _ -> ())
        | _ -> ());
        List.iter (fun c -> if List.mem c.c_in r then read_conn c) !conns;
        (* One scheduling round over the live connections, accept
           order. *)
        let cs = Array.of_list !conns in
        let sessions = Array.map (fun c -> c.c_session) cs in
        let pull i =
          let c = cs.(i) in
          if c.c_dead || Queue.is_empty c.c_lines then None
          else Some (Queue.pop c.c_lines)
        in
        let deliver i framed =
          let c = cs.(i) in
          if not c.c_dead then Queue.push framed c.c_outq
        in
        ignore (run_round t sessions ~pull ~deliver : bool);
        if t.stopped then
          List.iter (fun c -> c.c_session.s_stopped <- true) !conns;
        List.iter flush_conn !conns;
        conns :=
          List.filter
            (fun c ->
              if conn_finished c then begin
                close_conn c;
                false
              end
              else true)
            !conns;
        Metrics.set_runtime "serve.clients.active"
          (float_of_int (List.length !conns))
      done)

let serve_fds t ~input ~output = drive t [ new_conn ~owned:false input output ]

let listen ?port_ready t ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> close_fd sock)
    (fun () ->
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen sock 16;
      (match port_ready with
      | Some f -> (
          match Unix.getsockname sock with
          | Unix.ADDR_INET (_, p) -> f p
          | Unix.ADDR_UNIX _ -> ())
      | None -> ());
      drive ~sock t [])

let provider t = t.asid
let pops t = t.pops
let prefixes t = t.prefixes
let engine t = t.engine
let queries t = t.queries
