module Sm = Netsim_prng.Splitmix
module Dist = Netsim_prng.Dist
module Topology = Netsim_topo.Topology
module Asn = Netsim_topo.Asn
module World = Netsim_geo.World
module City = Netsim_geo.City

let c_prefixes = Netsim_obs.Metrics.counter "traffic.prefixes"

let generate topo ~rng ~n_prefixes =
  Netsim_obs.Span.with_ ~name:"traffic.population" @@ fun () ->
  if n_prefixes <= 0 then invalid_arg "Population.generate: n_prefixes <= 0";
  Netsim_obs.Metrics.add c_prefixes n_prefixes;
  let hosts =
    Topology.by_klass topo Asn.Eyeball @ Topology.by_klass topo Asn.Stub
  in
  if hosts = [] then
    invalid_arg "Population.generate: topology has no client ASes";
  let hosts = Array.of_list hosts in
  (* Host ASes weighted by the population of their footprints. *)
  let host_weights =
    Array.map
      (fun asid ->
        let fp = (Topology.asn topo asid).Asn.footprint in
        Array.fold_left
          (fun acc c -> acc +. World.cities.(c).City.population_m)
          0. fp)
      hosts
  in
  (* Exponent < 1 keeps the skew heavy-tailed without letting a single
     prefix dominate the weighted statistics the way it would with the
     classic s = 1.1 at a few hundred prefixes; real traffic spreads
     over millions of prefixes. *)
  let zipf = Dist.zipf_make ~n:n_prefixes ~s:0.8 in
  let sample_host = Dist.categorical host_weights in
  let prefixes =
    Array.init n_prefixes (fun id ->
        let asid = hosts.(sample_host rng) in
        let fp = (Topology.asn topo asid).Asn.footprint in
        let city = fp.(Sm.next_int rng (Array.length fp)) in
        let popularity = Dist.zipf_weight zipf id in
        let weight = popularity *. World.cities.(city).City.population_m in
        { Prefix.id; asid; city; weight })
  in
  let total = Array.fold_left (fun acc p -> acc +. p.Prefix.weight) 0. prefixes in
  Array.map (fun p -> { p with Prefix.weight = p.Prefix.weight /. total }) prefixes

let total_weight prefixes =
  Array.fold_left (fun acc p -> acc +. p.Prefix.weight) 0. prefixes

let by_as prefixes =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (p : Prefix.t) ->
      let existing =
        match Hashtbl.find_opt tbl p.asid with Some l -> l | None -> []
      in
      Hashtbl.replace tbl p.asid (p :: existing))
    prefixes;
  tbl
