module Sm = Netsim_prng.Splitmix
module Dist = Netsim_prng.Dist
module Topology = Netsim_topo.Topology
module Asn = Netsim_topo.Asn
module World = Netsim_geo.World
module City = Netsim_geo.City

type t = { id : int; asid : int; city : int; weight : float }

let c_vantages = Netsim_obs.Metrics.counter "measure.vantages"

let select topo ~rng ~n =
  Netsim_obs.Span.with_ ~name:"measure.vantage.select" @@ fun () ->
  let hosts =
    Topology.by_klass topo Asn.Eyeball @ Topology.by_klass topo Asn.Stub
  in
  (* Enumerate all ⟨city, AS⟩ pairs, then sample without replacement
     weighted by city population (approximated by shuffling an
     expansion would be wasteful; instead sample indices by weight and
     dedupe). *)
  let pairs =
    List.concat_map
      (fun asid ->
        (Topology.asn topo asid).Asn.footprint
        |> Array.to_list
        |> List.map (fun city -> (asid, city)))
      hosts
    |> Array.of_list
  in
  let sample =
    Dist.categorical
      (Array.map (fun (_, city) -> World.cities.(city).City.population_m) pairs)
  in
  let module S = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let chosen = ref S.empty in
  let result = ref [] in
  let attempts = ref 0 in
  let max_attempts = 20 * n in
  while List.length !result < n && !attempts < max_attempts do
    incr attempts;
    let i = sample rng in
    let ((asid, city) as pair) = pairs.(i) in
    if not (S.mem pair !chosen) then begin
      chosen := S.add pair !chosen;
      result :=
        {
          id = List.length !result;
          asid;
          city;
          weight = World.cities.(city).City.population_m;
        }
        :: !result
    end
  done;
  Netsim_obs.Metrics.add c_vantages (List.length !result);
  Array.of_list (List.rev !result)

let country t = World.cities.(t.city).City.country
let continent t = World.cities.(t.city).City.continent
