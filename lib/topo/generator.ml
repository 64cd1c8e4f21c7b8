module Sm = Netsim_prng.Splitmix
module Dist = Netsim_prng.Dist
module World = Netsim_geo.World
module City = Netsim_geo.City
module Region = Netsim_geo.Region

type params = {
  seed : int;
  n_tier1 : int;
  n_transit : int;
  n_eyeball : int;
  n_stub : int;
  transit_provider_count : int * int;
  eyeball_provider_count : int * int;
  eyeball_peering_prob : float;
  transit_peering_prob : float;
  tier1_capacity : float;
  transit_capacity : float;
  eyeball_capacity : float;
  stub_capacity : float;
  public_peering_capacity : float;
}

let default_params =
  {
    seed = 42;
    n_tier1 = 8;
    n_transit = 48;
    n_eyeball = 240;
    n_stub = 400;
    transit_provider_count = (2, 3);
    eyeball_provider_count = (1, 3);
    eyeball_peering_prob = 0.3;
    transit_peering_prob = 0.4;
    tier1_capacity = 1000.;
    transit_capacity = 400.;
    eyeball_capacity = 200.;
    stub_capacity = 10.;
    public_peering_capacity = 20.;
  }

let small_params =
  {
    default_params with
    n_tier1 = 4;
    n_transit = 10;
    n_eyeball = 30;
    n_stub = 40;
  }

(* Metro intersection scratch, owned by one [generate] or
   [generate_scale] call (figures generate concurrently on the pool).
   [shared_metros] stamps [fb]'s metros in [mark] and writes
   [fa ∩ fb], in [fa] order, into the first slots of [shared]. *)
type scratch = {
  mark : int array;
  mutable stamp : int;
  shared : int array;
}

let new_scratch () =
  {
    mark = Array.make World.count 0;
    stamp = 0;
    shared = Array.make World.count 0;
  }

let shared_metros s fa fb =
  s.stamp <- s.stamp + 1;
  for i = 0 to Array.length fb - 1 do
    s.mark.(fb.(i)) <- s.stamp
  done;
  let n = ref 0 in
  for i = 0 to Array.length fa - 1 do
    if s.mark.(fa.(i)) = s.stamp then begin
      s.shared.(!n) <- fa.(i);
      incr n
    end
  done;
  !n

let common_metro rng s fa fb =
  match shared_metros s fa fb with
  | 0 -> None
  | n -> Some s.shared.(Sm.next_int rng n)

(* Up to [k] shared metros chosen uniformly — used for national-scale
   interconnects (eyeball <-> transit), where sessions sit wherever
   the ISP's network happens to be rather than at the global hubs.
   This heterogeneity is what creates the minority of clients whose
   transit route persistently beats the peer route (the paper's
   "consistently better" alternates).  The partial Fisher–Yates runs
   in place on the scratch, with [Dist.sample_without_replacement]'s
   draws. *)
let random_metros rng s ~k fa fb =
  let n = shared_metros s fa fb in
  let k = min k n and a = s.shared in
  for i = 0 to k - 1 do
    let j = i + Sm.next_int rng (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  List.init k (fun i -> a.(i))

(* Each metro's continent as its index in [Region.all_continents],
   which lists every continent. *)
let continent_rank =
  Array.map
    (fun (c : City.t) ->
      Option.get (List.find_index (( = ) c.continent) Region.all_continents))
    World.cities

(* Up to [k] shared metros with geographic spread: round-robin over
   continents, most populous shared metro of each continent first.
   Two global networks end up interconnected on every continent they
   share, which is what lets hot-potato pick a nearby exit instead of
   detouring through a remote megacity.  The rng breaks ties among
   equally-sized metros. *)
let common_metros rng s ~k fa fb =
  let n = shared_metros s fa fb in
  let arr = Array.sub s.shared 0 n in
  Dist.shuffle rng arr;
  (* Continent groups in [Region.all_continents] order, each by hub
     score, ties in shuffled order (the sort is stable). *)
  Array.stable_sort
    (fun x y ->
      match compare continent_rank.(x) continent_rank.(y) with
      | 0 -> Float.compare World.hub_scores.(y) World.hub_scores.(x)
      | c -> c)
    arr;
  (* Round-robin: first pick of every continent, then second, ... *)
  let round = Array.make n 0 in
  for i = 1 to n - 1 do
    if continent_rank.(arr.(i)) = continent_rank.(arr.(i - 1)) then
      round.(i) <- round.(i - 1) + 1
  done;
  let order = Array.init n Fun.id in
  Array.stable_sort (fun x y -> compare round.(x) round.(y)) order;
  List.init (min k n) (fun i -> arr.(order.(i)))

(* Mutable builder: ASes and links are accumulated, then frozen into a
   Topology.t.  Each link record is built with its final dense id, so
   [Topology.make] keeps it as is. *)
type builder = {
  mutable ases_rev : Asn.t list;
  mutable n : int;
  mutable links_rev : Relation.link list;
  mutable n_links : int;
}

let new_builder () = { ases_rev = []; n = 0; links_rev = []; n_links = 0 }

let push_as b ~klass ~name ~footprint =
  let id = b.n in
  b.ases_rev <- { Asn.id; klass; name; footprint } :: b.ases_rev;
  b.n <- b.n + 1;
  id

let push_link b a bb kind metro capacity_gbps =
  b.links_rev <-
    { Relation.id = b.n_links; a; b = bb; kind; metro; capacity_gbps }
    :: b.links_rev;
  b.n_links <- b.n_links + 1

let city_ids cities =
  Array.of_list (List.map (fun (c : City.t) -> c.id) cities)

let sample_ints rng k l =
  Dist.sample_without_replacement rng k (Array.of_list l) |> Array.to_list

let range_int rng (lo, hi) =
  if hi <= lo then lo else lo + Sm.next_int rng (hi - lo + 1)

(* Footprint helpers -------------------------------------------------- *)

let tier1_footprint rng =
  (* Tier-1s are present in every large metro plus a random sample of
     the rest; their home is one of the biggest interconnection hubs. *)
  let big, small =
    Array.to_list World.cities
    |> List.partition (fun (c : City.t) -> c.population_m >= 4.)
  in
  let extra =
    List.filter (fun (_ : City.t) -> Dist.bernoulli rng ~p:0.5) small
  in
  let all = big @ extra in
  let ids = List.map (fun (c : City.t) -> c.id) all in
  let hubs =
    [ "New York"; "London"; "Frankfurt"; "Tokyo"; "Singapore"; "Amsterdam" ]
  in
  let home = (World.find_exn (List.nth hubs (Sm.next_int rng 6))).id in
  Array.of_list (home :: List.filter (fun c -> c <> home) ids)

let transit_footprint rng continent =
  let ids = city_ids (World.by_continent continent) in
  let k = max 2 (Array.length ids * (40 + Sm.next_int rng 40) / 100) in
  (* Every continent has >= 2 metros, so the footprint is non-empty;
     its first metro is the home. *)
  Dist.sample_without_replacement rng k ids

let eyeball_footprint rng country =
  let ids = city_ids (World.by_country country) in
  let k = max 1 (Array.length ids - Sm.next_int rng 2) in
  Dist.sample_without_replacement rng k ids

(* Generation --------------------------------------------------------- *)

let dedupe_links links =
  (* Collapse accidental duplicate (a, b, kind, metro) tuples produced
     by independent random draws; keep the first capacity. *)
  let module S = Set.Make (struct
    type t = int * int * Relation.kind * int

    let compare = compare
  end) in
  let seen = ref S.empty in
  List.filter
    (fun { Relation.a; b; kind; metro; _ } ->
      let key = if a < b then (a, b, kind, metro) else (b, a, kind, metro) in
      if S.mem key !seen then false
      else begin
        seen := S.add key !seen;
        true
      end)
    links

let c_ases = Netsim_obs.Metrics.counter "topo.ases"
let c_links = Netsim_obs.Metrics.counter "topo.links"

let generate p =
  Netsim_obs.Span.with_ ~name:"topo.generate" @@ fun () ->
  let rng = Sm.create p.seed in
  let b = new_builder () in
  let s = new_scratch () in
  (* 1. Tier-1 clique. *)
  let t1_rng = Sm.of_label rng "tier1" in
  let tier1s =
    List.init p.n_tier1 (fun i ->
        push_as b ~klass:Asn.Tier1
          ~name:(Printf.sprintf "T1-%d" i)
          ~footprint:(tier1_footprint t1_rng))
  in
  let ases_arr () = Array.of_list (List.rev b.ases_rev) in
  let footprint id = (ases_arr ()).(id).Asn.footprint in
  (* Clique of private peering among Tier-1s, interconnected in many
     facilities worldwide. *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j bb ->
          if j > i then begin
            let metros =
              match
                common_metros t1_rng s ~k:10 (footprint a) (footprint bb)
              with
              | [] -> [ (World.find_exn "London").id ]
              | l -> l
            in
            List.iter
              (fun metro ->
                push_link b a bb Relation.Peer_private metro p.tier1_capacity)
              metros
          end)
        tier1s)
    tier1s;
  (* 2. Regional transit providers. *)
  let tr_rng = Sm.of_label rng "transit" in
  let continents = Array.of_list Region.all_continents in
  let continent_weights =
    Array.map
      (fun c -> float_of_int (List.length (World.by_continent c)))
      continents
  in
  let pick_continent = Dist.categorical continent_weights in
  let transits =
    List.init p.n_transit (fun i ->
        let continent = continents.(pick_continent tr_rng) in
        let id =
          push_as b ~klass:Asn.Transit
            ~name:
              (Printf.sprintf "TR-%d-%s" i (Region.continent_to_string continent))
            ~footprint:(transit_footprint tr_rng continent)
        in
        (id, continent))
  in
  let all = ases_arr () in
  (* Transit -> Tier-1 providers. *)
  List.iter
    (fun (tid, _) ->
      let k = range_int tr_rng p.transit_provider_count in
      let chosen = sample_ints tr_rng k tier1s in
      List.iter
        (fun t1 ->
          let metros =
            match
              common_metros tr_rng s ~k:5 all.(tid).Asn.footprint
                all.(t1).Asn.footprint
            with
            | [] -> [ Asn.home all.(tid) ]
            | l -> l
          in
          List.iter
            (fun metro -> push_link b tid t1 Relation.C2p metro p.transit_capacity)
            metros)
        chosen)
    transits;
  (* Transit <-> transit peering within a continent. *)
  let rec pair_transits = function
    | [] -> ()
    | (tid, cont) :: rest ->
        List.iter
          (fun (oid, ocont) ->
            if cont = ocont && Dist.bernoulli tr_rng ~p:p.transit_peering_prob
            then
              List.iter
                (fun metro ->
                  push_link b tid oid Relation.Peer_private metro
                    p.transit_capacity)
                (common_metros tr_rng s ~k:2 all.(tid).Asn.footprint
                   all.(oid).Asn.footprint))
          rest;
        pair_transits rest
  in
  pair_transits transits;
  (* 3. Eyeball ISPs, one or more per country weighted by population. *)
  let eb_rng = Sm.of_label rng "eyeball" in
  let countries = Array.of_list World.countries in
  let country_pop country =
    World.by_country country
    |> List.fold_left (fun acc (c : City.t) -> acc +. c.population_m) 0.
  in
  let pick_country = Dist.categorical (Array.map country_pop countries) in
  let eyeballs =
    List.init p.n_eyeball (fun i ->
        let country = countries.(pick_country eb_rng) in
        let id =
          push_as b ~klass:Asn.Eyeball
            ~name:(Printf.sprintf "EB-%d-%s" i country)
            ~footprint:(eyeball_footprint eb_rng country)
        in
        (id, country))
  in
  let all = ases_arr () in
  let continent_of_as id =
    let home = Asn.home all.(id) in
    World.cities.(home).City.continent
  in
  let transits_serving continent =
    List.filter (fun (_, c) -> c = continent) transits |> List.map fst
  in
  (* Eyeball -> transit providers (same continent; Tier-1 fallback). *)
  List.iter
    (fun (eid, _) ->
      let continent = continent_of_as eid in
      let candidates =
        match transits_serving continent with [] -> tier1s | l -> l
      in
      let k = min (List.length candidates) (range_int eb_rng p.eyeball_provider_count) in
      let k = max 1 k in
      let chosen = sample_ints eb_rng k candidates in
      List.iter
        (fun tid ->
          let metros =
            match
              random_metros eb_rng s ~k:4 all.(eid).Asn.footprint
                all.(tid).Asn.footprint
            with
            | [] -> [ Asn.home all.(eid) ]
            | l -> l
          in
          List.iter
            (fun metro -> push_link b eid tid Relation.C2p metro p.eyeball_capacity)
            metros)
        chosen;
      (* Many eyeballs also buy transit directly from a Tier-1, with
         sessions in their main metros — this is the short
         [Tier-1; eyeball] alternate path that makes transit routes
         competitive with peering at a content provider's PoPs. *)
      if candidates != tier1s && Dist.bernoulli eb_rng ~p:0.65 then begin
        let t1 = List.nth tier1s (Sm.next_int eb_rng (List.length tier1s)) in
        let metros =
          match
            random_metros eb_rng s ~k:5 all.(eid).Asn.footprint
              all.(t1).Asn.footprint
          with
          | [] -> [ Asn.home all.(eid) ]
          | l -> l
        in
        List.iter
          (fun metro -> push_link b eid t1 Relation.C2p metro p.eyeball_capacity)
          metros
      end)
    eyeballs;
  (* Eyeball <-> eyeball public peering at shared metros (IXPs). *)
  let rec pair_eyeballs = function
    | [] -> ()
    | (eid, _) :: rest ->
        List.iter
          (fun (oid, _) ->
            if Dist.bernoulli eb_rng ~p:p.eyeball_peering_prob then begin
              match
                common_metro eb_rng s all.(eid).Asn.footprint
                  all.(oid).Asn.footprint
              with
              | Some metro ->
                  push_link b eid oid Relation.Peer_public metro
                    p.public_peering_capacity
              | None -> ()
            end)
          rest;
        pair_eyeballs rest
  in
  pair_eyeballs eyeballs;
  (* 4. Stub ASes: single-homed to an eyeball or transit at their metro. *)
  let st_rng = Sm.of_label rng "stub" in
  let eyeball_ids = List.map fst eyeballs in
  let pick_city = Dist.categorical World.population_weights in
  for i = 0 to p.n_stub - 1 do
    let city = pick_city st_rng in
    let sid =
      push_as b ~klass:Asn.Stub
        ~name:("ST-" ^ string_of_int i)
        ~footprint:[| city |]
    in
    let upstream_candidates =
      List.filter (fun id -> Asn.present_at all.(id) city) eyeball_ids
    in
    let upstream =
      match upstream_candidates with
      | [] ->
          (* No eyeball at this metro: attach to a transit or Tier-1
             present there. *)
          let transit_here =
            List.filter (fun (tid, _) -> Asn.present_at all.(tid) city) transits
            |> List.map fst
          in
          let pool = if transit_here = [] then tier1s else transit_here in
          List.nth pool (Sm.next_int st_rng (List.length pool))
      | l -> List.nth l (Sm.next_int st_rng (List.length l))
    in
    push_link b sid upstream Relation.C2p city p.stub_capacity
  done;
  let topo = Topology.make (ases_arr ()) (List.rev b.links_rev |> dedupe_links) in
  Netsim_obs.Metrics.add c_ases (Topology.as_count topo);
  Netsim_obs.Metrics.add c_links (Topology.link_count topo);
  topo

(* ---- Internet scale -------------------------------------------------- *)

(* [generate] above draws peerings by testing every pair (O(n^2)) —
   fine at hundreds of ASes, unusable at 75k.  [generate_scale] keeps
   the same hierarchy (Tier-1 clique / continental transits /
   per-country eyeballs / single-homed stubs) but replaces the pair
   loops with per-node partner sampling out of metro and continent
   buckets, so the whole build is O(n + m).  Each link decision costs
   O(footprints): shared metros come from the stamped [scratch], pair
   dedupe from the per-turn [partner_mark], and no set, hash table or
   per-draw array copy is built.  Every Splitmix draw keeps its order
   and bound, so a seed's AS and link arrays never change; the MD5
   digests in test/test_scale.ml pin them.  Total construction, in
   and out of cap, is part of the contract: every failure mode is an
   [Error], never an exception (fuzzed in test/test_scale.ml). *)

type scale_params = {
  sc_seed : int;
  sc_tier1 : int;
  sc_transit : int;
  sc_eyeball : int;
  sc_stub : int;
  sc_transit_providers : int * int;
  sc_transit_peer_degree : int;
  sc_eyeball_providers : int * int;
  sc_eyeball_peer_degree : int;
  sc_sessions : int;
}

let scale_params =
  {
    sc_seed = 42;
    sc_tier1 = 16;
    sc_transit = 2500;
    sc_eyeball = 12000;
    sc_stub = 60000;
    sc_transit_providers = (2, 4);
    sc_transit_peer_degree = 16;
    sc_eyeball_providers = (2, 3);
    sc_eyeball_peer_degree = 60;
    sc_sessions = 4;
  }

let small_scale_params =
  {
    scale_params with
    sc_tier1 = 4;
    sc_transit = 40;
    sc_eyeball = 160;
    sc_stub = 400;
    sc_transit_peer_degree = 6;
    sc_eyeball_peer_degree = 8;
    sc_sessions = 2;
  }

let generate_scale p =
  let n_total = p.sc_tier1 + p.sc_transit + p.sc_eyeball + p.sc_stub in
  if p.sc_tier1 < 1 then Error "generate_scale: need at least one Tier-1"
  else if p.sc_transit < 0 || p.sc_eyeball < 0 || p.sc_stub < 0 then
    Error "generate_scale: negative AS count"
  else if p.sc_sessions < 1 then Error "generate_scale: sc_sessions < 1"
  else if n_total > Topology.max_as_count then
    Error
      (Printf.sprintf
         "generate_scale: %d ASes exceeds the packed cap of %d (2^20)" n_total
         Topology.max_as_count)
  else begin
    try
      Netsim_obs.Span.with_ ~name:"topo.generate_scale" @@ fun () ->
      let rng = Sm.create p.sc_seed in
      let b = new_builder () in
      let s = new_scratch () in
      let n_cities = Array.length World.cities in
      (* 1. Tier-1 clique, global footprints. *)
      let t1_rng = Sm.of_label rng "tier1" in
      let tier1s =
        Array.init p.sc_tier1 (fun i ->
            push_as b ~klass:Asn.Tier1
              ~name:("T1-" ^ string_of_int i)
              ~footprint:(tier1_footprint t1_rng))
      in
      let fp = Array.make n_total [||] in
      Array.iter (fun (a : Asn.t) -> fp.(a.Asn.id) <- a.Asn.footprint)
        (Array.of_list b.ases_rev);
      let remember id = fp.(id) <- (List.hd b.ases_rev).Asn.footprint in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j bb ->
              if j > i then begin
                let metros =
                  match
                    common_metros t1_rng s ~k:p.sc_sessions fp.(a) fp.(bb)
                  with
                  | [] -> [ fp.(a).(0) ]
                  | l -> l
                in
                List.iter
                  (fun metro ->
                    push_link b a bb Relation.Peer_private metro 1000.)
                  metros
              end)
            tier1s)
        tier1s;
      (* 2. Continental transit providers. *)
      let tr_rng = Sm.of_label rng "transit" in
      let continents = Array.of_list Region.all_continents in
      let continent_weights =
        Array.map
          (fun c -> float_of_int (List.length (World.by_continent c)))
          continents
      in
      let pick_continent = Dist.categorical continent_weights in
      let n_cont = Array.length continents in
      let transit_cont = Array.make p.sc_transit 0 in
      let transits =
        Array.init p.sc_transit (fun i ->
            let ci = pick_continent tr_rng in
            let id =
              push_as b ~klass:Asn.Transit
                ~name:("TR-" ^ string_of_int i)
                ~footprint:(transit_footprint tr_rng continents.(ci))
            in
            remember id;
            transit_cont.(i) <- ci;
            id)
      in
      (* Continent buckets of transits, for provider/peer sampling. *)
      let transit_by_cont = Array.make n_cont [] in
      Array.iteri
        (fun i tid ->
          transit_by_cont.(transit_cont.(i)) <-
            tid :: transit_by_cont.(transit_cont.(i)))
        transits;
      let transit_by_cont =
        Array.map (fun l -> Array.of_list (List.rev l)) transit_by_cont
      in
      (* Transit -> Tier-1 providers. *)
      Array.iter
        (fun tid ->
          let k = range_int tr_rng p.sc_transit_providers in
          let chosen = Dist.sample_without_replacement tr_rng k tier1s in
          Array.iter
            (fun t1 ->
              let metros =
                match
                  random_metros tr_rng s ~k:p.sc_sessions fp.(tid) fp.(t1)
                with
                | [] -> [ fp.(tid).(0) ]
                | l -> l
              in
              List.iter
                (fun metro -> push_link b tid t1 Relation.C2p metro 400.)
                metros)
            chosen)
        transits;
      (* Transit peering: per-node partner sampling within the
         continent (pairs deduped), instead of the O(n^2) pair walk.
         Every transit, then every eyeball, takes one turn of draws, in
         ascending id order, so a pair seen before [a]'s turn was drawn
         by a partner [o < a], which listed itself in [earlier.(a)].
         [begin_turn a] stamps those partners [a] in [partner_mark], as
         [fresh_pair] does each partner drawn during the turn. *)
      let partner_mark = Array.make n_total (-1) in
      let earlier = Array.make n_total [] in
      let begin_turn a =
        List.iter (fun o -> partner_mark.(o) <- a) earlier.(a)
      in
      let fresh_pair a bb =
        if partner_mark.(bb) = a then false
        else begin
          partner_mark.(bb) <- a;
          if bb > a then earlier.(bb) <- a :: earlier.(bb);
          true
        end
      in
      Array.iteri
        (fun i tid ->
          let bucket = transit_by_cont.(transit_cont.(i)) in
          let nb = Array.length bucket in
          begin_turn tid;
          if nb > 1 then
            for _ = 1 to p.sc_transit_peer_degree do
              let other = bucket.(Sm.next_int tr_rng nb) in
              if other <> tid && fresh_pair tid other then
                List.iter
                  (fun metro ->
                    push_link b tid other Relation.Peer_private metro 400.)
                  (random_metros tr_rng s ~k:2 fp.(tid) fp.(other))
            done)
        transits;
      (* 3. Eyeball ISPs: country by population, providers from the
         continent's transit bucket, IXP peering within the home
         metro's bucket. *)
      let eb_rng = Sm.of_label rng "eyeball" in
      let countries = Array.of_list World.countries in
      let country_pop country =
        World.by_country country
        |> List.fold_left (fun acc (c : City.t) -> acc +. c.population_m) 0.
      in
      let pick_country = Dist.categorical (Array.map country_pop countries) in
      let eyeballs_at = Array.make n_cities [] in
      let transit_at = Array.make n_cities [] in
      Array.iter
        (fun tid ->
          Array.iter
            (fun c -> transit_at.(c) <- tid :: transit_at.(c))
            fp.(tid))
        transits;
      let transit_at = Array.map (fun l -> Array.of_list (List.rev l)) transit_at in
      let eyeballs =
        Array.init p.sc_eyeball (fun i ->
            let country = countries.(pick_country eb_rng) in
            let id =
              push_as b ~klass:Asn.Eyeball
                ~name:("EB-" ^ string_of_int i)
                ~footprint:(eyeball_footprint eb_rng country)
            in
            remember id;
            let home = fp.(id).(0) in
            eyeballs_at.(home) <- id :: eyeballs_at.(home);
            id)
      in
      let eyeballs_at =
        Array.map (fun l -> Array.of_list (List.rev l)) eyeballs_at
      in
      Array.iter
        (fun eid ->
            let home = fp.(eid).(0) in
            let bucket = transit_by_cont.(continent_rank.(home)) in
            let candidates = if Array.length bucket = 0 then tier1s else bucket in
            let k =
              Stdlib.max 1
                (Stdlib.min (Array.length candidates)
                   (range_int eb_rng p.sc_eyeball_providers))
            in
            let chosen = Dist.sample_without_replacement eb_rng k candidates in
            Array.iter
              (fun tid ->
                let metros =
                  match
                    random_metros eb_rng s ~k:p.sc_sessions fp.(eid) fp.(tid)
                  with
                  | [] -> [ home ]
                  | l -> l
                in
                List.iter
                  (fun metro -> push_link b eid tid Relation.C2p metro 200.)
                  metros)
              chosen;
            (* Direct Tier-1 transit for the bigger eyeballs. *)
            if Dist.bernoulli eb_rng ~p:0.6 then begin
              let t1 = tier1s.(Sm.next_int eb_rng (Array.length tier1s)) in
              let metros =
                match
                  random_metros eb_rng s ~k:p.sc_sessions fp.(eid) fp.(t1)
                with
                | [] -> [ home ]
                | l -> l
              in
              List.iter
                (fun metro -> push_link b eid t1 Relation.C2p metro 200.)
                metros
            end;
            (* IXP peering with other eyeballs homed at the same metro. *)
            let ix = eyeballs_at.(home) in
            let nix = Array.length ix in
            begin_turn eid;
            if nix > 1 then
              for _ = 1 to p.sc_eyeball_peer_degree do
                let other = ix.(Sm.next_int eb_rng nix) in
                if other <> eid && fresh_pair eid other then
                  push_link b eid other Relation.Peer_public home 20.
              done)
        eyeballs;
      (* 4. Stubs: single-homed (possibly dual sessions) to an AS
         present at their metro. *)
      let st_rng = Sm.of_label rng "stub" in
      let pick_city = Dist.categorical World.population_weights in
      for i = 0 to p.sc_stub - 1 do
        let city = pick_city st_rng in
        let sid =
          push_as b ~klass:Asn.Stub
            ~name:("ST-" ^ string_of_int i)
            ~footprint:[| city |]
        in
        let upstream =
          let ebs = eyeballs_at.(city) in
          if Array.length ebs > 0 then ebs.(Sm.next_int st_rng (Array.length ebs))
          else begin
            let trs = transit_at.(city) in
            if Array.length trs > 0 then
              trs.(Sm.next_int st_rng (Array.length trs))
            else tier1s.(Sm.next_int st_rng (Array.length tier1s))
          end
        in
        let sessions = if p.sc_sessions >= 2 then 2 else 1 in
        for _ = 1 to sessions do
          push_link b sid upstream Relation.C2p city 10.
        done
      done;
      let n_links = b.n_links in
      if n_links > Topology.max_link_count then
        Error
          (Printf.sprintf
             "generate_scale: %d links exceeds the packed cap of %d (2^21)"
             n_links Topology.max_link_count)
      else begin
        let topo =
          Topology.make
            (Array.of_list (List.rev b.ases_rev))
            (List.rev b.links_rev)
        in
        Netsim_obs.Metrics.add c_ases (Topology.as_count topo);
        Netsim_obs.Metrics.add c_links (Topology.link_count topo);
        Ok topo
      end
    with Invalid_argument msg -> Error msg
  end

(* The exported helpers, each with a scratch of its own. *)
let common_metro rng fa fb = common_metro rng (new_scratch ()) fa fb
let common_metros rng ~k fa fb = common_metros rng (new_scratch ()) ~k fa fb

(* ---- degenerate shapes ----------------------------------------------- *)

(* Total constructors for the fuzz/totality property: pathological
   graphs (no ASes beside one, a max-degree hub, a provider chain as
   long as the cap allows) must build valid CSR arenas, and anything
   over the packed caps must come back as [Error] without raising. *)

type shape = Single | Star of int | Chain of int

let shape_footprint = [| 0 |]

let generate_shape shape =
  let mk ases links =
    try Ok (Topology.make ases links) with Invalid_argument msg -> Error msg
  in
  match shape with
  | Single ->
      mk
        [| { Asn.id = 0; klass = Asn.Tier1; name = "S0";
             footprint = shape_footprint } |]
        []
  | Star spokes ->
      if spokes < 0 then Error "generate_shape: negative spoke count"
      else if spokes + 1 > Topology.max_as_count then
        Error "generate_shape: star exceeds the 2^20 AS cap"
      else begin
        let ases =
          Array.init (spokes + 1) (fun i ->
              if i = 0 then
                { Asn.id = 0; klass = Asn.Tier1; name = "hub";
                  footprint = shape_footprint }
              else
                { Asn.id = i; klass = Asn.Stub; name = "s";
                  footprint = shape_footprint })
        in
        let links =
          List.init spokes (fun i ->
              { Relation.id = 0; a = i + 1; b = 0; kind = Relation.C2p;
                metro = 0; capacity_gbps = 10. })
        in
        mk ases links
      end
  | Chain length ->
      if length < 1 then Error "generate_shape: chain needs at least one AS"
      else if length > Topology.max_as_count then
        Error "generate_shape: chain exceeds the 2^20 AS cap"
      else begin
        let ases =
          Array.init length (fun i ->
              let klass =
                if i = 0 then Asn.Tier1
                else if i = length - 1 then Asn.Stub
                else Asn.Transit
              in
              { Asn.id = i; klass; name = "c"; footprint = shape_footprint })
        in
        let links =
          List.init (length - 1) (fun i ->
              { Relation.id = 0; a = i + 1; b = i; kind = Relation.C2p;
                metro = 0; capacity_gbps = 10. })
        in
        mk ases links
      end
