module Sm = Netsim_prng.Splitmix
module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Asn = Netsim_topo.Asn

type t = {
  as_count : int;
  link_count : int;
  peering_share : float;
  multi_homed_share : float;
  max_degree : int;
  mean_degree : float;
  degree_p99 : int;
  largest_cone : int;
  mean_tier1_cone : float;
  mean_path_length : float;
}

let customer_cone topo asid =
  let n = Topology.as_count topo in
  let seen = Array.make n false in
  let rec go x =
    if not seen.(x) then begin
      seen.(x) <- true;
      Topology.fold_row topo x
        (fun pn () ->
          if Topology.pn_rel pn = Relation.To_customer then
            go (Topology.pn_peer pn))
        ()
    end
  in
  go asid;
  Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 seen

let degree_histogram topo =
  let tbl = Hashtbl.create 64 in
  for x = 0 to Topology.as_count topo - 1 do
    let d = Topology.degree topo x in
    let cur = match Hashtbl.find_opt tbl d with Some c -> c | None -> 0 in
    Hashtbl.replace tbl d (cur + 1)
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl [] |> List.sort compare

let compute ?(path_samples = 5) ~rng topo =
  let n = Topology.as_count topo in
  let degrees = Array.init n (Topology.degree topo) in
  let sorted = Array.copy degrees in
  Array.sort compare sorted;
  let mean_degree =
    float_of_int (Array.fold_left ( + ) 0 degrees) /. float_of_int n
  in
  let peering =
    Array.fold_left
      (fun acc (l : Relation.link) ->
        if Relation.is_peering l.Relation.kind then acc + 1 else acc)
      0 (Topology.links topo)
  in
  let link_count = Topology.link_count topo in
  let non_tier1 =
    List.init n Fun.id
    |> List.filter (fun x -> (Topology.asn topo x).Asn.klass <> Asn.Tier1)
  in
  let multi_homed =
    List.filter (fun x -> List.length (Topology.providers topo x) >= 2) non_tier1
  in
  let tier1s = Topology.by_klass topo Asn.Tier1 in
  let cones = List.map (customer_cone topo) tier1s in
  let largest_cone = List.fold_left max 0 cones in
  let mean_tier1_cone =
    match cones with
    | [] -> 0.
    | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  (* Mean selected path length over a few sampled destinations. *)
  let total_len = ref 0 and total_paths = ref 0 in
  for _ = 1 to path_samples do
    let dest = Sm.next_int rng n in
    let state = Rib_cache.run topo (Announce.default ~origin:dest) in
    for x = 0 to n - 1 do
      if x <> dest then begin
        match Propagate.as_path state x with
        | [] -> ()
        | p ->
            total_len := !total_len + List.length p;
            incr total_paths
      end
    done
  done;
  {
    as_count = n;
    link_count;
    peering_share =
      (if link_count = 0 then 0.
       else float_of_int peering /. float_of_int link_count);
    multi_homed_share =
      (match non_tier1 with
      | [] -> 0.
      | l ->
          float_of_int (List.length multi_homed) /. float_of_int (List.length l));
    max_degree = (if n = 0 then 0 else sorted.(n - 1));
    mean_degree;
    degree_p99 =
      (if n = 0 then 0 else sorted.(min (n - 1) (n * 99 / 100)));
    largest_cone;
    mean_tier1_cone;
    mean_path_length =
      (if !total_paths = 0 then 0.
       else float_of_int !total_len /. float_of_int !total_paths);
  }

let render t =
  String.concat "\n"
    [
      Printf.sprintf "ASes %d, links %d (%.0f%% peering)" t.as_count
        t.link_count (100. *. t.peering_share);
      Printf.sprintf "degree: mean %.1f, p99 %d, max %d" t.mean_degree
        t.degree_p99 t.max_degree;
      Printf.sprintf "multi-homed (non-Tier-1): %.0f%%"
        (100. *. t.multi_homed_share);
      Printf.sprintf "customer cones: largest %d, Tier-1 mean %.0f"
        t.largest_cone t.mean_tier1_cone;
      Printf.sprintf "mean selected AS-path length: %.2f" t.mean_path_length;
      "";
    ]
