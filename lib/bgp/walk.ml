module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Asn = Netsim_topo.Asn
module World = Netsim_geo.World
module City = Netsim_geo.City

type hop = { asid : int; ingress : int; egress : int; link : Relation.link }
type t = { src : int; hops : hop list }

let entry_metro t =
  match List.rev t.hops with
  | last :: _ -> last.link.Relation.metro
  | [] -> invalid_arg "Walk.entry_metro: empty walk"

let as_path t = List.map (fun h -> h.asid) t.hops

let metro_distance_km a b =
  City.distance_km World.cities.(a) World.cities.(b)

(* Pick the exit session toward [next] by hot potato: the link whose
   interconnection metro is nearest to where the flow currently is.
   Ties break on link id for determinism. *)
let choose_exit_link links ~current =
  match links with
  | [] -> None
  | _ ->
      let scored =
        List.map
          (fun (l : Relation.link) ->
            (metro_distance_km current l.Relation.metro, l.Relation.id, l))
          links
      in
      let sorted = List.sort compare scored in
      (match sorted with (_, _, l) :: _ -> Some l | [] -> None)

(* Eligible sessions from [x] to the origin under the announcement
   config: announced links with the minimum prepend (BGP prefers the
   shorter announcement among sessions to the same neighbor). *)
let origin_links state topo x =
  let config = Propagate.config state in
  let origin = Propagate.origin state in
  let announced =
    List.filter_map
      (fun (l : Relation.link) ->
        let action = Announce.action_on config l in
        if action.Announce.export then Some (action.Announce.prepend, l)
        else None)
      (Topology.links_between topo x origin)
  in
  match announced with
  | [] -> []
  | l ->
      let min_prepend =
        List.fold_left (fun acc (p, _) -> min acc p) max_int l
      in
      List.filter_map
        (fun (p, link) -> if p = min_prepend then Some link else None)
        l

let max_hops = 64

let continue_from state ~start:x ~current =
  let topo = Propagate.topology state in
  let origin = Propagate.origin state in
  let rec go x current acc steps =
    if steps > max_hops then None
    else
      let next = Propagate.next_hop state x in
      if next < 0 then None
      else
        let candidates =
          if next = origin then origin_links state topo x
          else Topology.links_between topo x next
        in
        match choose_exit_link candidates ~current with
        | None -> None
        | Some link ->
            let hop =
              {
                asid = x;
                ingress = current;
                egress = link.Relation.metro;
                link;
              }
            in
            if next = origin then Some (List.rev (hop :: acc))
            else go next link.Relation.metro (hop :: acc) (steps + 1)
  in
  go x current [] 0

let from_metro state ~src ~start_metro =
  if src = Propagate.origin state then
    invalid_arg "Walk.from_metro: source is the origin";
  match continue_from state ~start:src ~current:start_metro with
  | None -> None
  | Some hops -> Some { src; hops }

let of_source state ~src =
  let topo = Propagate.topology state in
  let home = Asn.home (Topology.asn topo src) in
  from_metro state ~src ~start_metro:home

let of_route state ~src ~route =
  let origin = Propagate.origin state in
  let link = route.Route.via_link in
  let start = link.Relation.metro in
  let first = { asid = src; ingress = start; egress = start; link } in
  let next = route.Route.next_hop in
  if next = origin then Some { src; hops = [ first ] }
  else
    match continue_from state ~start:next ~current:start with
    | None -> None
    | Some rest -> Some { src; hops = first :: rest }
