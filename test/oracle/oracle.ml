module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Announce = Netsim_bgp.Announce
module Route = Netsim_bgp.Route
module Propagate = Netsim_bgp.Propagate
module Provenance = Netsim_obs.Provenance

(* The packed entry layout of [Propagate.rib_arrays]: NO_EXPORT in
   bit 0, link id in bits 1-21, parent AS in bits 22-41, path length
   from bit 42; -1 is an empty slot.  Integer order is the route
   preference (len, parent, link). *)
let pack ~len ~parent ~link ~ne =
  (len lsl 42) lor (parent lsl 22) lor (link lsl 1) lor if ne then 1 else 0

let e_len v = v lsr 42
let e_parent v = (v lsr 22) land 0xF_FFFF
let e_link v = (v lsr 1) land 0x1F_FFFF
let e_ne v = v land 1 = 1

(* ---- the list adjacency ---------------------------------------------- *)

type neighbor = { peer : int; rel : Relation.rel; link : Relation.link }

(* Rows built by prepending each link to both endpoints' lists in
   link-array order, straight from [Topology.links] — independent of
   the CSR arena, whose rows must come out in the same order. *)
let adjacency topo =
  let adj = Array.make (Topology.as_count topo) [] in
  Array.iter
    (fun (l : Relation.link) ->
      adj.(l.a) <-
        { peer = l.b; rel = Relation.rel_of l l.a; link = l } :: adj.(l.a);
      adj.(l.b) <-
        { peer = l.a; rel = Relation.rel_of l l.b; link = l } :: adj.(l.b))
    (Topology.links topo);
  adj

let neighbors topo x =
  Array.fold_left
    (fun acc (l : Relation.link) ->
      if l.a = x || l.b = x then
        { peer = Relation.other l x; rel = Relation.rel_of l x; link = l } :: acc
      else acc)
    [] (Topology.links topo)

(* Seeds: announcements the origin sends on its own sessions, grouped
   by the class in which the receiving AS learns them. *)
let seeds topo config ~klass =
  let origin = config.Announce.origin in
  List.filter_map
    (fun (nb : neighbor) ->
      let action = Announce.action_on config nb.link in
      let receiver_klass =
        match nb.rel with
        | Relation.To_customer -> Route.Provider
        | Relation.To_provider -> Route.Customer
        | Relation.Priv_peer | Relation.Pub_peer -> Route.Peer
      in
      if action.Announce.export && receiver_klass = klass then
        Some
          ( nb.peer,
            1 + action.Announce.prepend,
            origin,
            nb.link,
            action.Announce.no_export )
      else None)
    (neighbors topo origin)

(* ---- the Set-based reference ------------------------------------------ *)

module Pq = Set.Make (struct
  type t = int * int * int * int * Relation.link * bool

  let compare (l1, p1, k1, t1, _, _) (l2, p2, k2, t2, _, _) =
    compare (l1, p1, k1, t1) (l2, p2, k2, t2)
end)

type ref_entry = {
  r_len : int;
  r_parent : int;
  r_link : Relation.link;
  r_ne : bool;
}

let run topo config =
  let n = Topology.as_count topo in
  let adj = adjacency topo in
  let origin = config.Announce.origin in
  let cust = Array.make n None in
  let peer = Array.make n None in
  let prov = Array.make n None in
  (* ---- Phase 1: customer-learned routes (propagate upward). ---- *)
  let push pq (target, len, parent, link, no_export) =
    pq := Pq.add (len, parent, link.Relation.id, target, link, no_export) !pq
  in
  let pq = ref Pq.empty in
  List.iter (push pq) (seeds topo config ~klass:Route.Customer);
  while not (Pq.is_empty !pq) do
    let ((len, parent, _, target, link, no_export) as elt) = Pq.min_elt !pq in
    pq := Pq.remove elt !pq;
    if target <> origin && cust.(target) = None then begin
      cust.(target) <-
        Some { r_len = len; r_parent = parent; r_link = link; r_ne = no_export };
      if not no_export then
        List.iter
          (fun (nb : neighbor) ->
            if nb.rel = Relation.To_provider && nb.peer <> origin then
              push pq (nb.peer, len + 1, target, nb.link, false))
          adj.(target)
    end
  done;
  (* ---- Phase 2: peer-learned routes (single lateral step). ---- *)
  let better (candidate : ref_entry) (current : ref_entry option) =
    match current with
    | None -> true
    | Some e ->
        candidate.r_len < e.r_len
        || candidate.r_len = e.r_len
           && (candidate.r_parent, candidate.r_link.Relation.id)
              < (e.r_parent, e.r_link.Relation.id)
  in
  List.iter
    (fun (target, len, parent, link, no_export) ->
      if target <> origin then begin
        let candidate =
          { r_len = len; r_parent = parent; r_link = link; r_ne = no_export }
        in
        if better candidate peer.(target) then peer.(target) <- Some candidate
      end)
    (seeds topo config ~klass:Route.Peer);
  for x = 0 to n - 1 do
    match cust.(x) with
    | None -> ()
    | Some ex ->
        if not ex.r_ne then
          List.iter
            (fun (nb : neighbor) ->
              match nb.rel with
              | Relation.Priv_peer | Relation.Pub_peer ->
                  if nb.peer <> origin then begin
                    let candidate =
                      { r_len = ex.r_len + 1; r_parent = x; r_link = nb.link;
                        r_ne = false }
                    in
                    if better candidate peer.(nb.peer) then
                      peer.(nb.peer) <- Some candidate
                  end
              | Relation.To_customer | Relation.To_provider -> ())
            adj.(x)
  done;
  (* ---- Phase 3: provider-learned routes (propagate downward). ---- *)
  let sel_fixed x = match cust.(x) with Some e -> Some e | None -> peer.(x) in
  let pq = ref Pq.empty in
  List.iter (push pq) (seeds topo config ~klass:Route.Provider);
  for x = 0 to n - 1 do
    match sel_fixed x with
    | None -> ()
    | Some ex ->
        if not ex.r_ne then
          List.iter
            (fun (nb : neighbor) ->
              if nb.rel = Relation.To_customer && nb.peer <> origin then
                push pq (nb.peer, ex.r_len + 1, x, nb.link, false))
            adj.(x)
  done;
  while not (Pq.is_empty !pq) do
    let ((len, parent, _, target, link, no_export) as elt) = Pq.min_elt !pq in
    pq := Pq.remove elt !pq;
    if target <> origin && prov.(target) = None then begin
      prov.(target) <-
        Some { r_len = len; r_parent = parent; r_link = link; r_ne = no_export };
      if sel_fixed target = None && not no_export then
        List.iter
          (fun (nb : neighbor) ->
            if nb.rel = Relation.To_customer && nb.peer <> origin then
              push pq (nb.peer, len + 1, target, nb.link, false))
          adj.(target)
    end
  done;
  let pack_opt = function
    | None -> -1
    | Some e ->
        pack ~len:e.r_len ~parent:e.r_parent ~link:e.r_link.Relation.id
          ~ne:e.r_ne
  in
  Propagate.of_rib_arrays ~topo ~config ~cust:(Array.map pack_opt cust)
    ~peer:(Array.map pack_opt peer) ~prov:(Array.map pack_opt prov)

(* ---- the provenance oracle -------------------------------------------- *)

let klass_of_cls = function
  | 0 -> Route.Customer
  | 1 -> Route.Peer
  | _ -> Route.Provider

let decision s x =
  let topo = Propagate.topology s and config = Propagate.config s in
  let origin = config.Announce.origin in
  let cust, peer, prov = Propagate.rib_arrays s in
  let selected y =
    if cust.(y) >= 0 then cust.(y) else if peer.(y) >= 0 then peer.(y)
    else prov.(y)
  in
  if x = origin then None
  else begin
    (* Every candidate x receives, per class: the origin's own
       announcements, customer routes from customers and peers, and
       selected routes from providers — never a NO_EXPORT one. *)
    let cands = Array.make 3 [] in
    let add cls v = cands.(cls) <- v :: cands.(cls) in
    List.iter
      (fun (nb : neighbor) ->
        let link = nb.link.Relation.id and y = nb.peer in
        let cls =
          match nb.rel with
          | Relation.To_customer -> 0
          | Relation.Priv_peer | Relation.Pub_peer -> 1
          | Relation.To_provider -> 2
        in
        if y = origin then begin
          let a = Announce.action_on config nb.link in
          if a.Announce.export then
            add cls
              (pack ~len:(1 + a.Announce.prepend) ~parent:origin ~link
                 ~ne:a.Announce.no_export)
        end
        else begin
          let ex = if cls = 2 then selected y else cust.(y) in
          if ex >= 0 && not (e_ne ex) then
            add cls (pack ~len:(e_len ex + 1) ~parent:y ~link ~ne:false)
        end)
      (neighbors topo x);
    let sorted = Array.map (List.sort compare) cands in
    match List.find_opt (fun c -> sorted.(c) <> []) [ 0; 1; 2 ] with
    | None -> None
    | Some cls ->
        let winner = List.hd sorted.(cls) in
        let runner klass v =
          { Propagate.r_klass = klass; r_path_len = e_len v;
            r_next_hop = e_parent v; r_link_id = e_link v }
        in
        let lower =
          List.find_opt (fun c -> c > cls && sorted.(c) <> []) [ 1; 2 ]
        in
        let d_runner, d_rule =
          match (sorted.(cls), lower) with
          | _ :: second :: _, _ ->
              ( Some (runner (klass_of_cls cls) second),
                if e_len second <> e_len winner then Provenance.Path_length
                else Provenance.Stable_id )
          | _, Some c ->
              (Some (runner (klass_of_cls c) (List.hd sorted.(c))), Provenance.Phase)
          | _, None -> (None, Provenance.Only_candidate)
        in
        Some
          {
            Propagate.d_klass = klass_of_cls cls;
            d_path_len = e_len winner;
            d_next_hop = e_parent winner;
            d_link_id = e_link winner;
            d_cand_cust = List.length cands.(0);
            d_cand_peer = List.length cands.(1);
            d_cand_prov = List.length cands.(2);
            d_rule;
            d_runner;
          }
  end

(* ---- samplers --------------------------------------------------------- *)

let categorical weights rng =
  let total = Array.fold_left ( +. ) 0. weights in
  if total <= 0. then invalid_arg "Dist.categorical: weights must sum > 0";
  let u = Netsim_prng.Splitmix.next_float rng *. total in
  let n = Array.length weights in
  let rec go i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else go (i + 1) acc
  in
  go 0 0.

let sample_without_replacement rng k arr =
  let n = Array.length arr in
  let k = min k n in
  let copy = Array.copy arr in
  for i = 0 to k - 1 do
    let j = i + Netsim_prng.Splitmix.next_int rng (n - i) in
    let tmp = copy.(i) in
    copy.(i) <- copy.(j);
    copy.(j) <- tmp
  done;
  Array.sub copy 0 k
