type neighbor = { peer : int; rel : Relation.rel; link : Relation.link }

(* Neighbor records are a cold-path convenience view of the CSR arena
   below.  Constructors that materialise them anyway store them
   eagerly; [of_csr] — the mmap snapshot-load path — defers building
   the boxed rows until first use, so a query daemon that only runs
   the packed hot loops never pays the allocation.  The memo is a CAS
   cell rather than [Lazy.t] because lazy forcing is not domain-safe
   under OCaml 5: [build] is pure, so when two domains race both
   compute the same rows and the CAS loser adopts the winner's. *)
type adj_cell = {
  memo : neighbor list array option Atomic.t;
  build : unit -> neighbor list array;
}

type partition = {
  up_off : int array;
  up_words : int array;
  lat_off : int array;
  lat_words : int array;
  down_off : int array;
  down_words : int array;
}

type t = {
  gen : int;
  ases : Asn.t array;
  links : Relation.link array;
  adj : adj_cell;
  (* CSR adjacency arena: AS [x]'s packed neighbor words live at
     [csr_words.(csr_off.(x)) .. csr_words.(csr_off.(x+1) - 1)].  Two
     flat arrays instead of per-node rows keeps the hot propagation
     loops on one contiguous allocation that domains share read-only. *)
  csr_off : int array;
  csr_words : int array;
  (* The arena split by relation class, built from it on first use
     and memoised in a CAS cell like [adj]'s.  Every constructor
     starts an empty cell: a copied one would describe another link
     set. *)
  part : partition option Atomic.t;
}

let eager_adj adj = { memo = Atomic.make (Some adj); build = (fun () -> adj) }

let force_adj t =
  match Atomic.get t.adj.memo with
  | Some a -> a
  | None ->
      let a = t.adj.build () in
      if Atomic.compare_and_set t.adj.memo None (Some a) then a
      else (
        match Atomic.get t.adj.memo with Some winner -> winner | None -> a)

(* Every constructed topology gets a unique generation stamp, so a
   value derived by [remove_links] (the dynamics engine's reconverge
   path) can never alias a cache entry built on its parent.  Atomic:
   scenario construction happens inside pool workers. *)
let gen_counter = Atomic.make 0
let next_gen () = Atomic.fetch_and_add gen_counter 1

(* Packed neighbor word, for allocation-free adjacency scans in the
   propagation hot loops: link id in bits 0-20, peer AS id in bits
   21-40, relation code in bits 41-42. *)
let max_as_count = 1 lsl 20
let max_link_count = 1 lsl 21

let rel_code = function
  | Relation.To_customer -> 0
  | Relation.To_provider -> 1
  | Relation.Priv_peer -> 2
  | Relation.Pub_peer -> 3

let pn_link pn = pn land 0x1F_FFFF
let pn_peer pn = (pn lsr 21) land 0xF_FFFF

let pn_rel pn =
  match pn lsr 41 with
  | 0 -> Relation.To_customer
  | 1 -> Relation.To_provider
  | 2 -> Relation.Priv_peer
  | _ -> Relation.Pub_peer

let pack_neighbor ~rel ~peer ~link_id =
  (rel_code rel lsl 41) lor (peer lsl 21) lor link_id

let pack_of_nb (nb : neighbor) =
  pack_neighbor ~rel:nb.rel ~peer:nb.peer ~link_id:nb.link.Relation.id

let csr_of_adj adj =
  let n = Array.length adj in
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + List.length adj.(i)
  done;
  let words = Array.make off.(n) 0 in
  for i = 0 to n - 1 do
    let j = ref off.(i) in
    List.iter
      (fun nb ->
        words.(!j) <- pack_of_nb nb;
        incr j)
      adj.(i)
  done;
  (off, words)

(* One O(n+m) pass pair: count each row's words per class, then copy
   them in row order. *)
let build_partition (off : int array) (wrd : int array) =
  let n = Array.length off - 1 in
  let up_off = Array.make (n + 1) 0
  and lat_off = Array.make (n + 1) 0
  and down_off = Array.make (n + 1) 0 in
  for x = 0 to n - 1 do
    for i = off.(x) to off.(x + 1) - 1 do
      let o =
        match pn_rel wrd.(i) with
        | Relation.To_provider -> up_off
        | Relation.Priv_peer | Relation.Pub_peer -> lat_off
        | Relation.To_customer -> down_off
      in
      o.(x + 1) <- o.(x + 1) + 1
    done
  done;
  for x = 0 to n - 1 do
    up_off.(x + 1) <- up_off.(x + 1) + up_off.(x);
    lat_off.(x + 1) <- lat_off.(x + 1) + lat_off.(x);
    down_off.(x + 1) <- down_off.(x + 1) + down_off.(x)
  done;
  let up_words = Array.make up_off.(n) 0
  and lat_words = Array.make lat_off.(n) 0
  and down_words = Array.make down_off.(n) 0 in
  for x = 0 to n - 1 do
    let u = ref up_off.(x) and l = ref lat_off.(x) and d = ref down_off.(x) in
    for i = off.(x) to off.(x + 1) - 1 do
      let pn = wrd.(i) in
      match pn_rel pn with
      | Relation.To_provider ->
          up_words.(!u) <- pn;
          incr u
      | Relation.Priv_peer | Relation.Pub_peer ->
          lat_words.(!l) <- pn;
          incr l
      | Relation.To_customer ->
          down_words.(!d) <- pn;
          incr d
    done
  done;
  { up_off; up_words; lat_off; lat_words; down_off; down_words }

let build_adjacency n links =
  let adj = Array.make n [] in
  Array.iter
    (fun (l : Relation.link) ->
      adj.(l.a) <-
        { peer = l.b; rel = Relation.rel_of l l.a; link = l } :: adj.(l.a);
      adj.(l.b) <-
        { peer = l.a; rel = Relation.rel_of l l.b; link = l } :: adj.(l.b))
    links;
  adj

let check_packing_limits n links =
  if n > max_as_count then
    invalid_arg "Topology: AS count exceeds packed-adjacency limit (2^20)";
  Array.iter
    (fun (l : Relation.link) ->
      if l.Relation.id < 0 || l.Relation.id >= max_link_count then
        invalid_arg "Topology: link id exceeds packed-adjacency limit (2^21)")
    links

let check_dense_ases what ases =
  Array.iteri
    (fun i (a : Asn.t) ->
      if a.id <> i then
        invalid_arg (Printf.sprintf "Topology.%s: AS ids must be dense" what);
      if Array.length a.footprint = 0 then
        invalid_arg
          (Printf.sprintf "Topology.%s: AS with empty footprint" what))
    ases

(* Index serialized link records by id, validating endpoints and
   uniqueness. *)
let index_links ~n (links : Relation.link array) =
  let max_id =
    Array.fold_left
      (fun m (l : Relation.link) -> Stdlib.max m l.Relation.id)
      (-1) links
  in
  let by_id = Array.make (max_id + 1) None in
  Array.iter
    (fun (l : Relation.link) ->
      if l.a < 0 || l.a >= n || l.b < 0 || l.b >= n || l.a = l.b then
        invalid_arg "Topology.of_csr: link endpoint out of range";
      if by_id.(l.Relation.id) <> None then
        invalid_arg "Topology.of_csr: duplicate link id";
      by_id.(l.Relation.id) <- Some l)
    links;
  by_id

(* Validate one packed neighbor word of AS [x] against the link
   records. *)
let check_word by_id x pn =
  if pn < 0 || pn lsr 43 <> 0 then
    invalid_arg "Topology.of_csr: packed word out of range";
  let id = pn_link pn and peer = pn_peer pn and rel = pn_rel pn in
  let link = if id >= Array.length by_id then None else by_id.(id) in
  match link with
  | None -> invalid_arg "Topology.of_csr: unknown link id"
  | Some l ->
      if
        not
          ((l.Relation.a = x && l.Relation.b = peer)
          || (l.Relation.b = x && l.Relation.a = peer))
      then
        invalid_arg
          "Topology.of_csr: packed neighbor disagrees with link record";
      if Relation.rel_of l x <> rel then
        invalid_arg "Topology.of_csr: packed relation disagrees with link kind"

let make ases link_list =
  let n = Array.length ases in
  check_dense_ases "make" ases;
  let links =
    Array.of_list
      (List.mapi (fun i (l : Relation.link) -> { l with Relation.id = i }) link_list)
  in
  Array.iter
    (fun (l : Relation.link) ->
      if l.a < 0 || l.a >= n || l.b < 0 || l.b >= n then
        invalid_arg "Topology.make: link endpoint out of range";
      if l.a = l.b then invalid_arg "Topology.make: self-link")
    links;
  check_packing_limits n links;
  let adj = build_adjacency n links in
  let csr_off, csr_words = csr_of_adj adj in
  {
    gen = next_gen ();
    ases;
    links;
    adj = eager_adj adj;
    csr_off;
    csr_words;
    part = Atomic.make None;
  }

let of_csr ~ases ~links ~csr_off ~csr_words =
  let n = Array.length ases in
  check_dense_ases "of_csr" ases;
  check_packing_limits n links;
  if Array.length csr_off <> n + 1 then
    invalid_arg "Topology.of_csr: offset array length <> AS count + 1";
  if csr_off.(0) <> 0 then
    invalid_arg "Topology.of_csr: offsets must start at 0";
  for x = 0 to n - 1 do
    if csr_off.(x + 1) < csr_off.(x) then
      invalid_arg "Topology.of_csr: offsets must be monotone"
  done;
  if csr_off.(n) <> Array.length csr_words then
    invalid_arg "Topology.of_csr: word arena length <> final offset";
  let by_id = index_links ~n links in
  for x = 0 to n - 1 do
    for j = csr_off.(x) to csr_off.(x + 1) - 1 do
      check_word by_id x csr_words.(j)
    done
  done;
  (* Words are validated above, so the deferred row build can decode
     them without re-checking. *)
  let build () =
    Array.init n (fun x ->
        List.init
          (csr_off.(x + 1) - csr_off.(x))
          (fun k ->
            let pn = csr_words.(csr_off.(x) + k) in
            match by_id.(pn_link pn) with
            | Some l -> { peer = pn_peer pn; rel = pn_rel pn; link = l }
            | None -> assert false))
  in
  {
    gen = next_gen ();
    ases;
    links;
    adj = { memo = Atomic.make None; build };
    csr_off;
    csr_words;
    part = Atomic.make None;
  }

let as_count t = Array.length t.ases
let link_count t = Array.length t.links
let generation t = t.gen
let asn t i = t.ases.(i)
let ases t = t.ases
let links t = t.links
let neighbors t i = (force_adj t).(i)
let csr_offsets t = t.csr_off
let csr_words t = t.csr_words

let partition t =
  match Atomic.get t.part with
  | Some p -> p
  | None ->
      let p = build_partition t.csr_off t.csr_words in
      if Atomic.compare_and_set t.part None (Some p) then p
      else (match Atomic.get t.part with Some winner -> winner | None -> p)

let filter_rel t i want =
  List.filter_map
    (fun nb -> if want nb.rel then Some nb.peer else None)
    (neighbors t i)
  |> List.sort_uniq compare

let customers t i = filter_rel t i (fun r -> r = Relation.To_customer)
let providers t i = filter_rel t i (fun r -> r = Relation.To_provider)

let peers t i =
  filter_rel t i (fun r ->
      match r with
      | Relation.Priv_peer | Relation.Pub_peer -> true
      | Relation.To_customer | Relation.To_provider -> false)

let degree t i = List.length (neighbors t i)

let links_between t x y =
  List.filter_map
    (fun nb -> if nb.peer = y then Some nb.link else None)
    (neighbors t x)

let add_as t ~klass ~name ~footprint =
  if Array.length footprint = 0 then
    invalid_arg "Topology.add_as: empty footprint";
  let id = Array.length t.ases in
  if id + 1 > max_as_count then
    invalid_arg "Topology.add_as: AS count exceeds packed-adjacency limit";
  let ases = Array.append t.ases [| { Asn.id; klass; name; footprint } |] in
  ( {
      gen = next_gen ();
      ases;
      links = t.links;
      adj = eager_adj (Array.append (force_adj t) [| [] |]);
      (* The new AS has no neighbors: one more (equal) offset, same
         word arena. *)
      csr_off = Array.append t.csr_off [| t.csr_off.(Array.length t.csr_off - 1) |];
      csr_words = t.csr_words;
      part = Atomic.make None;
    },
    id )

let add_links t specs =
  let base = Array.length t.links in
  let extra =
    List.mapi
      (fun i (a, b, kind, metro, capacity_gbps) ->
        { Relation.id = base + i; a; b; kind; metro; capacity_gbps })
      specs
  in
  let links = Array.append t.links (Array.of_list extra) in
  let n = Array.length t.ases in
  Array.iter
    (fun (l : Relation.link) ->
      if l.a < 0 || l.a >= n || l.b < 0 || l.b >= n || l.a = l.b then
        invalid_arg "Topology.add_links: bad endpoints")
    links;
  check_packing_limits n links;
  let adj = build_adjacency n links in
  let csr_off, csr_words = csr_of_adj adj in
  {
    t with
    gen = next_gen ();
    links;
    adj = eager_adj adj;
    csr_off;
    csr_words;
    part = Atomic.make None;
  }

let remove_links t ids =
  let module S = Set.Make (Int) in
  let failed = S.of_list ids in
  let keep (l : Relation.link) = not (S.mem l.Relation.id failed) in
  let links = Array.of_list (List.filter keep (Array.to_list t.links)) in
  (* Adjacency changes only at the endpoints of removed links; every
     other AS shares its neighbor list with [t].  Filtering preserves
     order, so the result is identical to a full rebuild. *)
  let touched =
    Array.fold_left
      (fun acc (l : Relation.link) ->
        if keep l then acc else S.add l.Relation.a (S.add l.Relation.b acc))
      S.empty t.links
  in
  let adj = Array.copy (force_adj t) in
  S.iter
    (fun x -> adj.(x) <- List.filter (fun nb -> keep nb.link) adj.(x))
    touched;
  (* The CSR arena is contiguous, so it is rebuilt wholesale — O(n+m),
     the same order as the links-array filter above. *)
  let csr_off, csr_words = csr_of_adj adj in
  {
    t with
    gen = next_gen ();
    links;
    adj = eager_adj adj;
    csr_off;
    csr_words;
    part = Atomic.make None;
  }

let remove_links_of_as t asid =
  let ids =
    List.map (fun (nb : neighbor) -> nb.link.Relation.id) (neighbors t asid)
  in
  remove_links t ids

let by_klass t klass =
  Array.to_list t.ases
  |> List.filter_map (fun (a : Asn.t) ->
         if a.klass = klass then Some a.id else None)

let ases_at_metro t metro =
  Array.to_list t.ases
  |> List.filter_map (fun (a : Asn.t) ->
         if Asn.present_at a metro then Some a.id else None)
