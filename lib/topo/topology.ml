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
  (* Link records indexed by id: [links] itself while ids are dense,
     else a table with [dummy_link] in the holes [remove_links]
     leaves. *)
  by_id : Relation.link array;
  (* CSR adjacency arena, the only adjacency: AS [x]'s packed neighbor
     words live at [csr_words.(csr_off.(x)) .. csr_words.(csr_off.(x+1)
     - 1)].  Two flat arrays instead of per-node rows keeps the hot
     propagation loops on one contiguous allocation that domains share
     read-only. *)
  csr_off : int array;
  csr_words : int array;
  (* The arena split by relation class, built from it on first use
     and memoised in a CAS cell rather than [Lazy.t], because lazy
     forcing is not domain-safe under OCaml 5.  Every constructor
     starts an empty cell: a copied one would describe another link
     set. *)
  part : partition option Atomic.t;
}

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

let pack_neighbor (l : Relation.link) x ~peer =
  (rel_code (Relation.rel_of l x) lsl 41) lor (peer lsl 21) lor l.Relation.id

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

let dummy_link =
  { Relation.id = -1; a = -1; b = -1; kind = Relation.C2p; metro = 0;
    capacity_gbps = 0. }

(* The one constructor: validate, index links by id, and build the
   arena by counting sort — count each row's words, prefix-sum the
   counts into offsets, then fill every row from its end while walking
   the link array forwards.  A row therefore lists its links in
   reverse link-array order. *)
let of_links ~what ases (links : Relation.link array) =
  let fail msg = invalid_arg (Printf.sprintf "Topology.%s: %s" what msg) in
  let n = Array.length ases in
  Array.iteri
    (fun i (a : Asn.t) ->
      if a.id <> i then fail "AS ids must be dense";
      if Array.length a.footprint = 0 then fail "AS with empty footprint")
    ases;
  if n > max_as_count then
    fail "AS count exceeds packed-adjacency limit (2^20)";
  let off = Array.make (n + 1) 0 in
  let dense = ref true and max_id = ref (-1) in
  Array.iteri
    (fun i (l : Relation.link) ->
      if l.a < 0 || l.a >= n || l.b < 0 || l.b >= n then
        fail "link endpoint out of range";
      if l.a = l.b then fail "self-link";
      if l.id < 0 || l.id >= max_link_count then
        fail "link id exceeds packed-adjacency limit (2^21)";
      if l.id <> i then dense := false;
      if l.id > !max_id then max_id := l.id;
      off.(l.a + 1) <- off.(l.a + 1) + 1;
      off.(l.b + 1) <- off.(l.b + 1) + 1)
    links;
  let by_id =
    if !dense then links
    else begin
      let tbl = Array.make (!max_id + 1) dummy_link in
      Array.iter
        (fun (l : Relation.link) ->
          if tbl.(l.id) != dummy_link then fail "duplicate link id";
          tbl.(l.id) <- l)
        links;
      tbl
    end
  in
  for x = 0 to n - 1 do
    off.(x + 1) <- off.(x + 1) + off.(x)
  done;
  let fill = Array.sub off 1 n in
  let words = Array.make off.(n) 0 in
  Array.iter
    (fun (l : Relation.link) ->
      let a = l.a and b = l.b in
      fill.(a) <- fill.(a) - 1;
      words.(fill.(a)) <- pack_neighbor l a ~peer:b;
      fill.(b) <- fill.(b) - 1;
      words.(fill.(b)) <- pack_neighbor l b ~peer:a)
    links;
  {
    gen = next_gen ();
    ases;
    links;
    by_id;
    csr_off = off;
    csr_words = words;
    part = Atomic.make None;
  }

let make ases link_list =
  of_links ~what:"make" ases
    (Array.of_list
       (List.mapi
          (fun i (l : Relation.link) -> { l with Relation.id = i })
          link_list))

let of_csr ~ases ~links ~csr_off ~csr_words =
  let t = of_links ~what:"of_csr" ases links in
  if csr_off <> t.csr_off || csr_words <> t.csr_words then
    invalid_arg "Topology.of_csr: arena disagrees with the link records";
  t

let as_count t = Array.length t.ases
let link_count t = Array.length t.links
let generation t = t.gen
let asn t i = t.ases.(i)
let ases t = t.ases
let links t = t.links

(* Hot: [Propagate] decodes every entry's link through here.  The hole
   test is physical so it never loads the record, which is a cache
   miss at scale. *)
let link t id =
  if id < 0 || id >= Array.length t.by_id || t.by_id.(id) == dummy_link then
    invalid_arg (Printf.sprintf "Topology.link: unknown link id %d" id);
  t.by_id.(id)

let csr_offsets t = t.csr_off
let csr_words t = t.csr_words

let fold_row t x f init =
  let acc = ref init in
  for i = t.csr_off.(x + 1) - 1 downto t.csr_off.(x) do
    acc := f t.csr_words.(i) !acc
  done;
  !acc

let partition t =
  match Atomic.get t.part with
  | Some p -> p
  | None ->
      let p = build_partition t.csr_off t.csr_words in
      if Atomic.compare_and_set t.part None (Some p) then p
      else (match Atomic.get t.part with Some winner -> winner | None -> p)

let peers_where t i want =
  fold_row t i
    (fun pn acc -> if want (pn_rel pn) then pn_peer pn :: acc else acc)
    []
  |> List.sort_uniq compare

let customers t i = peers_where t i (fun r -> r = Relation.To_customer)
let providers t i = peers_where t i (fun r -> r = Relation.To_provider)

let peers t i =
  peers_where t i (function
    | Relation.Priv_peer | Relation.Pub_peer -> true
    | Relation.To_customer | Relation.To_provider -> false)

let degree t i = t.csr_off.(i + 1) - t.csr_off.(i)

let links_between t x y =
  fold_row t x
    (fun pn acc -> if pn_peer pn = y then t.by_id.(pn_link pn) :: acc else acc)
    []

let link_ids_of t ?metro asid =
  fold_row t asid
    (fun pn acc ->
      let id = pn_link pn in
      match metro with
      | Some m when t.by_id.(id).Relation.metro <> m -> acc
      | Some _ | None -> id :: acc)
    []
  |> List.sort_uniq compare

let add_as t ~klass ~name ~footprint =
  let id = Array.length t.ases in
  ( of_links ~what:"add_as"
      (Array.append t.ases [| { Asn.id; klass; name; footprint } |])
      t.links,
    id )

let add_links t specs =
  let base = Array.length t.by_id in
  let extra =
    List.mapi
      (fun i (a, b, kind, metro, capacity_gbps) ->
        { Relation.id = base + i; a; b; kind; metro; capacity_gbps })
      specs
  in
  of_links ~what:"add_links" t.ases (Array.append t.links (Array.of_list extra))

let remove_links t ids =
  let failed = Array.make (Array.length t.by_id) false in
  List.iter
    (fun id -> if id >= 0 && id < Array.length failed then failed.(id) <- true)
    ids;
  let links =
    Array.of_list
      (List.filter
         (fun (l : Relation.link) -> not failed.(l.Relation.id))
         (Array.to_list t.links))
  in
  of_links ~what:"remove_links" t.ases links

let remove_links_of_as t asid = remove_links t (link_ids_of t asid)

let by_klass t klass =
  Array.to_list t.ases
  |> List.filter_map (fun (a : Asn.t) ->
         if a.klass = klass then Some a.id else None)

let ases_at_metro t metro =
  Array.to_list t.ases
  |> List.filter_map (fun (a : Asn.t) ->
         if Asn.present_at a metro then Some a.id else None)
