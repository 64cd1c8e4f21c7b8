module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Provenance = Netsim_obs.Provenance

type entry = {
  len : int;
  parent : int;
  link : Relation.link;
  no_export : bool;
      (** The route carries NO_EXPORT: usable here, never re-exported. *)
}

(* ---- bit-packed routing entries -------------------------------------- *)

(* Per-AS, per-class routing state lives in flat int arrays instead of
   [entry option array]s: one immediate word per entry, no pointer
   chasing and no per-entry allocation in the hot loops.  Layout (an
   empty slot is -1, so the sign bit doubles as the presence flag):

     bit  0      no_export
     bits 1-21   link id        (21 bits; Topology caps ids at 2^21)
     bits 22-41  parent AS id   (20 bits; Topology caps ASes at 2^20)
     bits 42-61  path length    (20 bits)

   Integer comparison of two packed entries is exactly the
   deterministic route preference (len, parent, link id) the Set-based
   implementation used, so "is this candidate better" is one compare. *)

let e_pack ~len ~parent ~link ~ne =
  (len lsl 42) lor (parent lsl 22) lor (link lsl 1) lor (if ne then 1 else 0)

let e_len v = v lsr 42
let e_parent v = (v lsr 22) land 0xF_FFFF
let e_link v = (v lsr 1) land 0x1F_FFFF
let e_ne v = v land 1 = 1

let max_path_len = (1 lsl 20) - 1

type state = {
  topo : Topology.t;
  config : Announce.t;
  link_by_id : Relation.link array;
      (** Link records indexed by id (ids survive [remove_links], so
          this is {e not} the topology's [links] array). *)
  cust : int array;
  peer : int array;
  prov : int array;
  pv : Provenance.arena option;
      (** Decision evidence per (class, AS), present when the state was
          computed with provenance on. *)
}

let topology s = s.topo
let config s = s.config
let origin s = s.config.Announce.origin

let dummy_link =
  { Relation.id = -1; a = -1; b = -1; kind = Relation.C2p; metro = 0;
    capacity_gbps = 0. }

let link_index topo =
  let links = Topology.links topo in
  let max_id =
    Array.fold_left
      (fun m (l : Relation.link) -> Stdlib.max m l.Relation.id)
      (-1) links
  in
  let t = Array.make (max_id + 1) dummy_link in
  Array.iter (fun (l : Relation.link) -> t.(l.Relation.id) <- l) links;
  t

let entry_of s v =
  {
    len = e_len v;
    parent = e_parent v;
    link = s.link_by_id.(e_link v);
    no_export = e_ne v;
  }

let get s (arr : int array) x =
  let v = arr.(x) in
  if v < 0 then None else Some (entry_of s v)

(* ---- monotone bucket (Dial) queue ------------------------------------ *)

(* Export candidates queue up in per-path-length buckets: lengths only
   ever grow by one hop, so the scan over buckets is monotone and the
   whole priority queue is append + one sort per bucket — no [Set]
   node churn, no tuple allocation.  A queued candidate is one packed
   int (the bucket index carries the length):

     bit  0      no_export
     bits 1-20   target AS id
     bits 21-41  link id
     bits 42-61  parent AS id

   Ascending int order is (parent, link, target): exactly the
   tie-break order the Set-based queue popped in within one length.
   Every push from a bucket goes to a strictly higher bucket, so a
   bucket is complete when the scan reaches it, and one sort there
   reproduces the full (len, parent, link, target) pop order —
   results are bit-identical to [run_reference]. *)

let q_pack ~parent ~link ~target ~ne =
  (parent lsl 42) lor (link lsl 21) lor (target lsl 1)
  lor (if ne then 1 else 0)

let q_parent v = v lsr 42
let q_link v = (v lsr 21) land 0x1F_FFFF
let q_target v = (v lsr 1) land 0xF_FFFF
let q_ne v = v land 1 = 1

type dial = {
  mutable buckets : int array array;
  mutable sizes : int array;
  mutable cur : int;  (** buckets below this are drained *)
  mutable pending : int;
}

let dial_create () =
  { buckets = Array.make 16 [||]; sizes = Array.make 16 0; cur = 0; pending = 0 }

let dial_push q ~len packed =
  if len < 0 || len > max_path_len then
    invalid_arg "Propagate: path length out of packed range";
  if len < q.cur then invalid_arg "Propagate: non-monotone queue push";
  let cap = Array.length q.buckets in
  if len >= cap then begin
    let ncap = Stdlib.max (len + 1) (2 * cap) in
    let nb = Array.make ncap [||] and ns = Array.make ncap 0 in
    Array.blit q.buckets 0 nb 0 cap;
    Array.blit q.sizes 0 ns 0 cap;
    q.buckets <- nb;
    q.sizes <- ns
  end;
  let b = q.buckets.(len) and sz = q.sizes.(len) in
  let b =
    if sz = Array.length b then begin
      let nb = Array.make (Stdlib.max 8 (2 * sz)) 0 in
      Array.blit b 0 nb 0 sz;
      q.buckets.(len) <- nb;
      nb
    end
    else b
  in
  b.(sz) <- packed;
  q.sizes.(len) <- sz + 1;
  q.pending <- q.pending + 1

(* Ascending in-place sort of a.(lo..hi-1): insertion sort for small
   ranges, median-of-three quicksort above — monomorphic int compares
   throughout. *)
let rec sort_range (a : int array) lo hi =
  if hi - lo <= 12 then
    for i = lo + 1 to hi - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    let mid = lo + ((hi - lo) lsr 1) in
    let x = a.(lo) and y = a.(mid) and z = a.(hi - 1) in
    let pivot =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while a.(!j) > pivot do
        decr j
      done;
      if !i <= !j then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    sort_range a lo (!j + 1);
    sort_range a !i hi
  end

let dial_drain q f =
  while q.pending > 0 do
    while q.sizes.(q.cur) = 0 do
      q.cur <- q.cur + 1
    done;
    let len = q.cur in
    let b = q.buckets.(len) and sz = q.sizes.(len) in
    sort_range b 0 sz;
    (* Processing can only push to higher buckets, so [sz] is final. *)
    q.pending <- q.pending - sz;
    q.sizes.(len) <- 0;
    q.cur <- len + 1;
    for i = 0 to sz - 1 do
      f ~len b.(i)
    done
  done

(* Seeds: announcements the origin sends on its own sessions, grouped
   by the class in which the receiving AS learns them. *)
let seeds topo config ~klass =
  let origin = config.Announce.origin in
  List.filter_map
    (fun (nb : Topology.neighbor) ->
      let action = Announce.action_on config nb.link in
      if not action.Announce.export then None
      else begin
        (* nb.rel is the relation from the origin's perspective; the
           receiver's class is the mirror image. *)
        let receiver_klass =
          match nb.rel with
          | Relation.To_customer -> Route.Provider (* receiver sees provider *)
          | Relation.To_provider -> Route.Customer (* receiver sees customer *)
          | Relation.Priv_peer | Relation.Pub_peer -> Route.Peer
        in
        if receiver_klass = klass then
          Some
            ( nb.peer,
              1 + action.Announce.prepend,
              origin,
              nb.link,
              action.Announce.no_export )
        else None
      end)
    (Topology.neighbors topo origin)

let c_exported = Netsim_obs.Metrics.counter "bgp.announcements_exported"
let c_selected = Netsim_obs.Metrics.counter "bgp.routes_selected"
let c_visited = Netsim_obs.Metrics.counter "bgp.ases_visited"

let record_run_stats ~tracing n (cust : int array) peer prov =
  if tracing then begin
    let selected = ref 0 and visited = ref 0 in
    for x = 0 to n - 1 do
      let c = cust.(x) >= 0 and p = peer.(x) >= 0 and v = prov.(x) >= 0 in
      if c then Stdlib.incr selected;
      if p then Stdlib.incr selected;
      if v then Stdlib.incr selected;
      if c || p || v then Stdlib.incr visited
    done;
    Netsim_obs.Metrics.add c_selected !selected;
    Netsim_obs.Metrics.add c_visited !visited
  end

(* Which tie-break rule discriminated the winner of class [cls] at AS
   [x] from the overall runner-up.  A same-class runner-up loses on
   path length or the stable (parent, link) pair; otherwise the best
   entry of the next non-empty class lost on relationship class alone;
   otherwise the winner was the only candidate anywhere. *)
let pv_rule pva ~cust:(_ : int array) ~peer ~prov ~cls ~winner x =
  let same = Provenance.runner_up pva ~cls x in
  if same >= 0 then
    if e_len same <> e_len winner then Provenance.Path_length
    else Provenance.Stable_id
  else if cls = 0 && peer.(x) >= 0 then Provenance.Phase
  else if cls <= 1 && prov.(x) >= 0 then Provenance.Phase
  else Provenance.Only_candidate

(* Per-run counter tally: decisions by winning phase and a histogram
   of discriminating rules.  Only from full runs (reconverge rebuilds
   its arena through [run]). *)
let record_provenance_stats ~tracing n ~origin pva cust peer prov =
  if tracing then
    for x = 0 to n - 1 do
      if x <> origin then begin
        let cls =
          if cust.(x) >= 0 then 0
          else if peer.(x) >= 0 then 1
          else if prov.(x) >= 0 then 2
          else -1
        in
        if cls >= 0 then begin
          let winner =
            match cls with 0 -> cust.(x) | 1 -> peer.(x) | _ -> prov.(x)
          in
          Provenance.bump_decision cls;
          Provenance.bump_rule (pv_rule pva ~cust ~peer ~prov ~cls ~winner x)
        end
      end
    done

(* Shared placeholder for provenance-off runs: never written, so the
   hot loops can hold an unconditional arena local and guard each
   record with the [pv_on] immutable bool (load + branch, the flight
   recorder's disabled-cost discipline). *)
let no_arena = Provenance.create 0

let run ?provenance topo config =
  Netsim_obs.Span.with_ ~name:"bgp.propagate" @@ fun () ->
  (* One flag read per run: record sites below are guarded by this
     immutable local so the disabled-mode cost in the hot loops is a
     single well-predicted branch. *)
  let tracing = Netsim_obs.Metrics.enabled () in
  let pv_on =
    match provenance with Some b -> b | None -> Provenance.enabled ()
  in
  let n = Topology.as_count topo in
  (* CSR adjacency arena: AS x's packed neighbor words are
     wrd.(off.(x)) .. wrd.(off.(x+1)-1).  Hoisted once per run. *)
  let off = Topology.csr_offsets topo and wrd = Topology.csr_words topo in
  let pva = if pv_on then Provenance.create n else no_arena in
  let origin = config.Announce.origin in
  let cust = Array.make n (-1) in
  let peer = Array.make n (-1) in
  let prov = Array.make n (-1) in
  (* ---- Phase 1: customer-learned routes (propagate upward). ---- *)
  let q = dial_create () in
  let push_seed (target, len, (_ : int), link, ne) =
    if tracing then Netsim_obs.Metrics.incr c_exported;
    dial_push q ~len (q_pack ~parent:origin ~link:link.Relation.id ~target ~ne)
  in
  List.iter push_seed (seeds topo config ~klass:Route.Customer);
  (* Provenance in the drains: the queue is monotone, so the first pop
     for a target is the winning candidate and every later pop a loser
     — count each arrival, offer losers as runner-ups. *)
  dial_drain q (fun ~len v ->
      let target = q_target v in
      if target <> origin then
        if cust.(target) < 0 then begin
          if pv_on then Provenance.count pva ~cls:0 target;
          cust.(target) <-
            e_pack ~len ~parent:(q_parent v) ~link:(q_link v) ~ne:(q_ne v);
          (* target exports its best customer route to its providers —
             unless the announcement was scoped with NO_EXPORT. *)
          if not (q_ne v) then
            for i = off.(target) to off.(target + 1) - 1 do
              let pn = wrd.(i) in
              match Topology.pn_rel pn with
              | Relation.To_provider ->
                  let up = Topology.pn_peer pn in
                  if up <> origin then begin
                    if tracing then Netsim_obs.Metrics.incr c_exported;
                    dial_push q ~len:(len + 1)
                      (q_pack ~parent:target ~link:(Topology.pn_link pn)
                         ~target:up ~ne:false)
                  end
              | Relation.To_customer | Relation.Priv_peer | Relation.Pub_peer
                ->
                  ()
            done
        end
        else if pv_on then begin
          Provenance.count pva ~cls:0 target;
          Provenance.offer pva ~cls:0 target
            (e_pack ~len ~parent:(q_parent v) ~link:(q_link v) ~ne:(q_ne v))
        end);
  (* ---- Phase 2: peer-learned routes (single lateral step). ----
     Provenance here is the classic two-minima update: when a new best
     displaces the current entry, the displaced entry is offered as
     runner-up (it beat every earlier loser); otherwise the candidate
     itself lost.  Order-independent either way. *)
  List.iter
    (fun (target, len, (_ : int), (link : Relation.link), ne) ->
      if target <> origin then begin
        let cand = e_pack ~len ~parent:origin ~link:link.Relation.id ~ne in
        let cur = peer.(target) in
        if pv_on then begin
          Provenance.count pva ~cls:1 target;
          if cur >= 0 then
            Provenance.offer pva ~cls:1 target (if cand < cur then cur else cand)
        end;
        if cur < 0 || cand < cur then peer.(target) <- cand
      end)
    (seeds topo config ~klass:Route.Peer);
  for x = 0 to n - 1 do
    let ex = cust.(x) in
    if ex >= 0 && not (e_ne ex) then begin
      let len1 = e_len ex + 1 in
      for i = off.(x) to off.(x + 1) - 1 do
        let pn = wrd.(i) in
        match Topology.pn_rel pn with
        | Relation.Priv_peer | Relation.Pub_peer ->
            let lateral = Topology.pn_peer pn in
            if lateral <> origin then begin
              let cand =
                e_pack ~len:len1 ~parent:x ~link:(Topology.pn_link pn) ~ne:false
              in
              let cur = peer.(lateral) in
              if pv_on then begin
                Provenance.count pva ~cls:1 lateral;
                if cur >= 0 then
                  Provenance.offer pva ~cls:1 lateral
                    (if cand < cur then cur else cand)
              end;
              if cur < 0 || cand < cur then peer.(lateral) <- cand
            end
        | Relation.To_customer | Relation.To_provider -> ()
      done
    end
  done;
  (* ---- Phase 3: provider-learned routes (propagate downward). ---- *)
  let q = dial_create () in
  List.iter
    (fun (target, len, (_ : int), (link : Relation.link), ne) ->
      if tracing then Netsim_obs.Metrics.incr c_exported;
      dial_push q ~len (q_pack ~parent:origin ~link:link.Relation.id ~target ~ne))
    (seeds topo config ~klass:Route.Provider);
  (* ASes whose selection is already final export to their customers
     regardless of phase-3 progress. *)
  for x = 0 to n - 1 do
    let ex = if cust.(x) >= 0 then cust.(x) else peer.(x) in
    if ex >= 0 && not (e_ne ex) then begin
      let len1 = e_len ex + 1 in
      for i = off.(x) to off.(x + 1) - 1 do
        let pn = wrd.(i) in
        match Topology.pn_rel pn with
        | Relation.To_customer ->
            let down = Topology.pn_peer pn in
            if down <> origin then begin
              if tracing then Netsim_obs.Metrics.incr c_exported;
              dial_push q ~len:len1
                (q_pack ~parent:x ~link:(Topology.pn_link pn) ~target:down
                   ~ne:false)
            end
        | Relation.To_provider | Relation.Priv_peer | Relation.Pub_peer -> ()
      done
    end
  done;
  dial_drain q (fun ~len v ->
      let target = q_target v in
      if target <> origin then
        if prov.(target) < 0 then begin
          if pv_on then Provenance.count pva ~cls:2 target;
          prov.(target) <-
            e_pack ~len ~parent:(q_parent v) ~link:(q_link v) ~ne:(q_ne v);
          (* If the provider route is the target's selected best, it now
             exports that route to its customers. *)
          if cust.(target) < 0 && peer.(target) < 0 && not (q_ne v) then
            for i = off.(target) to off.(target + 1) - 1 do
              let pn = wrd.(i) in
              match Topology.pn_rel pn with
              | Relation.To_customer ->
                  let down = Topology.pn_peer pn in
                  if down <> origin then begin
                    if tracing then Netsim_obs.Metrics.incr c_exported;
                    dial_push q ~len:(len + 1)
                      (q_pack ~parent:target ~link:(Topology.pn_link pn)
                         ~target:down ~ne:false)
                  end
              | Relation.To_provider | Relation.Priv_peer | Relation.Pub_peer
                ->
                  ()
            done
        end
        else if pv_on then begin
          Provenance.count pva ~cls:2 target;
          Provenance.offer pva ~cls:2 target
            (e_pack ~len ~parent:(q_parent v) ~link:(q_link v) ~ne:(q_ne v))
        end);
  record_run_stats ~tracing n cust peer prov;
  if pv_on then record_provenance_stats ~tracing n ~origin pva cust peer prov;
  { topo; config; link_by_id = link_index topo; cust; peer; prov;
    pv = (if pv_on then Some pva else None) }

(* ---- batched multi-origin propagation -------------------------------- *)

(* [run_batch] sweeps many origins through the topology in one pass.
   Per origin it performs exactly the pushes of [run]: queue entries of
   different origins never interact, and within a level each target's
   winner is the minimum candidate by (parent, link, ne) — the same
   entry [run]'s sorted first-pop selects — so every returned state is
   entry-identical to an independent [run] (the differential property
   in test/test_scale.ml).  What batching buys over k independent
   runs:

   - the level drains settle by minimum instead of by sorted pop
     order, so the per-bucket sort — a large share of [run]'s queue
     cost — disappears entirely;
   - [link_index] and the class-partitioned adjacency are built once
     per batch instead of once per run;
   - the phase-2 lateral and phase-3 boundary sweeps walk each CSR row
     once, with the origins in the inner loop;
   - export scans in the drains iterate only the edges of the relevant
     relation class (the partitioned arena) instead of decoding every
     word of a full row per origin.

   Entry state lives in stride-k flat arrays (class.(x * k + o)) so
   the inner origin loops stay on adjacent words. *)

let c_batches = Netsim_obs.Metrics.counter "bgp.propagate_batches"
let c_batch_origins = Netsim_obs.Metrics.counter "bgp.propagate_batch_origins"

(* The dial queue generalized to per-(length, origin) sub-buckets.  A
   packed queue word has no spare bits for the origin, so the origin
   index selects a sub-bucket instead.  Buckets stay unsorted — level
   drains settle each target by minimum candidate, which coincides
   with [run]'s sorted pop order (see the drain comment in
   [run_batch]) — and cross-origin interleaving is unobservable
   because an origin's entries only touch its own slots. *)
type bdial = {
  bk : int;
  mutable bbuckets : int array array array;  (* [len].(org) packed words *)
  mutable bsizes : int array array;  (* [len].(org) fill count *)
  mutable blevel : int array;  (* pending words per length *)
  mutable bcur : int;
  mutable bpending : int;
}

let bdial_create k =
  {
    bk = k;
    bbuckets = Array.make 16 [||];
    bsizes = Array.make 16 [||];
    blevel = Array.make 16 0;
    bcur = 0;
    bpending = 0;
  }

let bdial_push q ~len ~org packed =
  if len < 0 || len > max_path_len then
    invalid_arg "Propagate: path length out of packed range";
  if len < q.bcur then invalid_arg "Propagate: non-monotone queue push";
  let cap = Array.length q.bbuckets in
  if len >= cap then begin
    let ncap = Stdlib.max (len + 1) (2 * cap) in
    let nb = Array.make ncap [||]
    and ns = Array.make ncap [||]
    and nl = Array.make ncap 0 in
    Array.blit q.bbuckets 0 nb 0 cap;
    Array.blit q.bsizes 0 ns 0 cap;
    Array.blit q.blevel 0 nl 0 cap;
    q.bbuckets <- nb;
    q.bsizes <- ns;
    q.blevel <- nl
  end;
  if Array.length q.bsizes.(len) = 0 then begin
    q.bbuckets.(len) <- Array.make q.bk [||];
    q.bsizes.(len) <- Array.make q.bk 0
  end;
  let row = q.bbuckets.(len) and szs = q.bsizes.(len) in
  let b = row.(org) and sz = szs.(org) in
  let b =
    if sz = Array.length b then begin
      let nb = Array.make (Stdlib.max 8 (2 * sz)) 0 in
      Array.blit b 0 nb 0 sz;
      row.(org) <- nb;
      nb
    end
    else b
  in
  b.(sz) <- packed;
  szs.(org) <- sz + 1;
  q.blevel.(len) <- q.blevel.(len) + 1;
  q.bpending <- q.bpending + 1

(* Open the next non-empty level for draining: returns the length, the
   per-origin buckets and fills, and marks the level consumed (pops at
   [len] only push to [len + 1], so these buckets are final — same
   argument as [dial_drain], per origin). *)
let bdial_next_level q =
  while q.blevel.(q.bcur) = 0 do
    q.bcur <- q.bcur + 1
  done;
  let len = q.bcur in
  q.bpending <- q.bpending - q.blevel.(len);
  q.blevel.(len) <- 0;
  q.bcur <- len + 1;
  (len, q.bbuckets.(len), q.bsizes.(len))

(* Class-partitioned copy of the CSR arena: per AS, only its
   To_provider / peer / To_customer words, in row order.  One O(n+m)
   pass; lets the batch drains skip the per-word relation decode. *)
let partition_csr n (off : int array) (wrd : int array) =
  let up_off = Array.make (n + 1) 0
  and lat_off = Array.make (n + 1) 0
  and down_off = Array.make (n + 1) 0 in
  for x = 0 to n - 1 do
    for i = off.(x) to off.(x + 1) - 1 do
      match Topology.pn_rel wrd.(i) with
      | Relation.To_provider -> up_off.(x + 1) <- up_off.(x + 1) + 1
      | Relation.Priv_peer | Relation.Pub_peer ->
          lat_off.(x + 1) <- lat_off.(x + 1) + 1
      | Relation.To_customer -> down_off.(x + 1) <- down_off.(x + 1) + 1
    done
  done;
  for x = 0 to n - 1 do
    up_off.(x + 1) <- up_off.(x + 1) + up_off.(x);
    lat_off.(x + 1) <- lat_off.(x + 1) + lat_off.(x);
    down_off.(x + 1) <- down_off.(x + 1) + down_off.(x)
  done;
  let up_w = Array.make up_off.(n) 0
  and lat_w = Array.make lat_off.(n) 0
  and down_w = Array.make down_off.(n) 0 in
  let ui = Array.copy up_off
  and li = Array.copy lat_off
  and di = Array.copy down_off in
  for x = 0 to n - 1 do
    for i = off.(x) to off.(x + 1) - 1 do
      let pn = wrd.(i) in
      match Topology.pn_rel pn with
      | Relation.To_provider ->
          up_w.(ui.(x)) <- pn;
          ui.(x) <- ui.(x) + 1
      | Relation.Priv_peer | Relation.Pub_peer ->
          lat_w.(li.(x)) <- pn;
          li.(x) <- li.(x) + 1
      | Relation.To_customer ->
          down_w.(di.(x)) <- pn;
          di.(x) <- di.(x) + 1
    done
  done;
  (up_off, up_w, lat_off, lat_w, down_off, down_w)

let run_batch ?provenance topo configs =
  let k = Array.length configs in
  if k = 0 then [||]
  else
    Netsim_obs.Span.with_ ~name:"bgp.propagate_batch" @@ fun () ->
    let tracing = Netsim_obs.Metrics.enabled () in
    if tracing then begin
      Netsim_obs.Metrics.incr c_batches;
      Netsim_obs.Metrics.add c_batch_origins k
    end;
    let pv_on =
      match provenance with Some b -> b | None -> Provenance.enabled ()
    in
    let n = Topology.as_count topo in
    let off = Topology.csr_offsets topo and wrd = Topology.csr_words topo in
    let up_off, up_w, lat_off, lat_w, down_off, down_w =
      partition_csr n off wrd
    in
    let origins = Array.map (fun c -> c.Announce.origin) configs in
    let pvas =
      if pv_on then Array.init k (fun _ -> Provenance.create n) else [||]
    in
    let bc = Array.make (n * k) (-1)
    and bp = Array.make (n * k) (-1)
    and bv = Array.make (n * k) (-1) in
    (* ---- Phase 1: customer-learned routes, all origins. ---- *)
    let q = bdial_create k in
    for o = 0 to k - 1 do
      List.iter
        (fun (target, len, (_ : int), (link : Relation.link), ne) ->
          if tracing then Netsim_obs.Metrics.incr c_exported;
          bdial_push q ~len ~org:o
            (q_pack ~parent:origins.(o) ~link:link.Relation.id ~target ~ne))
        (seeds topo configs.(o) ~klass:Route.Customer)
    done;
    (* Drain level by level, buckets unsorted: within a level, [run]'s
       sorted first-pop winner for a target is the minimum candidate by
       (parent, link, ne) — exactly [e_pack] order at equal length — so
       a two-minima settle pass picks the identical winner (and, with
       provenance on, offers the identical loser multiset: every
       comparison permanently discards one candidate, so the offers are
       all candidates but the min, just as [run]'s post-settle pops
       are).  An export pass then pushes the newly settled ASes'
       provider exports at [len + 1]; exports only depend on the final
       winner, which is already known.  Skipping the per-bucket sort is
       most of [run_batch]'s speedup at scale.  The bucket array
       doubles as the newly-settled worklist: settled targets are
       written back into its prefix during the settle pass. *)
    while q.bpending > 0 do
      let len, row, szs = bdial_next_level q in
      for org = 0 to k - 1 do
        let sz = szs.(org) in
        if sz > 0 then begin
          let b = row.(org) in
          szs.(org) <- 0;
          let origin = origins.(org) in
          let settled = ref 0 in
          for i = 0 to sz - 1 do
            let v = b.(i) in
            let target = q_target v in
            if target <> origin then begin
              let idx = (target * k) + org in
              let cand =
                e_pack ~len ~parent:(q_parent v) ~link:(q_link v) ~ne:(q_ne v)
              in
              let cur = bc.(idx) in
              if pv_on then Provenance.count pvas.(org) ~cls:0 target;
              if cur < 0 then begin
                bc.(idx) <- cand;
                b.(!settled) <- target;
                incr settled
              end
              else begin
                if cand < cur then bc.(idx) <- cand;
                if pv_on then
                  Provenance.offer pvas.(org) ~cls:0 target
                    (if cand < cur then cur else cand)
              end
            end
          done;
          for i = 0 to !settled - 1 do
            let target = b.(i) in
            if not (e_ne bc.((target * k) + org)) then
              for j = up_off.(target) to up_off.(target + 1) - 1 do
                let pn = up_w.(j) in
                let up = Topology.pn_peer pn in
                if up <> origin then begin
                  if tracing then Netsim_obs.Metrics.incr c_exported;
                  bdial_push q ~len:(len + 1) ~org
                    (q_pack ~parent:target ~link:(Topology.pn_link pn)
                       ~target:up ~ne:false)
                end
              done
          done
        end
      done
    done;
    (* ---- Phase 2: peer-learned routes. ---- *)
    for o = 0 to k - 1 do
      let origin = origins.(o) in
      List.iter
        (fun (target, len, (_ : int), (link : Relation.link), ne) ->
          if target <> origin then begin
            let idx = (target * k) + o in
            let cand = e_pack ~len ~parent:origin ~link:link.Relation.id ~ne in
            let cur = bp.(idx) in
            if pv_on then begin
              Provenance.count pvas.(o) ~cls:1 target;
              if cur >= 0 then
                Provenance.offer pvas.(o) ~cls:1 target
                  (if cand < cur then cur else cand)
            end;
            if cur < 0 || cand < cur then bp.(idx) <- cand
          end)
        (seeds topo configs.(o) ~klass:Route.Peer)
    done;
    (* Lateral sweep: one walk over each AS's peer words; origins in
       the inner loop.  For a fixed origin the candidate order is
       [run]'s (x ascending, row order) and the two-minima update is
       order-independent anyway. *)
    for x = 0 to n - 1 do
      if lat_off.(x + 1) > lat_off.(x) then begin
        let base = x * k in
        for o = 0 to k - 1 do
          let ex = bc.(base + o) in
          if ex >= 0 && not (e_ne ex) then begin
            let len1 = e_len ex + 1 in
            let origin = origins.(o) in
            for i = lat_off.(x) to lat_off.(x + 1) - 1 do
              let pn = lat_w.(i) in
              let lateral = Topology.pn_peer pn in
              if lateral <> origin then begin
                let idx = (lateral * k) + o in
                let cand =
                  e_pack ~len:len1 ~parent:x ~link:(Topology.pn_link pn)
                    ~ne:false
                in
                let cur = bp.(idx) in
                if pv_on then begin
                  Provenance.count pvas.(o) ~cls:1 lateral;
                  if cur >= 0 then
                    Provenance.offer pvas.(o) ~cls:1 lateral
                      (if cand < cur then cur else cand)
                end;
                if cur < 0 || cand < cur then bp.(idx) <- cand
              end
            done
          end
        done
      end
    done;
    (* ---- Phase 3: provider-learned routes. ---- *)
    let q = bdial_create k in
    for o = 0 to k - 1 do
      List.iter
        (fun (target, len, (_ : int), (link : Relation.link), ne) ->
          if tracing then Netsim_obs.Metrics.incr c_exported;
          bdial_push q ~len ~org:o
            (q_pack ~parent:origins.(o) ~link:link.Relation.id ~target ~ne))
        (seeds topo configs.(o) ~klass:Route.Provider)
    done;
    (* Boundary sweep: each AS row walked once, origins inner. *)
    for x = 0 to n - 1 do
      if down_off.(x + 1) > down_off.(x) then begin
        let base = x * k in
        for o = 0 to k - 1 do
          let c = bc.(base + o) in
          let ex = if c >= 0 then c else bp.(base + o) in
          if ex >= 0 && not (e_ne ex) then begin
            let len1 = e_len ex + 1 in
            let origin = origins.(o) in
            for i = down_off.(x) to down_off.(x + 1) - 1 do
              let pn = down_w.(i) in
              let down = Topology.pn_peer pn in
              if down <> origin then begin
                if tracing then Netsim_obs.Metrics.incr c_exported;
                bdial_push q ~len:len1 ~org:o
                  (q_pack ~parent:x ~link:(Topology.pn_link pn) ~target:down
                     ~ne:false)
              end
            done
          end
        done
      end
    done;
    (* Same unsorted level drain as phase 1 (see the comment there);
       the export condition — the provider route is the target's
       selected best — reads [bc]/[bp], which are final by now, and
       the winner's NO_EXPORT flag. *)
    while q.bpending > 0 do
      let len, row, szs = bdial_next_level q in
      for org = 0 to k - 1 do
        let sz = szs.(org) in
        if sz > 0 then begin
          let b = row.(org) in
          szs.(org) <- 0;
          let origin = origins.(org) in
          let settled = ref 0 in
          for i = 0 to sz - 1 do
            let v = b.(i) in
            let target = q_target v in
            if target <> origin then begin
              let idx = (target * k) + org in
              let cand =
                e_pack ~len ~parent:(q_parent v) ~link:(q_link v) ~ne:(q_ne v)
              in
              let cur = bv.(idx) in
              if pv_on then Provenance.count pvas.(org) ~cls:2 target;
              if cur < 0 then begin
                bv.(idx) <- cand;
                b.(!settled) <- target;
                incr settled
              end
              else begin
                if cand < cur then bv.(idx) <- cand;
                if pv_on then
                  Provenance.offer pvas.(org) ~cls:2 target
                    (if cand < cur then cur else cand)
              end
            end
          done;
          for i = 0 to !settled - 1 do
            let target = b.(i) in
            let idx = (target * k) + org in
            if bc.(idx) < 0 && bp.(idx) < 0 && not (e_ne bv.(idx)) then
              for j = down_off.(target) to down_off.(target + 1) - 1 do
                let pn = down_w.(j) in
                let down = Topology.pn_peer pn in
                if down <> origin then begin
                  if tracing then Netsim_obs.Metrics.incr c_exported;
                  bdial_push q ~len:(len + 1) ~org
                    (q_pack ~parent:target ~link:(Topology.pn_link pn)
                       ~target:down ~ne:false)
                end
              done
          done
        end
      done
    done;
    (* ---- Slice the strided arrays into per-origin states. ---- *)
    let link_by_id = link_index topo in
    Array.init k (fun o ->
        let cust = Array.make n (-1)
        and peer = Array.make n (-1)
        and prov = Array.make n (-1) in
        for x = 0 to n - 1 do
          let idx = (x * k) + o in
          cust.(x) <- bc.(idx);
          peer.(x) <- bp.(idx);
          prov.(x) <- bv.(idx)
        done;
        record_run_stats ~tracing n cust peer prov;
        if pv_on then
          record_provenance_stats ~tracing n ~origin:origins.(o) pvas.(o) cust
            peer prov;
        {
          topo;
          config = configs.(o);
          link_by_id;
          cust;
          peer;
          prov;
          pv = (if pv_on then Some pvas.(o) else None);
        })

(* ---- reference implementation ---------------------------------------- *)

(* The original Set-based priority queue and [entry option] arrays,
   kept verbatim behind the same interface: the differential QCheck
   property in the test suite and bench/micro_propagate hold the
   optimized core to bit-identical results against this. *)
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

let run_reference topo config =
  Netsim_obs.Span.with_ ~name:"bgp.propagate" @@ fun () ->
  let tracing = Netsim_obs.Metrics.enabled () in
  let n = Topology.as_count topo in
  let origin = config.Announce.origin in
  let cust = Array.make n None in
  let peer = Array.make n None in
  let prov = Array.make n None in
  (* ---- Phase 1: customer-learned routes (propagate upward). ---- *)
  let pq = ref Pq.empty in
  let push (target, len, parent, link, no_export) =
    if tracing then Netsim_obs.Metrics.incr c_exported;
    pq := Pq.add (len, parent, link.Relation.id, target, link, no_export) !pq
  in
  List.iter push (seeds topo config ~klass:Route.Customer);
  while not (Pq.is_empty !pq) do
    let ((len, parent, _, target, link, no_export) as elt) = Pq.min_elt !pq in
    pq := Pq.remove elt !pq;
    if target <> origin && cust.(target) = None then begin
      cust.(target) <- Some { r_len = len; r_parent = parent; r_link = link; r_ne = no_export };
      if not no_export then
        List.iter
          (fun (nb : Topology.neighbor) ->
            if nb.rel = Relation.To_provider && nb.peer <> origin then
              push (nb.peer, len + 1, target, nb.link, false))
          (Topology.neighbors topo target)
    end
  done;
  (* ---- Phase 2: peer-learned routes (single lateral step). ---- *)
  let better (candidate : ref_entry) (current : ref_entry option) =
    match current with
    | None -> true
    | Some e ->
        candidate.r_len < e.r_len
        || (candidate.r_len = e.r_len
           && (candidate.r_parent, candidate.r_link.Relation.id)
              < (e.r_parent, e.r_link.Relation.id))
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
            (fun (nb : Topology.neighbor) ->
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
            (Topology.neighbors topo x)
  done;
  (* ---- Phase 3: provider-learned routes (propagate downward). ---- *)
  let sel_fixed x =
    match cust.(x) with Some e -> Some e | None -> peer.(x)
  in
  let pq = ref Pq.empty in
  let push (target, len, parent, link, no_export) =
    if tracing then Netsim_obs.Metrics.incr c_exported;
    pq := Pq.add (len, parent, link.Relation.id, target, link, no_export) !pq
  in
  List.iter push (seeds topo config ~klass:Route.Provider);
  for x = 0 to n - 1 do
    match sel_fixed x with
    | None -> ()
    | Some ex ->
        if not ex.r_ne then
          List.iter
            (fun (nb : Topology.neighbor) ->
              if nb.rel = Relation.To_customer && nb.peer <> origin then
                push (nb.peer, ex.r_len + 1, x, nb.link, false))
            (Topology.neighbors topo x)
  done;
  while not (Pq.is_empty !pq) do
    let ((len, parent, _, target, link, no_export) as elt) = Pq.min_elt !pq in
    pq := Pq.remove elt !pq;
    if target <> origin && prov.(target) = None then begin
      prov.(target) <- Some { r_len = len; r_parent = parent; r_link = link; r_ne = no_export };
      if sel_fixed target = None && not no_export then
        List.iter
          (fun (nb : Topology.neighbor) ->
            if nb.rel = Relation.To_customer && nb.peer <> origin then
              push (nb.peer, len + 1, target, nb.link, false))
          (Topology.neighbors topo target)
    end
  done;
  let pack_opt = function
    | None -> -1
    | Some e ->
        e_pack ~len:e.r_len ~parent:e.r_parent ~link:e.r_link.Relation.id
          ~ne:e.r_ne
  in
  let cust = Array.map pack_opt cust
  and peer = Array.map pack_opt peer
  and prov = Array.map pack_opt prov in
  record_run_stats ~tracing n cust peer prov;
  (* The reference stays provenance-free: it is the entry oracle, and
     the provenance property tests compare optimized runs instead. *)
  { topo; config; link_by_id = link_index topo; cust; peer; prov; pv = None }

let equal a b =
  a.config.Announce.origin = b.config.Announce.origin
  && a.cust = b.cust && a.peer = b.peer && a.prov = b.prov

(* ---- RIB snapshot views ----------------------------------------------- *)

let rib_arrays s = (Array.copy s.cust, Array.copy s.peer, Array.copy s.prov)

let of_rib_arrays ~topo ~config ~cust ~peer ~prov =
  let n = Topology.as_count topo in
  if Array.length cust <> n || Array.length peer <> n || Array.length prov <> n
  then invalid_arg "Propagate.of_rib_arrays: table length <> AS count";
  let link_by_id = link_index topo in
  let check_table name (t : int array) =
    Array.iteri
      (fun x v ->
        if v >= 0 then begin
          if x = config.Announce.origin then
            invalid_arg
              (Printf.sprintf
                 "Propagate.of_rib_arrays: %s entry at the origin" name);
          let l = e_link v in
          if l >= Array.length link_by_id || link_by_id.(l).Relation.id <> l
          then
            invalid_arg
              (Printf.sprintf
                 "Propagate.of_rib_arrays: %s entry of AS %d references \
                  unknown link %d"
                 name x l);
          if e_parent v >= n then
            invalid_arg
              (Printf.sprintf
                 "Propagate.of_rib_arrays: %s entry of AS %d has parent out \
                  of range"
                 name x)
        end)
      t
  in
  check_table "customer" cust;
  check_table "peer" peer;
  check_table "provider" prov;
  (* Snapshots persist only the routing tables; provenance is rebuilt
     deterministically on demand (see Rib_cache.run ~provenance). *)
  {
    topo;
    config;
    link_by_id;
    cust = Array.copy cust;
    peer = Array.copy peer;
    prov = Array.copy prov;
    pv = None;
  }

(* ---- Incremental reconvergence ------------------------------------ *)

type delta = Link_removed of int | Link_added of int

type reconverge_stats = {
  rs_dirty_cust : int;
  rs_dirty_peer : int;
  rs_dirty_prov : int;
  rs_as_count : int;
}

let rs_dirty r = r.rs_dirty_cust + r.rs_dirty_peer + r.rs_dirty_prov

let c_reconverges = Netsim_obs.Metrics.counter "bgp.reconverges"
let c_reconverge_dirty = Netsim_obs.Metrics.counter "bgp.reconverge_dirty_ases"

(* A single-link topology delta invalidates only the routes that
   (transitively) depend on the changed link.  [reconverge] computes a
   conservative per-class dirty set, clears those entries, and re-runs
   the three propagation phases restricted to the dirty ASes, with
   boundary exports seeded from the untouched entries.  The result is
   provably identical to a full [run] on the new topology (see
   doc/dynamics.md for the closure argument; test_dynamics checks it
   on random single-link failures and flap restores).

   Dirty closure rules, per delta direction:

   - removal only {e worsens} customer/peer candidates, so a worse
     export from [p] can only affect ASes whose current entry already
     goes through [p] (the recorded [parent] back-pointers);
   - addition can {e improve} customer/peer candidates, so an improved
     export from [p] can be adopted by {e any} provider/peer neighbor
     of [p];
   - in both directions a dirty entry of [p] can flip [p]'s overall
     selection between route classes, which changes the length of the
     route [p] exports downhill in either direction — so every
     customer neighbor of a dirty AS joins the provider-class dirty
     set.

   Provenance: the dirty closure bounds where {e entries} change, not
   where candidate {e arrival sets} change (removing a link deletes an
   arrival at an AS whose selected route never used it, leaving the AS
   clean but its candidate count stale), so the arena cannot be
   patched per dirty slot.  When provenance is requested — explicitly,
   because the input state carries it, or via the global flag — the
   incremental entries are kept and the arena is rebuilt by one full
   instrumented sweep.  With provenance off (the default) the
   incremental path is unchanged. *)
let reconverge ?provenance s ~topo delta =
  Netsim_obs.Span.with_ ~name:"bgp.reconverge" @@ fun () ->
  let t0 =
    if Netsim_obs.Recorder.(enabled () && timing ()) then Unix.gettimeofday ()
    else 0.
  in
  let n = Topology.as_count topo in
  if n <> Topology.as_count s.topo then
    invalid_arg "Propagate.reconverge: AS count changed";
  let off = Topology.csr_offsets topo and wrd = Topology.csr_words topo in
  let origin = s.config.Announce.origin in
  let config = s.config in
  let dc = Array.make n false
  and dp = Array.make n false
  and dv = Array.make n false in
  (* Work queue of (AS, class) marks, one packed int each. *)
  let queue = Queue.create () in
  let mark d tag x =
    if x <> origin && not d.(x) then begin
      d.(x) <- true;
      Queue.add ((x lsl 2) lor tag) queue
    end
  in
  let mark_c = mark dc 0 and mark_p = mark dp 1 and mark_v = mark dv 2 in
  (* Reverse dependency index over the old state (removals follow the
     recorded parent pointers; additions walk the live adjacency). *)
  let cust_children = Array.make n [] and peer_children = Array.make n [] in
  (match delta with
  | Link_removed _ ->
      for x = n - 1 downto 0 do
        let e = s.cust.(x) in
        if e >= 0 && e_parent e <> origin then
          cust_children.(e_parent e) <- x :: cust_children.(e_parent e);
        let e = s.peer.(x) in
        if e >= 0 && e_parent e <> origin then
          peer_children.(e_parent e) <- x :: peer_children.(e_parent e)
      done
  | Link_added _ -> ());
  (* Base dirty set: entries riding the removed link, or the potential
     first adopters of the added one. *)
  (match delta with
  | Link_removed l ->
      for x = 0 to n - 1 do
        if s.cust.(x) >= 0 && e_link s.cust.(x) = l then mark_c x;
        if s.peer.(x) >= 0 && e_link s.peer.(x) = l then mark_p x;
        if s.prov.(x) >= 0 && e_link s.prov.(x) = l then mark_v x
      done
  | Link_added l -> (
      let link =
        match
          Array.find_opt
            (fun (lk : Relation.link) -> lk.Relation.id = l)
            (Topology.links topo)
        with
        | Some lk -> lk
        | None -> invalid_arg "Propagate.reconverge: added link not in topology"
      in
      match link.Relation.kind with
      | Relation.C2p ->
          (* [a] is the customer: [b] may gain a customer-learned
             route, [a] a provider-learned one. *)
          mark_c link.Relation.b;
          mark_v link.Relation.a
      | Relation.Peer_private | Relation.Peer_public ->
          mark_p link.Relation.a;
          mark_p link.Relation.b));
  let improving = match delta with Link_added _ -> true | Link_removed _ -> false in
  while not (Queue.is_empty queue) do
    let packed = Queue.pop queue in
    let tag = packed land 3 and p = packed lsr 2 in
    if tag = 0 then
      if improving then
        for i = off.(p) to off.(p + 1) - 1 do
          let pn = wrd.(i) in
          match Topology.pn_rel pn with
          | Relation.To_provider -> mark_c (Topology.pn_peer pn)
          | Relation.Priv_peer | Relation.Pub_peer ->
              mark_p (Topology.pn_peer pn)
          | Relation.To_customer -> ()
        done
      else begin
        List.iter mark_c cust_children.(p);
        List.iter mark_p peer_children.(p)
      end;
    (* Any dirty class can flip p's selection, changing what it
       exports to its customers. *)
    for i = off.(p) to off.(p + 1) - 1 do
      let pn = wrd.(i) in
      match Topology.pn_rel pn with
      | Relation.To_customer -> mark_v (Topology.pn_peer pn)
      | Relation.To_provider | Relation.Priv_peer | Relation.Pub_peer -> ()
    done
  done;
  (* Clear the dirty entries; everything else is final and acts as the
     re-run's boundary. *)
  let cust = Array.copy s.cust
  and peer = Array.copy s.peer
  and prov = Array.copy s.prov in
  let nd_c = ref 0 and nd_p = ref 0 and nd_v = ref 0 in
  for x = 0 to n - 1 do
    if dc.(x) then begin
      cust.(x) <- -1;
      Stdlib.incr nd_c
    end;
    if dp.(x) then begin
      peer.(x) <- -1;
      Stdlib.incr nd_p
    end;
    if dv.(x) then begin
      prov.(x) <- -1;
      Stdlib.incr nd_v
    end
  done;
  (* ---- Phase 1 (restricted): customer-learned routes. ---- *)
  let q = dial_create () in
  List.iter
    (fun (target, len, (_ : int), (link : Relation.link), ne) ->
      if dc.(target) then
        dial_push q ~len
          (q_pack ~parent:origin ~link:link.Relation.id ~target ~ne))
    (seeds topo config ~klass:Route.Customer);
  for t = 0 to n - 1 do
    if dc.(t) then begin
      for i = off.(t) to off.(t + 1) - 1 do
        let pn = wrd.(i) in
        match Topology.pn_rel pn with
        | Relation.To_customer ->
            let y = Topology.pn_peer pn in
            if not dc.(y) then begin
              let e = cust.(y) in
              if e >= 0 && not (e_ne e) then
                dial_push q ~len:(e_len e + 1)
                  (q_pack ~parent:y ~link:(Topology.pn_link pn) ~target:t
                     ~ne:false)
            end
        | Relation.To_provider | Relation.Priv_peer | Relation.Pub_peer -> ()
      done
    end
  done;
  dial_drain q (fun ~len v ->
      let target = q_target v in
      if target <> origin && dc.(target) && cust.(target) < 0 then begin
        cust.(target) <-
          e_pack ~len ~parent:(q_parent v) ~link:(q_link v) ~ne:(q_ne v);
        if not (q_ne v) then
          for i = off.(target) to off.(target + 1) - 1 do
            let pn = wrd.(i) in
            match Topology.pn_rel pn with
            | Relation.To_provider ->
                let up = Topology.pn_peer pn in
                if up <> origin && dc.(up) then
                  dial_push q ~len:(len + 1)
                    (q_pack ~parent:target ~link:(Topology.pn_link pn)
                       ~target:up ~ne:false)
            | Relation.To_customer | Relation.Priv_peer | Relation.Pub_peer ->
                ()
          done
      end);
  (* ---- Phase 2 (restricted): peer-learned routes, pulled per dirty
     target over its full lateral candidate set. ---- *)
  let peer_seeds = seeds topo config ~klass:Route.Peer in
  for t = 0 to n - 1 do
    if dp.(t) then begin
      let best = ref max_int in
      List.iter
        (fun (target, len, (_ : int), (link : Relation.link), ne) ->
          if target = t then begin
            let cand = e_pack ~len ~parent:origin ~link:link.Relation.id ~ne in
            if cand < !best then best := cand
          end)
        peer_seeds;
      for i = off.(t) to off.(t + 1) - 1 do
        let pn = wrd.(i) in
        match Topology.pn_rel pn with
        | Relation.Priv_peer | Relation.Pub_peer ->
            let y = Topology.pn_peer pn in
            let e = cust.(y) in
            if e >= 0 && not (e_ne e) then begin
              let cand =
                e_pack ~len:(e_len e + 1) ~parent:y ~link:(Topology.pn_link pn)
                  ~ne:false
              in
              if cand < !best then best := cand
            end
        | Relation.To_customer | Relation.To_provider -> ()
      done;
      peer.(t) <- (if !best = max_int then -1 else !best)
    end
  done;
  (* ---- Phase 3 (restricted): provider-learned routes. ---- *)
  let q = dial_create () in
  List.iter
    (fun (target, len, (_ : int), (link : Relation.link), ne) ->
      if dv.(target) then
        dial_push q ~len
          (q_pack ~parent:origin ~link:link.Relation.id ~target ~ne))
    (seeds topo config ~klass:Route.Provider);
  for t = 0 to n - 1 do
    if dv.(t) then begin
      for i = off.(t) to off.(t + 1) - 1 do
        let pn = wrd.(i) in
        match Topology.pn_rel pn with
        | Relation.To_provider ->
            let y = Topology.pn_peer pn in
            let e = if cust.(y) >= 0 then cust.(y) else peer.(y) in
            if e >= 0 then begin
              if not (e_ne e) then
                dial_push q ~len:(e_len e + 1)
                  (q_pack ~parent:y ~link:(Topology.pn_link pn) ~target:t
                     ~ne:false)
            end
            else if not dv.(y) then begin
              let e = prov.(y) in
              if e >= 0 && not (e_ne e) then
                dial_push q ~len:(e_len e + 1)
                  (q_pack ~parent:y ~link:(Topology.pn_link pn) ~target:t
                     ~ne:false)
            end
        | Relation.To_customer | Relation.Priv_peer | Relation.Pub_peer -> ()
      done
    end
  done;
  dial_drain q (fun ~len v ->
      let target = q_target v in
      if target <> origin && dv.(target) && prov.(target) < 0 then begin
        prov.(target) <-
          e_pack ~len ~parent:(q_parent v) ~link:(q_link v) ~ne:(q_ne v);
        if cust.(target) < 0 && peer.(target) < 0 && not (q_ne v) then
          for i = off.(target) to off.(target + 1) - 1 do
            let pn = wrd.(i) in
            match Topology.pn_rel pn with
            | Relation.To_customer ->
                let down = Topology.pn_peer pn in
                if down <> origin && dv.(down) then
                  dial_push q ~len:(len + 1)
                    (q_pack ~parent:target ~link:(Topology.pn_link pn)
                       ~target:down ~ne:false)
            | Relation.To_provider | Relation.Priv_peer | Relation.Pub_peer ->
                ()
          done
      end);
  let stats =
    {
      rs_dirty_cust = !nd_c;
      rs_dirty_peer = !nd_p;
      rs_dirty_prov = !nd_v;
      rs_as_count = n;
    }
  in
  if Netsim_obs.Metrics.enabled () then begin
    Netsim_obs.Metrics.incr c_reconverges;
    Netsim_obs.Metrics.add c_reconverge_dirty (rs_dirty stats)
  end;
  if Netsim_obs.Recorder.enabled () then begin
    let open Netsim_obs.Recorder in
    (* ns only under NETSIM_EVENT_NS: wall clock breaks the log's
       byte-for-byte determinism. *)
    let fields =
      [
        I ("dirty_cust", stats.rs_dirty_cust);
        I ("dirty_peer", stats.rs_dirty_peer);
        I ("dirty_prov", stats.rs_dirty_prov);
        I ("as_count", stats.rs_as_count);
      ]
    in
    let fields =
      if timing () then
        fields
        @ [ I ("ns", int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)) ]
      else fields
    in
    record ~kind:"bgp.reconverge" fields
  end;
  let pv_on =
    match provenance with
    | Some b -> b
    | None -> s.pv <> None || Provenance.enabled ()
  in
  let pv = if pv_on then (run ~provenance:true topo config).pv else None in
  ({ topo; config; link_by_id = link_index topo; cust; peer; prov; pv }, stats)

let selected_entry s x =
  if x = origin s then None
  else if s.cust.(x) >= 0 then Some (Route.Customer, entry_of s s.cust.(x))
  else if s.peer.(x) >= 0 then Some (Route.Peer, entry_of s s.peer.(x))
  else if s.prov.(x) >= 0 then Some (Route.Provider, entry_of s s.prov.(x))
  else None

let selected_class s x =
  match selected_entry s x with Some (k, _) -> Some k | None -> None

let reachable s x = x = origin s || selected_entry s x <> None

let rec path_of s x klass =
  (* AS path from x's route of the given class: next hop ... origin. *)
  let entry =
    match klass with
    | Route.Customer -> get s s.cust x
    | Route.Peer -> get s s.peer x
    | Route.Provider -> get s s.prov x
  in
  match entry with
  | None -> []
  | Some e ->
      if e.parent = origin s then [ e.parent ]
      else begin
        let parent_klass =
          match klass with
          | Route.Customer -> Route.Customer
          | Route.Peer -> Route.Customer
          | Route.Provider -> (
              match selected_entry s e.parent with
              | Some (k, _) -> k
              | None -> Route.Provider (* unreachable in a valid state *))
        in
        e.parent :: path_of s e.parent parent_klass
      end

let as_path s x =
  match selected_entry s x with
  | None -> []
  | Some (klass, _) -> path_of s x klass

let best s x =
  match selected_entry s x with
  | None -> None
  | Some (klass, e) ->
      Some
        {
          Route.dest = origin s;
          klass;
          next_hop = e.parent;
          via_link = e.link;
          path_len = e.len;
          as_path = path_of s x klass;
        }

let klass_of_rel = function
  | Relation.To_customer -> Route.Customer
  | Relation.To_provider -> Route.Provider
  | Relation.Priv_peer | Relation.Pub_peer -> Route.Peer

let received s x =
  if x = origin s then []
  else
    List.filter_map
      (fun (nb : Topology.neighbor) ->
        if nb.peer = origin s then begin
          (* Direct announcement from the origin on this session. *)
          let action = Announce.action_on s.config nb.link in
          if not action.Announce.export then None
          else
            Some
              {
                Route.dest = origin s;
                klass = klass_of_rel nb.rel;
                next_hop = nb.peer;
                via_link = nb.link;
                path_len = 1 + action.Announce.prepend;
                as_path = [ origin s ];
              }
        end
        else
          match selected_entry s nb.peer with
          | None -> None
          | Some (peer_klass, peer_entry) ->
              (* A NO_EXPORT route is never advertised further.
                 Otherwise: to its customers the neighbor exports
                 everything; to peers/providers only customer-learned
                 routes. *)
              let x_is_customer_of_peer = nb.rel = Relation.To_provider in
              if peer_entry.no_export then None
              else if
                (not x_is_customer_of_peer) && peer_klass <> Route.Customer
              then None
              else begin
                let peer_path = path_of s nb.peer peer_klass in
                if List.mem x peer_path || peer_entry.parent = x then None
                else
                  Some
                    {
                      Route.dest = origin s;
                      klass = klass_of_rel nb.rel;
                      next_hop = nb.peer;
                      via_link = nb.link;
                      path_len = peer_entry.len + 1;
                      as_path = nb.peer :: peer_path;
                    }
              end)
      (Topology.neighbors s.topo x)

let received_at_metro s x ~metro =
  List.filter
    (fun (r : Route.t) -> r.via_link.Relation.metro = metro)
    (received s x)

(* ---- decision provenance --------------------------------------------- *)

let has_provenance s = s.pv <> None

let provenance_equal a b =
  match (a.pv, b.pv) with
  | None, None -> true
  | Some pa, Some pb -> Provenance.equal pa pb
  | Some _, None | None, Some _ -> false

type runner = {
  r_klass : Route.klass;
  r_path_len : int;
  r_next_hop : int;
  r_link_id : int;
}

type decision = {
  d_klass : Route.klass;
  d_path_len : int;
  d_next_hop : int;
  d_link_id : int;
  d_cand_cust : int;
  d_cand_peer : int;
  d_cand_prov : int;
  d_rule : Provenance.rule;
  d_runner : runner option;
}

let klass_of_cls = function
  | 0 -> Route.Customer
  | 1 -> Route.Peer
  | _ -> Route.Provider

let unpack_runner klass v =
  { r_klass = klass; r_path_len = e_len v; r_next_hop = e_parent v;
    r_link_id = e_link v }

let decision s x =
  match s.pv with
  | None ->
      invalid_arg
        "Propagate.decision: state carries no provenance (recompute with \
         ~provenance:true)"
  | Some pva ->
      if x = origin s || x < 0 || x >= Provenance.length pva then None
      else begin
        let cls =
          if s.cust.(x) >= 0 then 0
          else if s.peer.(x) >= 0 then 1
          else if s.prov.(x) >= 0 then 2
          else -1
        in
        if cls < 0 then None
        else begin
          let winner =
            match cls with 0 -> s.cust.(x) | 1 -> s.peer.(x) | _ -> s.prov.(x)
          in
          let klass = klass_of_cls cls in
          (* Overall runner-up: the same-class second-best if the class
             had one (same class outranks anything below), else the
             best entry of the next non-empty class. *)
          let runner =
            let same = Provenance.runner_up pva ~cls x in
            if same >= 0 then Some (unpack_runner klass same)
            else if cls = 0 && s.peer.(x) >= 0 then
              Some (unpack_runner Route.Peer s.peer.(x))
            else if cls <= 1 && s.prov.(x) >= 0 then
              Some (unpack_runner Route.Provider s.prov.(x))
            else None
          in
          Some
            {
              d_klass = klass;
              d_path_len = e_len winner;
              d_next_hop = e_parent winner;
              d_link_id = e_link winner;
              d_cand_cust = Provenance.candidates pva ~cls:0 x;
              d_cand_peer = Provenance.candidates pva ~cls:1 x;
              d_cand_prov = Provenance.candidates pva ~cls:2 x;
              d_rule =
                pv_rule pva ~cust:s.cust ~peer:s.peer ~prov:s.prov ~cls ~winner
                  x;
              d_runner = runner;
            }
        end
      end
