module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Provenance = Netsim_obs.Provenance

(* ---- bit-packed routing entries -------------------------------------- *)

(* Per-AS, per-class routing state lives in flat int arrays instead of
   arrays of boxed records: one immediate word per entry, no pointer
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

(* The selected class of AS [x] over the three tables: 0 customer, 1
   peer, 2 provider, -1 none (the origin never holds an entry). *)
let[@inline] sel_cls (cust : int array) (peer : int array) (prov : int array)
    x =
  if cust.(x) >= 0 then 0
  else if peer.(x) >= 0 then 1
  else if prov.(x) >= 0 then 2
  else -1

(* ---- level queue ------------------------------------------------------ *)

(* Export candidates queue up in per-path-length buckets: lengths only
   ever grow by one hop, so the scan over lengths is monotone, and
   every push from level [len] lands in level [len + 1], so a level is
   complete when the scan reaches it.  A queued candidate is one packed
   int (the bucket carries the length):

     bit  0      no_export
     bits 1-20   target AS id
     bits 21-41  link id
     bits 42-61  parent AS id

   Buckets stay unsorted: [drain] settles each target by its minimum
   candidate, and ascending int order is (parent, link, target) — at
   equal length exactly the route preference — so arrival order
   within a level is unobservable. *)

let q_pack ~parent ~link ~target ~ne =
  (parent lsl 42) lor (link lsl 21) lor (target lsl 1)
  lor (if ne then 1 else 0)

let q_parent v = v lsr 42
let q_link v = (v lsr 21) land 0x1F_FFFF
let q_target v = (v lsr 1) land 0xF_FFFF
let q_ne v = v land 1 = 1

type levels = {
  mutable buckets : int array array;  (** [len] packed words *)
  mutable sizes : int array;  (** [len] fill count *)
  mutable cur : int;  (** levels below this are drained *)
  mutable pending : int;
}

let levels_create () =
  { buckets = Array.make 16 [||]; sizes = Array.make 16 0; cur = 0;
    pending = 0 }

let levels_push q ~len packed =
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

(* Open the next non-empty level: returns its length, bucket and fill,
   and marks the level consumed. *)
let levels_next q =
  while q.sizes.(q.cur) = 0 do
    q.cur <- q.cur + 1
  done;
  let len = q.cur and sz = q.sizes.(q.cur) in
  q.pending <- q.pending - sz;
  q.sizes.(len) <- 0;
  q.cur <- len + 1;
  (len, q.buckets.(len), sz)

(* Seeds: announcements the origin sends on its own sessions, grouped
   by the class in which the receiving AS learns them. *)
let seeds topo config ~klass =
  let origin = config.Announce.origin in
  Topology.fold_row topo origin
    (fun pn acc ->
      let link = Topology.link topo (Topology.pn_link pn) in
      let action = Announce.action_on config link in
      if not action.Announce.export then acc
      else begin
        (* The word's relation is from the origin's perspective; the
           receiver's class is the mirror image. *)
        let receiver_klass =
          match Topology.pn_rel pn with
          | Relation.To_customer -> Route.Provider (* receiver sees provider *)
          | Relation.To_provider -> Route.Customer (* receiver sees customer *)
          | Relation.Priv_peer | Relation.Pub_peer -> Route.Peer
        in
        if receiver_klass = klass then
          ( Topology.pn_peer pn,
            1 + action.Announce.prepend,
            origin,
            link,
            action.Announce.no_export )
          :: acc
        else acc
      end)
    []

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
let pv_rule pva ~peer ~prov ~cls ~winner x =
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
        let cls = sel_cls cust peer prov x in
        if cls >= 0 then begin
          let winner =
            match cls with 0 -> cust.(x) | 1 -> peer.(x) | _ -> prov.(x)
          in
          Provenance.bump_decision cls;
          Provenance.bump_rule (pv_rule pva ~peer ~prov ~cls ~winner x)
        end
      end
    done

(* ---- the level drain -------------------------------------------------- *)

(* Who may receive a drain's exports: every AS, over rows that hold
   only the exported class (a segment of the partitioned arena), or
   the ASes of a reconvergence's dirty mask, over full rows of the
   arena filtered to the exported relation — reconvergence visits only
   dirty rows, so it never needs the new topology's partition. *)
type receivers = All | Dirty of bool array * Relation.rel

(* Drain [q] level by level into the class table [table].  A settle
   pass keeps each target's minimum candidate — the route preference,
   see the queue comment — and writes the newly settled targets back
   into the bucket's prefix; an export pass then pushes, at [len + 1],
   from each newly settled target for which [exports] holds, over its
   adjacency rows [seg_off]/[seg_words] to the ASes [recv] admits.
   Exports only depend on the final winner, which is already known.

   Provenance, when [pva] is given: every arrival is counted, and the
   two-minima settle offers every candidate but the minimum as a
   runner-up (each comparison permanently discards one), so the arena
   is independent of arrival order. *)
let drain q ~origin ~table ~seg_off ~seg_words ~exports ~recv ~tracing ~pva
    ~cls =
  while q.pending > 0 do
    let len, b, sz = levels_next q in
    let settled = ref 0 in
    for i = 0 to sz - 1 do
      let v = b.(i) in
      let target = q_target v in
      if target <> origin then begin
        let cand =
          e_pack ~len ~parent:(q_parent v) ~link:(q_link v) ~ne:(q_ne v)
        in
        let cur = table.(target) in
        (match pva with Some a -> Provenance.count a ~cls target | None -> ());
        if cur < 0 then begin
          table.(target) <- cand;
          b.(!settled) <- target;
          incr settled
        end
        else begin
          if cand < cur then table.(target) <- cand;
          match pva with
          | Some a ->
              Provenance.offer a ~cls target (if cand < cur then cur else cand)
          | None -> ()
        end
      end
    done;
    for i = 0 to !settled - 1 do
      let target = b.(i) in
      if exports target then
        for j = seg_off.(target) to seg_off.(target + 1) - 1 do
          let pn = seg_words.(j) in
          let next = Topology.pn_peer pn in
          let admitted =
            match recv with
            | All -> true
            | Dirty (mask, rel) ->
                (* Constant constructors: [==] compares immediates. *)
                mask.(next) && Topology.pn_rel pn == rel
          in
          if admitted && next <> origin then begin
            if tracing then Netsim_obs.Metrics.incr c_exported;
            levels_push q ~len:(len + 1)
              (q_pack ~parent:target ~link:(Topology.pn_link pn) ~target:next
                 ~ne:false)
          end
        done
    done
  done

(* Phase 2's update of the peer slot of [target].  Provenance here is
   the classic two-minima update: when a new best displaces the
   current entry, the displaced entry is offered as runner-up (it beat
   every earlier loser); otherwise the candidate itself lost.
   Order-independent either way. *)
let offer_peer (bp : int array) pva target cand =
  let cur = bp.(target) in
  (match pva with
  | Some a ->
      Provenance.count a ~cls:1 target;
      if cur >= 0 then
        Provenance.offer a ~cls:1 target (if cand < cur then cur else cand)
  | None -> ());
  if cur < 0 || cand < cur then bp.(target) <- cand

(* ---- propagation ------------------------------------------------------ *)

(* The one propagation kernel: the three Gao–Rexford phases for one
   config, inside the [bgp.propagate] span.  Entry state lives in flat
   per-class tables indexed by AS; the phase-2 lateral and phase-3
   boundary sweeps walk each adjacency row once, and sweeps and drains
   walk only the words of the relation class they export to (the
   topology's partitioned arena). *)
let run ?provenance topo config =
  Netsim_obs.Span.with_ ~name:"bgp.propagate" @@ fun () ->
  let tracing = Netsim_obs.Metrics.enabled () in
  let pv_on =
    match provenance with Some b -> b | None -> Provenance.enabled ()
  in
  let n = Topology.as_count topo in
  let part = Topology.partition topo in
  let origin = config.Announce.origin in
  let pva = if pv_on then Some (Provenance.create n) else None in
  let bc = Array.make n (-1)
  and bp = Array.make n (-1)
  and bv = Array.make n (-1) in
  let push_seeds q ~klass =
    List.iter
      (fun (target, len, (_ : int), (link : Relation.link), ne) ->
        if tracing then Netsim_obs.Metrics.incr c_exported;
        levels_push q ~len
          (q_pack ~parent:origin ~link:link.Relation.id ~target ~ne))
      (seeds topo config ~klass)
  in
  (* ---- Phase 1: customer-learned routes, exported up. ---- *)
  let q = levels_create () in
  push_seeds q ~klass:Route.Customer;
  drain q ~origin ~table:bc ~seg_off:part.Topology.up_off
    ~seg_words:part.Topology.up_words
    ~exports:(fun x -> not (e_ne bc.(x)))
    ~recv:All ~tracing ~pva ~cls:0;
  (* ---- Phase 2: peer-learned routes (single lateral step). ---- *)
  List.iter
    (fun (target, len, (_ : int), (link : Relation.link), ne) ->
      if target <> origin then
        offer_peer bp pva target
          (e_pack ~len ~parent:origin ~link:link.Relation.id ~ne))
    (seeds topo config ~klass:Route.Peer);
  let lat_off = part.Topology.lat_off and lat_w = part.Topology.lat_words in
  for x = 0 to n - 1 do
    let ex = bc.(x) in
    if ex >= 0 && not (e_ne ex) then
      for i = lat_off.(x) to lat_off.(x + 1) - 1 do
        let pn = lat_w.(i) in
        let lateral = Topology.pn_peer pn in
        if lateral <> origin then
          offer_peer bp pva lateral
            (e_pack ~len:(e_len ex + 1) ~parent:x ~link:(Topology.pn_link pn)
               ~ne:false)
      done
  done;
  (* ---- Phase 3: provider-learned routes, exported down. ---- *)
  let q = levels_create () in
  push_seeds q ~klass:Route.Provider;
  (* ASes whose selection is already final (a customer or peer route)
     export to their customers regardless of phase-3 progress. *)
  let down_off = part.Topology.down_off and down_w = part.Topology.down_words in
  for x = 0 to n - 1 do
    let ex = if bc.(x) >= 0 then bc.(x) else bp.(x) in
    if ex >= 0 && not (e_ne ex) then
      for i = down_off.(x) to down_off.(x + 1) - 1 do
        let pn = down_w.(i) in
        let down = Topology.pn_peer pn in
        if down <> origin then begin
          if tracing then Netsim_obs.Metrics.incr c_exported;
          levels_push q ~len:(e_len ex + 1)
            (q_pack ~parent:x ~link:(Topology.pn_link pn) ~target:down
               ~ne:false)
        end
      done
  done;
  (* A provider route is exported only when it is the AS's selected
     best; [bc]/[bp] are final by now. *)
  drain q ~origin ~table:bv ~seg_off:down_off ~seg_words:down_w
    ~exports:(fun x -> bc.(x) < 0 && bp.(x) < 0 && not (e_ne bv.(x)))
    ~recv:All ~tracing ~pva ~cls:2;
  record_run_stats ~tracing n bc bp bv;
  Option.iter
    (fun a -> record_provenance_stats ~tracing n ~origin a bc bp bv)
    pva;
  { topo; config; cust = bc; peer = bp; prov = bv; pv = pva }

let equal a b =
  a.config.Announce.origin = b.config.Announce.origin
  && a.cust = b.cust && a.peer = b.peer && a.prov = b.prov

(* ---- RIB snapshot views ----------------------------------------------- *)

let rib_arrays s = (Array.copy s.cust, Array.copy s.peer, Array.copy s.prov)

let of_rib_arrays ~topo ~config ~cust ~peer ~prov =
  let n = Topology.as_count topo in
  if Array.length cust <> n || Array.length peer <> n || Array.length prov <> n
  then invalid_arg "Propagate.of_rib_arrays: table length <> AS count";
  let origin = config.Announce.origin in
  let fail name x what =
    invalid_arg
      (Printf.sprintf "Propagate.of_rib_arrays: %s entry of AS %d %s" name x
         what)
  in
  (* Every entry must be a real one-hop extension of the entry
     [path_of] follows from its parent, strictly shorter, so path
     walks over a loaded state always terminate at the origin. *)
  let check_table name (t : int array) ~rel_ok ~parent_entry =
    Array.iteri
      (fun x v ->
        if v >= 0 then begin
          if x = origin then
            invalid_arg
              (Printf.sprintf
                 "Propagate.of_rib_arrays: %s entry at the origin" name);
          let l = e_link v and p = e_parent v in
          let link =
            match Topology.link topo l with
            | link -> link
            | exception Invalid_argument _ ->
                fail name x (Printf.sprintf "references unknown link %d" l)
          in
          if p >= n then fail name x "has parent out of range";
          if
            not
              ((link.Relation.a = x && link.Relation.b = p)
              || (link.Relation.b = x && link.Relation.a = p))
          then
            fail name x
              (Printf.sprintf "link %d does not join it to its parent" l);
          if not (rel_ok (Relation.rel_of link x)) then
            fail name x (Printf.sprintf "link %d has the wrong relation" l);
          if p <> origin then begin
            let pe = parent_entry p in
            if pe < 0 then fail name x "has a parent without a route"
            else if e_len pe >= e_len v then
              fail name x "is not longer than its parent's route"
          end
        end)
      t
  in
  let is_peer = function
    | Relation.Priv_peer | Relation.Pub_peer -> true
    | Relation.To_customer | Relation.To_provider -> false
  in
  check_table "customer" cust
    ~rel_ok:(fun r -> r = Relation.To_customer)
    ~parent_entry:(fun p -> cust.(p));
  check_table "peer" peer ~rel_ok:is_peer ~parent_entry:(fun p -> cust.(p));
  check_table "provider" prov
    ~rel_ok:(fun r -> r = Relation.To_provider)
    ~parent_entry:(fun p ->
      if cust.(p) >= 0 then cust.(p)
      else if peer.(p) >= 0 then peer.(p)
      else prov.(p));
  (* Snapshots persist only the routing tables; provenance is rebuilt
     deterministically on demand (see Rib_cache.run ~provenance). *)
  {
    topo;
    config;
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
   boundary exports seeded from the untouched entries.  Phases 1 and 3
   are [run]'s level drain with the dirty set as the receive mask;
   phase 2 pulls each dirty target's lateral candidates.  The result is
   provably identical to a full [run] on the new topology (see
   doc/dynamics.md for the closure argument; test_dynamics checks it
   on random single-link failures and flap restores).

   Dirty closure rules, per delta direction:

   - removal only {e worsens} customer/peer candidates, so a worse
     export from [p] can only affect ASes whose current entry already
     goes through [p] (the recorded [parent] back-pointers);
   - addition can {e improve} customer/peer candidates, so an improved
     export from [p] can be adopted by {e any} provider/peer neighbor
     of [p].  So can the removal of a NO_EXPORT customer seed, which
     can let its AS export for the first time: that removal closes by
     the addition rule;
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
  (* Only dirty ASes' rows are walked, so the full arena serves (see
     [receivers]). *)
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
  (* Base dirty set: entries riding the removed link, or the potential
     first adopters of the added one. *)
  let improving = ref false in
  (match delta with
  | Link_removed l ->
      for x = 0 to n - 1 do
        let e = s.cust.(x) in
        if e >= 0 && e_link e = l then begin
          mark_c x;
          if e_ne e then improving := true
        end;
        if s.peer.(x) >= 0 && e_link s.peer.(x) = l then mark_p x;
        if s.prov.(x) >= 0 && e_link s.prov.(x) = l then mark_v x
      done
  | Link_added l -> (
      improving := true;
      let link =
        match Topology.link topo l with
        | lk -> lk
        | exception Invalid_argument _ ->
            invalid_arg "Propagate.reconverge: added link not in topology"
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
  (* Reverse dependency index over the old state, for the worsening
     closure (the improving one walks the live adjacency). *)
  let cust_children = Array.make n [] and peer_children = Array.make n [] in
  if not !improving then
    for x = n - 1 downto 0 do
      let e = s.cust.(x) in
      if e >= 0 && e_parent e <> origin then
        cust_children.(e_parent e) <- x :: cust_children.(e_parent e);
      let e = s.peer.(x) in
      if e >= 0 && e_parent e <> origin then
        peer_children.(e_parent e) <- x :: peer_children.(e_parent e)
    done;
  while not (Queue.is_empty queue) do
    let packed = Queue.pop queue in
    let tag = packed land 3 and p = packed lsr 2 in
    (* A dirty customer entry of p spreads along p's exports: to the
       ASes whose entries go through p, or by the improving rule to
       every provider and peer of p. *)
    let spread = tag = 0 && !improving in
    if tag = 0 && not !improving then begin
      List.iter mark_c cust_children.(p);
      List.iter mark_p peer_children.(p)
    end;
    for i = off.(p) to off.(p + 1) - 1 do
      let pn = wrd.(i) in
      match Topology.pn_rel pn with
      | Relation.To_provider -> if spread then mark_c (Topology.pn_peer pn)
      | Relation.Priv_peer | Relation.Pub_peer ->
          if spread then mark_p (Topology.pn_peer pn)
      | Relation.To_customer ->
          (* Any dirty class can flip p's selection, changing what it
             exports to its customers. *)
          mark_v (Topology.pn_peer pn)
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
  (* Restricted drains: one origin, exports only to dirty ASes, no
     counters (reconvergence reports its own). *)
  let push_seeds q ~klass dirty =
    List.iter
      (fun (target, len, (_ : int), (link : Relation.link), ne) ->
        if dirty.(target) then
          levels_push q ~len
            (q_pack ~parent:origin ~link:link.Relation.id ~target ~ne))
      (seeds topo config ~klass)
  in
  (* Boundary candidate from clean neighbour [y]'s entry [e] into
     dirty [t]. *)
  let push_from q e ~y ~pn ~t =
    if e >= 0 && not (e_ne e) then
      levels_push q ~len:(e_len e + 1)
        (q_pack ~parent:y ~link:(Topology.pn_link pn) ~target:t ~ne:false)
  in
  (* ---- Phase 1 (restricted): customer-learned routes. ---- *)
  let q = levels_create () in
  push_seeds q ~klass:Route.Customer dc;
  for t = 0 to n - 1 do
    if dc.(t) then
      for i = off.(t) to off.(t + 1) - 1 do
        let pn = wrd.(i) in
        let y = Topology.pn_peer pn in
        if Topology.pn_rel pn == Relation.To_customer && not dc.(y) then
          push_from q cust.(y) ~y ~pn ~t
      done
  done;
  drain q ~origin ~table:cust ~seg_off:off ~seg_words:wrd
    ~exports:(fun t -> not (e_ne cust.(t)))
    ~recv:(Dirty (dc, Relation.To_provider))
    ~tracing:false ~pva:None ~cls:0;
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
  let q = levels_create () in
  push_seeds q ~klass:Route.Provider dv;
  for t = 0 to n - 1 do
    if dv.(t) then
      for i = off.(t) to off.(t + 1) - 1 do
        let pn = wrd.(i) in
        if Topology.pn_rel pn == Relation.To_provider then begin
          let y = Topology.pn_peer pn in
          let e = if cust.(y) >= 0 then cust.(y) else peer.(y) in
          if e >= 0 then push_from q e ~y ~pn ~t
          else if not dv.(y) then push_from q prov.(y) ~y ~pn ~t
        end
      done
  done;
  drain q ~origin ~table:prov ~seg_off:off ~seg_words:wrd
    ~exports:(fun t -> cust.(t) < 0 && peer.(t) < 0 && not (e_ne prov.(t)))
    ~recv:(Dirty (dv, Relation.To_customer))
    ~tracing:false ~pva:None ~cls:2;
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
  ({ topo; config; cust; peer; prov; pv }, stats)

(* ---- selection reads --------------------------------------------------- *)

(* The selected packed entry of [x], -1 for the origin and unreachable
   ASes.  Reads only the tables: nothing is allocated. *)
let[@inline] selected s x =
  if x = origin s then -1
  else if s.cust.(x) >= 0 then s.cust.(x)
  else if s.peer.(x) >= 0 then s.peer.(x)
  else s.prov.(x)

(* Constant options: no allocation. *)
let selected_class s x =
  if x = origin s then None
  else
    match sel_cls s.cust s.peer s.prov x with
    | 0 -> Some Route.Customer
    | 1 -> Some Route.Peer
    | 2 -> Some Route.Provider
    | _ -> None

let reachable s x = x = origin s || selected s x >= 0

let path_len s x =
  let v = selected s x in
  if v < 0 then -1 else e_len v

let next_hop s x =
  let v = selected s x in
  if v < 0 then -1 else e_parent v

(* AS path behind packed entry [v]: next hop ... origin.  Every hop
   follows the parent's selected entry: a customer- or peer-class
   route was exported from the parent's customer entry, which is then
   the parent's selection, and a provider-class route from the
   parent's selection itself. *)
let rec path_from s v =
  if v < 0 then []
  else
    let p = e_parent v in
    if p = origin s then [ p ] else p :: path_from s (selected s p)

let as_path s x = path_from s (selected s x)

let best s x =
  match selected_class s x with
  | None -> None
  | Some klass ->
      let v = selected s x in
      Some
        {
          Route.dest = origin s;
          klass;
          next_hop = e_parent v;
          via_link = Topology.link s.topo (e_link v);
          path_len = e_len v;
          as_path = path_from s v;
        }

let klass_of_rel = function
  | Relation.To_customer -> Route.Customer
  | Relation.To_provider -> Route.Provider
  | Relation.Priv_peer | Relation.Pub_peer -> Route.Peer

let received s x =
  if x = origin s then []
  else
    Topology.fold_row s.topo x
      (fun pn acc ->
        let y = Topology.pn_peer pn and rel = Topology.pn_rel pn in
        let link = Topology.link s.topo (Topology.pn_link pn) in
        if y = origin s then begin
          (* Direct announcement from the origin on this session. *)
          let action = Announce.action_on s.config link in
          if not action.Announce.export then acc
          else
            {
              Route.dest = origin s;
              klass = klass_of_rel rel;
              next_hop = y;
              via_link = link;
              path_len = 1 + action.Announce.prepend;
              as_path = [ origin s ];
            }
            :: acc
        end
        else
          let v = selected s y in
          (* A NO_EXPORT route is never advertised further.  Otherwise:
             to its customers the neighbor exports everything; to
             peers/providers only customer-learned routes. *)
          if v < 0 || e_ne v then acc
          else if rel <> Relation.To_provider && s.cust.(y) < 0 then acc
          else begin
            let peer_path = path_from s v in
            if List.mem x peer_path || e_parent v = x then acc
            else
              {
                Route.dest = origin s;
                klass = klass_of_rel rel;
                next_hop = y;
                via_link = link;
                path_len = e_len v + 1;
                as_path = y :: peer_path;
              }
              :: acc
          end)
      []

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
        let cls = sel_cls s.cust s.peer s.prov x in
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
                pv_rule pva ~peer:s.peer ~prov:s.prov ~cls ~winner x;
              d_runner = runner;
            }
        end
      end
