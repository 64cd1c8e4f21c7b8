(* Span name -> layer attribution.

   The library already emits a span tree when Netsim_obs.Metrics is on;
   the harness adds its own "e2e.*" spans around every public call it
   makes.  [flatten] sums each node's self time into the layer its
   span name belongs to, so the layer rows plus "unattributed" add up
   to the total of the root spans.  Every span name in lib/ must have
   exactly one row here — test_e2e scans the sources — so a new span
   cannot silently fall into "unattributed".

   Work that a library call does outside any span of its own is
   charged to the layer of the innermost span around it: figure code
   that samples RTTs inline (fig2, grooming, wanfrac, goodput, hybrid,
   splittcp, ecs) counts as core, not latency, until those modules get
   spans of their own. *)

module Span = Netsim_obs.Span

let unattributed = "unattributed_s"

(* The per-layer time rows, in report order. *)
let rows =
  [
    "topo.generate_s";
    "cdn.build_s";
    "bgp.propagate_s";
    "bgp.propagate_batch_s";
    "bgp.reconverge_s";
    "latency.sample_s";
    "core.aggregate_s";
  ]

let table =
  [
    (* topo: Generator *)
    ("topo.generate", "topo.generate_s");
    ("topo.generate_scale", "topo.generate_s");
    (* cdn, traffic: scenario assembly *)
    ("scenario.facebook", "cdn.build_s");
    ("scenario.microsoft", "cdn.build_s");
    ("scenario.google", "cdn.build_s");
    ("cdn.deploy", "cdn.build_s");
    ("cdn.anycast.make", "cdn.build_s");
    ("cdn.egress.compute", "cdn.build_s");
    ("cdn.ldns.assign", "cdn.build_s");
    ("traffic.population", "cdn.build_s");
    ("measure.vantage.select", "cdn.build_s");
    (* bgp: Propagate *)
    ("bgp.propagate", "bgp.propagate_s");
    ("bgp.propagate_batch", "bgp.propagate_batch_s");
    ("bgp.reconverge", "bgp.reconverge_s");
    (* latency, measure: Rtt, Congestion, Campaign, Edge_controller,
       Redirector *)
    ("measure.edge_window", "latency.sample_s");
    ("measure.ping_campaign", "latency.sample_s");
    ("cdn.redirector.train", "latency.sample_s");
    ("fig3.measure_clients", "latency.sample_s");
    (* core: figure and sweep aggregation *)
    ("fig1.run", "core.aggregate_s");
    ("fig1.collect", "core.aggregate_s");
    ("fig1.aggregate", "core.aggregate_s");
    ("fig2.run", "core.aggregate_s");
    ("fig3.run", "core.aggregate_s");
    ("fig4.run", "core.aggregate_s");
    ("fig5.run", "core.aggregate_s");
    ("core.scale_sweep", "core.aggregate_s");
    ("dynamics.run", "core.aggregate_s");
    ("dynamics.cell", "core.aggregate_s");
    (* the harness's own spans around public calls *)
    ("e2e.scenario", "cdn.build_s");
    ("e2e.run", "core.aggregate_s");
    ("e2e.render", "core.aggregate_s");
    ("e2e.scale_sweep", "core.aggregate_s");
  ]

(* Harness glue between its calls: one root span per figure runner. *)
let runner_prefix = "e2e.runner."

let layer_of name =
  match List.assoc_opt name table with
  | Some l -> Some l
  | None when String.starts_with ~prefix:runner_prefix name -> Some unattributed
  | None -> None

(* Self seconds per layer (every row, zeros included, then
   [unattributed]), and the span names no row claims — those count as
   unattributed. *)
let flatten (roots : Span.info list) =
  let acc = Hashtbl.create 16 in
  let unknown = ref [] in
  let add layer ms =
    Hashtbl.replace acc layer
      ((Option.value ~default:0. (Hashtbl.find_opt acc layer)) +. (ms /. 1000.))
  in
  let rec go (n : Span.info) =
    (match layer_of n.Span.i_name with
    | Some l -> add l n.Span.i_self_ms
    | None ->
        if not (List.mem n.Span.i_name !unknown) then
          unknown := n.Span.i_name :: !unknown;
        add unattributed n.Span.i_self_ms);
    List.iter go n.Span.i_children
  in
  List.iter go roots;
  let get l = Option.value ~default:0. (Hashtbl.find_opt acc l) in
  (List.map (fun l -> (l, get l)) (rows @ [ unattributed ]), List.rev !unknown)

(* Calls of every node with this name, anywhere in the tree. *)
let calls name (roots : Span.info list) =
  let rec go a (n : Span.info) =
    List.fold_left go
      (if n.Span.i_name = name then a + n.Span.i_calls else a)
      n.Span.i_children
  in
  List.fold_left go 0 roots
