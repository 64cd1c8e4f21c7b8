module Quantile = Netsim_stats.Quantile
module Rtt = Netsim_latency.Rtt
module Prefix = Netsim_traffic.Prefix

type choice = Use_anycast | Use_site of int

type table = {
  by_resolver : (int, choice) Hashtbl.t;
  by_prefix : (int, choice) Hashtbl.t;  (** ECS prefixes only. *)
}

(* Per-prefix training medians for every option; None if unreachable. *)
let prefix_option_medians any cong ~rng ~windows ~samples_per_window prefix =
  let measure flow_opt =
    Option.map
      (Rtt.pooled_median_ms cong ~rng ~windows ~count:samples_per_window)
      flow_opt
  in
  let anycast = measure (Anycast.anycast_flow any prefix) in
  let sites =
    List.map
      (fun site ->
        (site, measure (Anycast.unicast_flow any prefix ~site)))
      (Anycast.sites any)
  in
  (anycast, sites)

let best_choice ~margin anycast_med site_meds =
  (* Prefer anycast on ties: redirection must beat anycast by at least
     [margin] ms to be used (a hybrid scheme raises the margin to only
     override anycast where the predicted gain is large). *)
  let best_site =
    List.fold_left
      (fun acc (site, med) ->
        match (med, acc) with
        | None, _ -> acc
        | Some m, None -> Some (site, m)
        | Some m, Some (_, bm) -> if m < bm then Some (site, m) else acc)
      None site_meds
  in
  match (anycast_med, best_site) with
  | None, None -> Use_anycast
  | None, Some (site, _) -> Use_site site
  | Some _, None -> Use_anycast
  | Some a, Some (site, m) ->
      if m < a -. margin then Use_site site else Use_anycast

let c_decisions = Netsim_obs.Metrics.counter "cdn.redirector.decisions"
let c_redirected = Netsim_obs.Metrics.counter "cdn.redirector.redirected"

let train ?(margin = 0.) ?client_sample any ~assignment ~prefixes ~cong ~rng
    ~windows ~samples_per_window =
  Netsim_obs.Span.with_ ~name:"cdn.redirector.train" @@ fun () ->
  (* Step 1: per-prefix option medians. *)
  let per_prefix =
    Array.map
      (fun p ->
        prefix_option_medians any cong ~rng ~windows ~samples_per_window p)
      prefixes
  in
  let by_prefix = Hashtbl.create 16 in
  (* Step 2: ECS prefixes predict for themselves. *)
  Array.iteri
    (fun i (p : Prefix.t) ->
      if assignment.Ldns.ecs.(p.Prefix.id) then begin
        let anycast, sites = per_prefix.(i) in
        Hashtbl.replace by_prefix p.Prefix.id (best_choice ~margin anycast sites)
      end)
    prefixes;
  (* Step 3: per-resolver aggregation over non-ECS clients, weighted
     by traffic. *)
  let by_resolver = Hashtbl.create 64 in
  Array.iter
    (fun (r : Ldns.resolver) ->
      let clients =
        Array.to_list prefixes
        |> List.filteri (fun i (p : Prefix.t) ->
               ignore i;
               assignment.Ldns.of_prefix.(p.Prefix.id) = r.Ldns.id
               && not assignment.Ldns.ecs.(p.Prefix.id))
      in
      (* Production systems predict from a sparse sample of each
         LDNS's clients, not a census, and the sample skews toward the
         heaviest clients (they generate most measurements).
         Sub-sampling reproduces the resulting prediction error for
         scattered resolver pools. *)
      let clients =
        match client_sample with
        | None -> clients
        | Some k ->
            List.sort
              (fun (a : Prefix.t) (b : Prefix.t) ->
                compare b.Prefix.weight a.Prefix.weight)
              clients
            |> List.filteri (fun i _ -> i < k)
      in
      if clients <> [] then begin
        let weighted option_of_prefix =
          (* Weighted median over clients of the per-option medians. *)
          let pairs =
            List.filter_map
              (fun (p : Prefix.t) ->
                match option_of_prefix p with
                | Some v -> Some (v, p.Prefix.weight)
                | None -> None)
              clients
          in
          match pairs with
          | [] -> None
          | l -> Some (Quantile.weighted_quantile (Array.of_list l) 0.5)
        in
        let anycast_med =
          weighted (fun p -> fst per_prefix.(p.Prefix.id))
        in
        let site_meds =
          List.map
            (fun site ->
              ( site,
                weighted (fun p ->
                    List.assoc site (snd per_prefix.(p.Prefix.id))) ))
            (Anycast.sites any)
        in
        Hashtbl.replace by_resolver r.Ldns.id
          (best_choice ~margin anycast_med site_meds)
      end)
    assignment.Ldns.resolvers;
  if Netsim_obs.Metrics.enabled () then begin
    let redirected tbl =
      Hashtbl.fold
        (fun _ c acc -> match c with Use_site _ -> acc + 1 | Use_anycast -> acc)
        tbl 0
    in
    Netsim_obs.Metrics.add c_decisions
      (Hashtbl.length by_resolver + Hashtbl.length by_prefix);
    Netsim_obs.Metrics.add c_redirected
      (redirected by_resolver + redirected by_prefix)
  end;
  { by_resolver; by_prefix }

let choice_for table assignment (p : Prefix.t) =
  if assignment.Ldns.ecs.(p.Prefix.id) then
    match Hashtbl.find_opt table.by_prefix p.Prefix.id with
    | Some c -> c
    | None -> Use_anycast
  else
    match
      Hashtbl.find_opt table.by_resolver assignment.Ldns.of_prefix.(p.Prefix.id)
    with
    | Some c -> c
    | None -> Use_anycast

let flow_for_choice any prefix = function
  | Use_anycast -> Anycast.anycast_flow any prefix
  | Use_site site -> (
      match Anycast.unicast_flow any prefix ~site with
      | Some flow -> Some flow
      | None -> Anycast.anycast_flow any prefix)

let choices table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table.by_resolver []
  |> List.sort compare

let redirected_fraction table =
  let total = Hashtbl.length table.by_resolver in
  if total = 0 then 0.
  else begin
    let redirected =
      Hashtbl.fold
        (fun _ c acc ->
          match c with Use_site _ -> acc + 1 | Use_anycast -> acc)
        table.by_resolver 0
    in
    float_of_int redirected /. float_of_int total
  end
