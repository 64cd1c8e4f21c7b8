module Summary = Netsim_stats.Summary
module Quantile = Netsim_stats.Quantile

(* Single global switch checked at every record site.  Default off, so
   instrumentation costs one load + branch per site; seeded from the
   NETSIM_TRACE environment variable, flipped by the CLI / bench
   drivers. *)
let on =
  ref
    (match Sys.getenv_opt "NETSIM_TRACE" with
    | None | Some "" | Some "0" | Some "false" -> false
    | Some _ -> true)

let set_enabled b = on := b
let enabled () = !on

(* ---- domain-local capture buffers ------------------------------------ *)

(* The registry below is owned by the main domain.  Worker domains (the
   Netsim_par pool) must not touch it concurrently, so every record
   site first consults a domain-local slot: [None] (the default in
   every domain) means "write straight into the global registry";
   [Some buf] means "record into this buffer".  [capture] installs a
   fresh buffer around a task and [absorb] merges it into the registry.
   Counters commute, so a buffer keeps one running sum per name;
   gauge writes and histogram observations do not (last write wins; a
   histogram's float sum depends on the order of its samples), so they
   stay an ordered event log that [absorb] replays.  Absorbing the
   per-task buffers in submission order therefore leaves the registry
   byte-identical regardless of domain count. *)

type event = Ev_gauge of string * float | Ev_observe of string * float

type buffer = {
  mutable events : event list;  (** newest first while recording *)
  sums : (string, int ref) Hashtbl.t;  (** counter increments by name *)
}

let buffer_key : buffer option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* ---- counters -------------------------------------------------------- *)

type counter = { c_id : int; c_name : string; mutable c_value : int }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let counter_list : counter list ref = ref []
let n_counters = ref 0

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None -> (
      match Domain.DLS.get buffer_key with
      | Some _ ->
          (* Inside a capture: never mutate the global table.  The
             detached handle still records by name, and [absorb]
             registers the name when the buffer is merged. *)
          { c_id = -1; c_name = name; c_value = 0 }
      | None ->
          let c = { c_id = !n_counters; c_name = name; c_value = 0 } in
          incr n_counters;
          Hashtbl.replace counters name c;
          counter_list := c :: !counter_list;
          c)

let buffer_add buf name by =
  match Hashtbl.find_opt buf.sums name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace buf.sums name (ref by)

let add c by =
  if !on then
    match Domain.DLS.get buffer_key with
    | None -> c.c_value <- c.c_value + by
    | Some buf -> buffer_add buf c.c_name by

let incr c = add c 1

let counter_value c =
  match Domain.DLS.get buffer_key with
  | None -> c.c_value
  | Some buf -> (
      (* Within a capture only the task's own increments are visible. *)
      match Hashtbl.find_opt buf.sums c.c_name with
      | Some r -> !r
      | None -> 0)

(* ---- gauges ---------------------------------------------------------- *)

type gauge = { g_name : string; mutable g_value : float }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let gauge name =
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None -> (
      match Domain.DLS.get buffer_key with
      | Some _ -> { g_name = name; g_value = 0. }
      | None ->
          let g = { g_name = name; g_value = 0. } in
          Hashtbl.replace gauges name g;
          g)

let set g v =
  if !on then
    match Domain.DLS.get buffer_key with
    | None -> g.g_value <- v
    | Some buf -> buf.events <- Ev_gauge (g.g_name, v) :: buf.events

let gauge_value g = g.g_value

(* ---- histograms ------------------------------------------------------ *)

(* Log-bucketed: [buckets_per_decade] buckets per decade of value, over
   [10^lo_decade, 10^hi_decade), with underflow (index 0, values <=
   lower bound or <= 0) and overflow (last index) buckets.  Quantiles
   are estimated from bucket geometric midpoints with the existing
   weighted-quantile machinery, so the relative error is bounded by the
   bucket width (x10^(1/buckets_per_decade) ~ 1.58). *)
let buckets_per_decade = 5
let lo_decade = -3
let hi_decade = 7
let n_inner = (hi_decade - lo_decade) * buckets_per_decade
let n_buckets = n_inner + 2

type histogram = {
  h_name : string;
  h_buckets : int array;
  mutable h_summary : Summary.t;
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None -> (
      let h =
        {
          h_name = name;
          h_buckets = Array.make n_buckets 0;
          h_summary = Summary.create ();
        }
      in
      match Domain.DLS.get buffer_key with
      | Some _ -> h
      | None ->
          Hashtbl.replace histograms name h;
          h)

let bucket_index v =
  if v <= 0. then 0
  else begin
    let raw =
      int_of_float
        (Float.floor
           ((Float.log10 v -. float_of_int lo_decade)
           *. float_of_int buckets_per_decade))
    in
    if raw < 0 then 0 else if raw >= n_inner then n_buckets - 1 else raw + 1
  end

(* Geometric midpoint of the bucket: the value every sample in it is
   reported as when estimating quantiles. *)
let bucket_mid i =
  if i = 0 then 0.
  else if i = n_buckets - 1 then 10. ** float_of_int hi_decade
  else
    10.
    ** (float_of_int lo_decade
       +. ((float_of_int (i - 1) +. 0.5) /. float_of_int buckets_per_decade))

let observe_direct h v =
  let i = bucket_index v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  Summary.add h.h_summary v

let observe h v =
  if !on then
    match Domain.DLS.get buffer_key with
    | None -> observe_direct h v
    | Some buf -> buf.events <- Ev_observe (h.h_name, v) :: buf.events

let histogram_count h = Summary.count h.h_summary
let histogram_summary h = h.h_summary

(* Upper bound of bucket [i], for Prometheus-style cumulative export.
   The underflow bucket's bound is the histogram floor; the overflow
   bucket is unbounded. *)
let bucket_upper i =
  if i = 0 then 10. ** float_of_int lo_decade
  else if i = n_buckets - 1 then infinity
  else
    10.
    ** (float_of_int lo_decade
       +. (float_of_int i /. float_of_int buckets_per_decade))

let histogram_quantile h q =
  let pairs = ref [] in
  Array.iteri
    (fun i n ->
      if n > 0 then pairs := (bucket_mid i, float_of_int n) :: !pairs)
    h.h_buckets;
  match !pairs with
  | [] -> nan
  | l -> Quantile.weighted_quantile (Array.of_list l) q

(* ---- snapshots (for per-span counter deltas) ------------------------- *)

type snapshot =
  | Snap_global of int array  (** values indexed by [c_id] *)
  | Snap_buffered of (string * int) list  (** sorted buffer values *)

let buffer_values buf =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) buf.sums []
  |> List.sort compare

let counter_snapshot () =
  match Domain.DLS.get buffer_key with
  | None ->
      let a = Array.make (Stdlib.max 1 !n_counters) 0 in
      List.iter (fun c -> a.(c.c_id) <- c.c_value) !counter_list;
      Snap_global a
  | Some buf -> Snap_buffered (buffer_values buf)

let counter_deltas snap =
  match (snap, Domain.DLS.get buffer_key) with
  | Snap_global a, None ->
      List.filter_map
        (fun c ->
          let base = if c.c_id < Array.length a then a.(c.c_id) else 0 in
          let d = c.c_value - base in
          if d = 0 then None else Some (c.c_name, d))
        !counter_list
      |> List.sort compare
  | Snap_buffered base, Some buf ->
      List.filter_map
        (fun (name, v) ->
          let b =
            match List.assoc_opt name base with Some b -> b | None -> 0
          in
          if v = b then None else Some (name, v - b))
        (buffer_values buf)
  | Snap_global _, Some _ | Snap_buffered _, None ->
      (* Snapshot crossed a capture boundary; spans never do this. *)
      []

(* ---- capture / absorb ------------------------------------------------ *)

type captured = buffer  (** [events] oldest first *)

let capture f =
  let saved = Domain.DLS.get buffer_key in
  let buf = { events = []; sums = Hashtbl.create 32 } in
  Domain.DLS.set buffer_key (Some buf);
  match f () with
  | v ->
      Domain.DLS.set buffer_key saved;
      buf.events <- List.rev buf.events;
      (v, buf)
  | exception e ->
      Domain.DLS.set buffer_key saved;
      raise e

let absorb cap =
  match Domain.DLS.get buffer_key with
  | None ->
      Hashtbl.iter
        (fun name r ->
          let c = counter name in
          c.c_value <- c.c_value + !r)
        cap.sums;
      List.iter
        (function
          | Ev_gauge (name, v) -> (gauge name).g_value <- v
          | Ev_observe (name, v) -> observe_direct (histogram name) v)
        cap.events
  | Some outer ->
      (* Absorbing inside an outer capture just re-buffers, so nested
         fan-outs compose. *)
      Hashtbl.iter (fun name r -> buffer_add outer name !r) cap.sums;
      outer.events <- List.rev_append cap.events outer.events

(* ---- runtime gauges -------------------------------------------------- *)

(* Process-level numbers (GC stats, pool utilization) that vary with
   wall clock and domain count.  They live in a side table that is
   deliberately NOT part of [to_json], so the deterministic merged
   metrics document stays byte-identical across runs and NETSIM_DOMAINS
   settings; exporters and the human-readable report read them via
   [runtime_rows].  Writes from inside a capture are dropped rather
   than buffered — worker-domain samples would race and are not
   meaningful to merge. *)

let runtime : (string, float ref) Hashtbl.t = Hashtbl.create 32

let set_runtime name v =
  if !on then
    match Domain.DLS.get buffer_key with
    | Some _ -> ()
    | None -> (
        match Hashtbl.find_opt runtime name with
        | Some r -> r := v
        | None -> Hashtbl.replace runtime name (ref v))

let sample_gc () =
  if !on && Option.is_none (Domain.DLS.get buffer_key) then begin
    let gc = Gc.quick_stat () and f = float_of_int in
    set_runtime "gc.minor_collections" (f gc.Gc.minor_collections);
    set_runtime "gc.major_collections" (f gc.Gc.major_collections);
    set_runtime "gc.promoted_words" gc.Gc.promoted_words;
    set_runtime "gc.heap_words" (f gc.Gc.heap_words)
  end

let runtime_rows () =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) runtime []
  |> List.sort compare

(* ---- report rows ----------------------------------------------------- *)

let counter_rows () =
  Hashtbl.fold (fun name c acc -> (name, c.c_value) :: acc) counters []
  |> List.sort compare

let gauge_rows () =
  Hashtbl.fold (fun name g acc -> (name, g.g_value) :: acc) gauges []
  |> List.sort compare

type hist_row = {
  hr_name : string;
  hr_summary : Summary.t;
  hr_p50 : float;
  hr_p90 : float;
  hr_p99 : float;
}

let histogram_rows () =
  Hashtbl.fold
    (fun name h acc ->
      ( name,
        {
          hr_name = name;
          hr_summary = h.h_summary;
          hr_p50 = histogram_quantile h 0.5;
          hr_p90 = histogram_quantile h 0.9;
          hr_p99 = histogram_quantile h 0.99;
        } )
      :: acc)
    histograms []
  |> List.sort compare |> List.map snd

let histogram_export () =
  Hashtbl.fold
    (fun name h acc ->
      let buckets =
        List.init n_buckets (fun i -> (bucket_upper i, h.h_buckets.(i)))
      in
      (name, buckets, h.h_summary) :: acc)
    histograms []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let reset () =
  Hashtbl.reset runtime;
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.) gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_buckets 0 n_buckets 0;
      h.h_summary <- Summary.create ())
    histograms

let to_json () =
  Jsonx.Obj
    [
      ( "counters",
        Jsonx.Obj
          (List.map (fun (n, v) -> (n, Jsonx.Int v)) (counter_rows ())) );
      ( "gauges",
        Jsonx.Obj (List.map (fun (n, v) -> (n, Jsonx.Float v)) (gauge_rows ()))
      );
      ( "histograms",
        Jsonx.Arr
          (List.map
             (fun r ->
               Jsonx.Obj
                 [
                   ("name", Jsonx.String r.hr_name);
                   ("count", Jsonx.Int (Summary.count r.hr_summary));
                   ("mean", Jsonx.Float (Summary.mean r.hr_summary));
                   ("min", Jsonx.Float (Summary.min r.hr_summary));
                   ("max", Jsonx.Float (Summary.max r.hr_summary));
                   ("total", Jsonx.Float (Summary.total r.hr_summary));
                   ("p50", Jsonx.Float r.hr_p50);
                   ("p90", Jsonx.Float r.hr_p90);
                   ("p99", Jsonx.Float r.hr_p99);
                 ])
             (histogram_rows ())) );
    ]
