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

(* ---- names ------------------------------------------------------------ *)

(* Every metric name gets a dense id the first time any domain asks for
   it, under [lock]; registration is rare (module initialisation, or a
   new serve verb), so a record site only indexes arrays by id.
   [by_id] is republished whole on each registration, so a reader sees
   every name registered before it without taking the lock. *)
type names = { ids : (string, int) Hashtbl.t; by_id : string array Atomic.t }

let lock = Mutex.create ()
let counter_names = { ids = Hashtbl.create 64; by_id = Atomic.make [||] }
let histogram_names = { ids = Hashtbl.create 16; by_id = Atomic.make [||] }

let intern names name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt names.ids name with
      | Some id -> id
      | None ->
          let old = Atomic.get names.by_id in
          let id = Array.length old in
          Hashtbl.replace names.ids name id;
          Atomic.set names.by_id (Array.append old [| name |]);
          id)

let registered names = Array.length (Atomic.get names.by_id)

(* ---- registries ------------------------------------------------------- *)

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

type hist = { buckets : int array; mutable summary : Summary.t }

(* One representation for the global registry and every capture: a sum
   per counter id and a histogram state per histogram id.  Both arrays
   grow on demand; [no_hist] (never written) stands for a histogram
   nothing has observed into this registry. *)
type registry = { mutable sums : int array; mutable hists : hist array }

let no_hist = { buckets = Array.make n_buckets 0; summary = Summary.create () }
let fresh () = { sums = [||]; hists = [||] }

(* The main domain owns [global].  A domain-local slot names the
   registry every record site writes: [global] outside a capture, the
   task's own registry inside one ({!Netsim_par.Pool} runs every task
   under a capture, so workers never write [global]). *)
let global = fresh ()
let current : registry Domain.DLS.key = Domain.DLS.new_key (fun () -> global)

let grown a ~id names fill =
  let b = Array.make (Stdlib.max (id + 1) (registered names)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let sums r id =
  if id >= Array.length r.sums then r.sums <- grown r.sums ~id counter_names 0;
  r.sums

let hist r id =
  if id >= Array.length r.hists then
    r.hists <- grown r.hists ~id histogram_names no_hist;
  let h = r.hists.(id) in
  if h != no_hist then h
  else begin
    let h = { buckets = Array.make n_buckets 0; summary = Summary.create () } in
    r.hists.(id) <- h;
    h
  end

let hist_value r id = if id < Array.length r.hists then r.hists.(id) else no_hist

(* ---- counters --------------------------------------------------------- *)

type counter = int

let counter name = intern counter_names name

let add c by =
  if !on then begin
    let s = sums (Domain.DLS.get current) c in
    s.(c) <- s.(c) + by
  end

let incr c = add c 1

let value r c = if c < Array.length r.sums then r.sums.(c) else 0

(* Within a capture only the task's own increments are visible. *)
let counter_value c = value (Domain.DLS.get current) c

(* ---- histograms ------------------------------------------------------- *)

type histogram = int

let histogram name = intern histogram_names name

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

let observe h v =
  if !on then begin
    let s = hist (Domain.DLS.get current) h in
    let i = bucket_index v in
    s.buckets.(i) <- s.buckets.(i) + 1;
    Summary.add s.summary v
  end

let histogram_summary h = (hist_value (Domain.DLS.get current) h).summary
let histogram_count h = Summary.count (histogram_summary h)

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

let quantile s q =
  let pairs = ref [] in
  Array.iteri
    (fun i n ->
      if n > 0 then pairs := (bucket_mid i, float_of_int n) :: !pairs)
    s.buckets;
  match !pairs with
  | [] -> nan
  | l -> Quantile.weighted_quantile (Array.of_list l) q

let histogram_quantile h q = quantile (hist_value (Domain.DLS.get current) h) q

(* ---- snapshots (for per-span counter deltas) -------------------------- *)

type snapshot = int array

let counter_snapshot () = Array.copy (Domain.DLS.get current).sums

let counter_deltas snap =
  let names = Atomic.get counter_names.by_id in
  let deltas = ref [] in
  Array.iteri
    (fun c v ->
      let d = v - if c < Array.length snap then snap.(c) else 0 in
      if d <> 0 then deltas := (names.(c), d) :: !deltas)
    (Domain.DLS.get current).sums;
  List.sort compare !deltas

(* ---- capture / absorb ------------------------------------------------- *)

type captured = registry

let capture f =
  let saved = Domain.DLS.get current in
  let r = fresh () in
  Domain.DLS.set current r;
  match f () with
  | v ->
      Domain.DLS.set current saved;
      (v, r)
  | exception e ->
      Domain.DLS.set current saved;
      raise e

(* Counter sums and bucket counts add; summaries merge.  Every capture
   is absorbed at the same point of the same sequence at any domain
   count, so the merged floats are too. *)
let absorb cap =
  let r = Domain.DLS.get current in
  let n = Array.length cap.sums in
  if n > 0 then begin
    let s = sums r (n - 1) in
    for c = 0 to n - 1 do
      s.(c) <- s.(c) + cap.sums.(c)
    done
  end;
  for id = 0 to Array.length cap.hists - 1 do
    let h = cap.hists.(id) in
    if h != no_hist then begin
      let dst = hist r id in
      for i = 0 to n_buckets - 1 do
        dst.buckets.(i) <- dst.buckets.(i) + h.buckets.(i)
      done;
      dst.summary <- Summary.merge dst.summary h.summary
    end
  done

(* ---- runtime samples -------------------------------------------------- *)

(* Process-level numbers (GC stats, pool utilization) that vary with
   wall clock and domain count.  They live in a side table that is
   deliberately NOT part of [to_json], so the deterministic merged
   metrics document stays byte-identical across runs and NETSIM_DOMAINS
   settings; exporters and the human-readable report read them via
   [runtime_rows].  Writes from inside a capture are dropped rather
   than buffered — worker-domain samples would race and are not
   meaningful to merge. *)

let runtime : (string, float ref) Hashtbl.t = Hashtbl.create 32
let outside_capture () = Domain.DLS.get current == global

let set_runtime name v =
  if !on && outside_capture () then
    match Hashtbl.find_opt runtime name with
    | Some r -> r := v
    | None -> Hashtbl.replace runtime name (ref v)

let sample_gc () =
  if !on && outside_capture () then begin
    let gc = Gc.quick_stat () and f = float_of_int in
    set_runtime "gc.minor_collections" (f gc.Gc.minor_collections);
    set_runtime "gc.major_collections" (f gc.Gc.major_collections);
    set_runtime "gc.promoted_words" gc.Gc.promoted_words;
    set_runtime "gc.heap_words" (f gc.Gc.heap_words)
  end

let runtime_rows () =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) runtime []
  |> List.sort compare

(* ---- report rows ------------------------------------------------------ *)

(* Every registered name, with its value in the global registry, sorted
   by name. *)
let rows names value =
  Atomic.get names.by_id |> Array.to_list
  |> List.mapi (fun id name -> (name, value id))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counter_rows () = rows counter_names (value global)

type hist_row = {
  hr_name : string;
  hr_summary : Summary.t;
  hr_p50 : float;
  hr_p90 : float;
  hr_p99 : float;
}

let histogram_rows () =
  List.map
    (fun (name, s) ->
      {
        hr_name = name;
        hr_summary = s.summary;
        hr_p50 = quantile s 0.5;
        hr_p90 = quantile s 0.9;
        hr_p99 = quantile s 0.99;
      })
    (rows histogram_names (hist_value global))

let histogram_export () =
  List.map
    (fun (name, s) ->
      let buckets = List.init n_buckets (fun i -> (bucket_upper i, s.buckets.(i))) in
      (name, buckets, s.summary))
    (rows histogram_names (hist_value global))

let reset () =
  Hashtbl.reset runtime;
  Array.fill global.sums 0 (Array.length global.sums) 0;
  Array.fill global.hists 0 (Array.length global.hists) no_hist

let to_json () =
  Jsonx.Obj
    [
      ( "counters",
        Jsonx.Obj
          (List.map (fun (n, v) -> (n, Jsonx.Int v)) (counter_rows ())) );
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
