(* Order statistics for timing samples.

   A percentile is only reported when the sample can support it: the
   tail is the highest of p50/p90/p99/p99.9 that still has at least
   [min_beyond] samples strictly above its nearest-rank position, and
   it always travels with the sample count.  A p99 from 200 samples is
   really the second largest value, so it is never printed as one.
   Medians interpolate, as Netsim_stats.Quantile does; an empty sample
   gives nan, which the report prints as 0. *)

let min_beyond = 10

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank index of quantile [q] in [n] sorted samples. *)
let rank n q = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let quantile_sorted s q =
  match Array.length s with 0 -> Float.nan | n -> s.(rank n q)

let quantile a q = quantile_sorted (sorted a) q

let median a =
  if Array.length a = 0 then Float.nan else Netsim_stats.Quantile.median a

(* Samples strictly above the nearest-rank position of [q]. *)
let beyond n q = n - 1 - rank n q

type tail = { label : string; value : float; n : int }

let candidates = [ ("p99.9", 0.999); ("p99", 0.99); ("p90", 0.9); ("p50", 0.5) ]

let tail a =
  let s = sorted a in
  let n = Array.length s in
  List.find_map
    (fun (label, q) ->
      if n > 0 && beyond n q >= min_beyond then
        Some { label; value = quantile_sorted s q; n }
      else None)
    candidates

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let sum a = Array.fold_left ( +. ) 0. a
