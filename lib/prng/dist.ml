let uniform rng ~lo ~hi = lo +. ((hi -. lo) *. Splitmix.next_float rng)

let normal rng ~mean ~std =
  (* Box-Muller; we draw a fresh pair each call and discard the second
     variate to keep the sampler stateless. *)
  let rec nonzero () =
    let u = Splitmix.next_float rng in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () in
  let u2 = Splitmix.next_float rng in
  let r = sqrt (-2. *. log u1) in
  mean +. (std *. r *. cos (2. *. Float.pi *. u2))

let lognormal rng ~mu ~sigma = exp (normal rng ~mean:mu ~std:sigma)

let exponential rng ~rate =
  let rec nonzero () =
    let u = Splitmix.next_float rng in
    if u > 0. then u else nonzero ()
  in
  -.log (nonzero ()) /. rate

let pareto rng ~shape ~scale =
  let rec nonzero () =
    let u = Splitmix.next_float rng in
    if u > 0. then u else nonzero ()
  in
  scale /. (nonzero () ** (1. /. shape))

let poisson rng ~mean =
  if mean <= 0. then 0
  else if mean > 60. then
    (* Normal approximation with continuity correction. *)
    let x = normal rng ~mean ~std:(sqrt mean) in
    max 0 (int_of_float (Float.round x))
  else begin
    let l = exp (-.mean) in
    let k = ref 0 and p = ref 1. in
    let continue = ref true in
    while !continue do
      incr k;
      p := !p *. Splitmix.next_float rng;
      if !p <= l then continue := false
    done;
    !k - 1
  end

let bernoulli rng ~p = Splitmix.next_float rng < p

type zipf = { cumulative : float array; weights : float array }

let zipf_make ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf_make: n must be positive";
  let weights = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let weights = Array.map (fun w -> w /. total) weights in
  let cumulative = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cumulative.(i) <- !acc)
    weights;
  cumulative.(n - 1) <- 1.;
  { cumulative; weights }

let bisect cumulative u =
  let lo = ref 0 and hi = ref (Array.length cumulative - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cumulative.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let zipf_sample z rng = bisect z.cumulative (Splitmix.next_float rng)
let zipf_weight z i = z.weights.(i)

let categorical weights =
  (* The prefix sums are the linear scan's running [acc] values, summed
     in the same left-to-right order, so the bisection below makes the
     scan's comparisons and returns its index bit for bit. *)
  let n = Array.length weights in
  let cumulative = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. weights.(i);
    cumulative.(i) <- !acc
  done;
  let total = !acc in
  if total <= 0. then invalid_arg "Dist.categorical: weights must sum > 0";
  fun rng ->
    let u = Splitmix.next_float rng *. total in
    (* The first [i < n - 1] with [u < cumulative.(i)], else [n - 1]:
       the scan's strict test, where [bisect] tests [>=]. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if u < cumulative.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Splitmix.next_int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement rng k arr =
  let n = Array.length arr in
  let k = min k n in
  if k < 0 then invalid_arg "Dist.sample_without_replacement: negative k";
  (* Partial Fisher-Yates over a virtual copy of [arr]: step [i] swaps
     slot [i] with slot [j >= i], and the sample is what slots [0..k-1]
     end up holding.  Slots before the cursor are never read again, so
     only the write to [j] is logged, as the index of [arr] that slot
     [j] now holds; a slot absent from the log still holds its own. *)
  let slot = Array.make k 0 and src = Array.make k 0 in
  let source p len =
    let rec newest t =
      if t < 0 then p else if slot.(t) = p then src.(t) else newest (t - 1)
    in
    newest (len - 1)
  in
  Array.init k (fun i ->
      let j = i + Splitmix.next_int rng (n - i) in
      let sj = source j i in
      slot.(i) <- j;
      src.(i) <- source i i;
      arr.(sj))
