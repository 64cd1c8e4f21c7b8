(* Every field is a float, so the record is stored flat and [add]
   updates it without allocating.  [n] counts exactly up to 2^53. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
}

let create () =
  { n = 0.; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. }

let add t x =
  t.n <- t.n +. 1.;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x

let count t = int_of_float t.n
let mean t = if t.n = 0. then nan else t.mean
let variance t = if t.n < 2. then nan else t.m2 /. (t.n -. 1.)
let std t = sqrt (variance t)
let min t = t.min
let max t = t.max
let total t = t.total

let merge a b =
  if a.n = 0. then { b with n = b.n }
  else if b.n = 0. then { a with n = a.n }
  else begin
    let n = a.n +. b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. b.n /. n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
    {
      n;
      mean;
      m2;
      min = Stdlib.min a.min b.min;
      max = Stdlib.max a.max b.max;
      total = a.total +. b.total;
    }
  end

let pp fmt t =
  Format.fprintf fmt "n=%d mean=%.3f std=%.3f min=%.3f max=%.3f" (count t) (mean t)
    (std t) t.min t.max

(* Compact human formatting shared by figure captions, ASCII-plot axis
   labels and the observability metrics table. *)
let pretty_float v =
  if Float.is_nan v then "nan"
  else if v = Float.infinity then "inf"
  else if v = Float.neg_infinity then "-inf"
  else if Float.is_integer v && Float.abs v < 1e7 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let one_line t =
  if t.n = 0. then "n=0"
  else
    Printf.sprintf "n=%d mean=%s min=%s max=%s total=%s" (count t)
      (pretty_float (mean t)) (pretty_float t.min) (pretty_float t.max)
      (pretty_float t.total)
