type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let copy t = { state = t.state }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let next_float t =
  (* Use the top 53 bits for a uniform double in [0, 1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let next_int t bound =
  if bound <= 0 then invalid_arg "Splitmix.next_int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for the
     bounds used in simulation (<< 2^32). *)
  (* Keep 62 bits so the value fits in OCaml's native 63-bit int
     without wrapping negative. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let split t =
  let seed = next_int64 t in
  { state = mix64 seed }

(* FNV-1a, 64-bit, continued from [h], so a label hashes in pieces
   without being built; the non-escaping refs stay unboxed. *)
let fnv_basis = 0xCBF29CE484222325L

let fnv_byte h c = Int64.mul (Int64.logxor h (Int64.of_int c)) 0x100000001B3L

let fnv_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* The bytes of [string_of_int n], most significant digit first.  The
   digits come from the non-positive [-|n|], so [min_int] works too. *)
let fnv_int h n =
  let h = ref (if n < 0 then fnv_byte h (Char.code '-') else h) in
  let m = if n < 0 then n else -n in
  let p = ref 1 in
  while m / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    h := fnv_byte !h (Char.code '0' - ((m / !p) mod 10));
    p := !p / 10
  done;
  !h

let of_hash t h = { state = mix64 (Int64.logxor t.state h) }

let of_label t label = of_hash t (fnv_string fnv_basis label)

let of_label_int t prefix n = of_hash t (fnv_int (fnv_string fnv_basis prefix) n)

let of_label_int2 t prefix a b =
  of_hash t (fnv_int (fnv_string (fnv_int (fnv_string fnv_basis prefix) a) "-") b)
