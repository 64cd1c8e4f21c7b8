(* Unit and property tests for the SplitMix64 generator and the
   distribution samplers. *)

module Sm = Netsim_prng.Splitmix
module Dist = Netsim_prng.Dist

let check_float = Alcotest.(check (float 1e-9))

(* ---- Splitmix ---- *)

let test_determinism () =
  let a = Sm.create 123 and b = Sm.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sm.next_int64 a) (Sm.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Sm.create 1 and b = Sm.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Sm.next_int64 a <> Sm.next_int64 b)

let test_copy_replays () =
  let a = Sm.create 7 in
  ignore (Sm.next_int64 a);
  let b = Sm.copy a in
  let xs = List.init 10 (fun _ -> Sm.next_int64 a) in
  let ys = List.init 10 (fun _ -> Sm.next_int64 b) in
  Alcotest.(check (list int64)) "copy replays" xs ys

let test_float_range () =
  let rng = Sm.create 99 in
  for _ = 1 to 10_000 do
    let f = Sm.next_float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_float_mean () =
  let rng = Sm.create 5 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Sm.next_float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_next_int_bounds () =
  let rng = Sm.create 11 in
  for _ = 1 to 10_000 do
    let v = Sm.next_int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_next_int_rejects_nonpositive () =
  let rng = Sm.create 1 in
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Splitmix.next_int: bound must be positive") (fun () ->
      ignore (Sm.next_int rng 0))

let test_next_int_covers_all_values () =
  let rng = Sm.create 3 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Sm.next_int rng 5) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_split_independence () =
  let a = Sm.create 42 in
  let b = Sm.split a in
  let xs = List.init 20 (fun _ -> Sm.next_int64 a) in
  let ys = List.init 20 (fun _ -> Sm.next_int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_label_stability () =
  let a = Sm.create 42 in
  let s1 = Sm.of_label a "foo" and s2 = Sm.of_label a "foo" in
  Alcotest.(check int64) "same label, same stream" (Sm.next_int64 s1)
    (Sm.next_int64 s2)

let test_label_distinct () =
  let a = Sm.create 42 in
  let s1 = Sm.of_label a "foo" and s2 = Sm.of_label a "bar" in
  Alcotest.(check bool) "labels differ" true
    (Sm.next_int64 s1 <> Sm.next_int64 s2)

let test_label_does_not_advance () =
  let a = Sm.create 42 and b = Sm.create 42 in
  ignore (Sm.of_label a "anything");
  Alcotest.(check int64) "parent unchanged" (Sm.next_int64 a) (Sm.next_int64 b)

(* ---- In-place label hashes ---- *)

(* The derivations are exact when every draw of the derived stream
   equals the one [of_label] gives on the formatted string. *)
let same_stream a b =
  List.init 4 (fun _ -> Sm.next_int64 a) = List.init 4 (fun _ -> Sm.next_int64 b)

let edge_ints =
  let pow10 = List.init 19 (fun k -> int_of_float (10. ** float_of_int k)) in
  [ 0; 1; -1; min_int; max_int; min_int + 1; max_int - 1 ]
  @ List.concat_map (fun p -> [ p; p - 1; p + 1; -p; -p - 1; -p + 1 ]) pow10

let label_prefixes =
  [ "ep-link-"; "ep-access-"; "ep-destnet-"; "access-base-"; "access-rate-"; "" ]

let test_label_int_edges () =
  let root = Sm.create 42 in
  List.iter
    (fun prefix ->
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "of_label_int %S %d" prefix n)
            true
            (same_stream
               (Sm.of_label_int root prefix n)
               (Sm.of_label root (prefix ^ string_of_int n))))
        edge_ints)
    label_prefixes

let test_label_int2_edges () =
  let root = Sm.create 7 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "of_label_int2 %d %d" a b)
            true
            (same_stream
               (Sm.of_label_int2 root "ep-link-" a b)
               (Sm.of_label root
                  ("ep-link-" ^ string_of_int a ^ "-" ^ string_of_int b))))
        edge_ints)
    edge_ints

let arb_int = QCheck.(oneof [ int; small_signed_int; oneofl edge_ints ])

let prop_label_int =
  QCheck.Test.make ~name:"of_label_int = of_label on the formatted string"
    ~count:2000
    QCheck.(triple small_int (oneofl label_prefixes) arb_int)
    (fun (seed, prefix, n) ->
      let root = Sm.create seed in
      same_stream
        (Sm.of_label_int root prefix n)
        (Sm.of_label root (prefix ^ string_of_int n)))

let prop_label_int2 =
  QCheck.Test.make ~name:"of_label_int2 = of_label on the formatted string"
    ~count:2000
    QCheck.(
      pair (pair small_int (oneofl [ "ep-link-"; "ep-access-"; "ep-destnet-" ]))
        (pair arb_int arb_int))
    (fun ((seed, prefix), (a, b)) ->
      let root = Sm.create seed in
      same_stream
        (Sm.of_label_int2 root prefix a b)
        (Sm.of_label root
           (prefix ^ string_of_int a ^ "-" ^ string_of_int b)))

(* ---- Distributions ---- *)

let mean_of f n rng =
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. f rng
  done;
  !sum /. float_of_int n

let test_uniform_bounds () =
  let rng = Sm.create 8 in
  for _ = 1 to 5000 do
    let v = Dist.uniform rng ~lo:2. ~hi:5. in
    Alcotest.(check bool) "in [2,5)" true (v >= 2. && v < 5.)
  done

let test_normal_moments () =
  let rng = Sm.create 9 in
  let m = mean_of (fun r -> Dist.normal r ~mean:10. ~std:2.) 50_000 rng in
  Alcotest.(check bool) "mean ~10" true (Float.abs (m -. 10.) < 0.1)

let test_lognormal_positive () =
  let rng = Sm.create 10 in
  for _ = 1 to 5000 do
    Alcotest.(check bool) "positive" true
      (Dist.lognormal rng ~mu:1. ~sigma:0.8 > 0.)
  done

let test_exponential_mean () =
  let rng = Sm.create 12 in
  let m = mean_of (fun r -> Dist.exponential r ~rate:0.5) 50_000 rng in
  Alcotest.(check bool) "mean ~2" true (Float.abs (m -. 2.) < 0.1)

let test_pareto_support () =
  let rng = Sm.create 13 in
  for _ = 1 to 5000 do
    Alcotest.(check bool) "above scale" true
      (Dist.pareto rng ~shape:2. ~scale:3. >= 3.)
  done

let test_poisson_mean () =
  let rng = Sm.create 14 in
  let m =
    mean_of (fun r -> float_of_int (Dist.poisson r ~mean:4.)) 20_000 rng
  in
  Alcotest.(check bool) "mean ~4" true (Float.abs (m -. 4.) < 0.15)

let test_poisson_large_mean () =
  let rng = Sm.create 15 in
  let m =
    mean_of (fun r -> float_of_int (Dist.poisson r ~mean:80.)) 5_000 rng
  in
  Alcotest.(check bool) "mean ~80 (normal approx)" true (Float.abs (m -. 80.) < 2.)

let test_poisson_zero () =
  let rng = Sm.create 16 in
  Alcotest.(check int) "mean 0 gives 0" 0 (Dist.poisson rng ~mean:0.)

let test_bernoulli_frequency () =
  let rng = Sm.create 17 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Dist.bernoulli rng ~p:0.3 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p ~0.3" true (Float.abs (f -. 0.3) < 0.01)

let test_zipf_weights_normalized () =
  let z = Dist.zipf_make ~n:100 ~s:1.1 in
  let total = ref 0. in
  for i = 0 to 99 do
    total := !total +. Dist.zipf_weight z i
  done;
  check_float "weights sum to 1" 1. !total

let test_zipf_rank_order () =
  let z = Dist.zipf_make ~n:50 ~s:1.2 in
  Alcotest.(check bool) "rank 0 most popular" true
    (Dist.zipf_weight z 0 > Dist.zipf_weight z 1);
  Alcotest.(check bool) "monotone" true
    (Dist.zipf_weight z 10 > Dist.zipf_weight z 40)

let test_zipf_sample_range () =
  let z = Dist.zipf_make ~n:20 ~s:1.0 in
  let rng = Sm.create 18 in
  for _ = 1 to 5000 do
    let v = Dist.zipf_sample z rng in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 20)
  done

let test_zipf_sample_skew () =
  let z = Dist.zipf_make ~n:100 ~s:1.3 in
  let rng = Sm.create 19 in
  let top = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Dist.zipf_sample z rng < 10 then incr top
  done;
  Alcotest.(check bool) "top-10 ranks dominate" true
    (float_of_int !top /. float_of_int n > 0.5)

let test_zipf_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Dist.zipf_make: n must be positive")
    (fun () -> ignore (Dist.zipf_make ~n:0 ~s:1.))

let test_categorical_respects_weights () =
  let rng = Sm.create 20 in
  let counts = Array.make 3 0 in
  let n = 30_000 in
  for _ = 1 to n do
    let i = Dist.categorical [| 1.; 2.; 7. |] rng in
    counts.(i) <- counts.(i) + 1
  done;
  let f i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "heaviest bucket wins" true (f 2 > 0.6 && f 2 < 0.8);
  Alcotest.(check bool) "lightest bucket rare" true (f 0 < 0.15)

let test_categorical_invalid () =
  let rng = Sm.create 21 in
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Dist.categorical: weights must sum > 0") (fun () ->
      ignore (Dist.categorical [| 0.; 0. |] rng))

let test_shuffle_permutation () =
  let rng = Sm.create 22 in
  let arr = Array.init 30 Fun.id in
  Dist.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 30 Fun.id) sorted

let test_sample_without_replacement_distinct () =
  let rng = Sm.create 23 in
  let arr = Array.init 50 Fun.id in
  let s = Dist.sample_without_replacement rng 20 arr in
  Alcotest.(check int) "20 elements" 20 (Array.length s);
  let module S = Set.Make (Int) in
  Alcotest.(check int) "all distinct" 20
    (S.cardinal (Array.fold_left (fun acc x -> S.add x acc) S.empty s))

let test_sample_clamps () =
  let rng = Sm.create 24 in
  let s = Dist.sample_without_replacement rng 10 [| 1; 2; 3 |] in
  Alcotest.(check int) "clamped to array length" 3 (Array.length s)

(* ---- qcheck properties ---- *)

let prop_next_int_in_range =
  QCheck.Test.make ~name:"next_int always in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Sm.create seed in
      let v = Sm.next_int rng bound in
      v >= 0 && v < bound)

let prop_float_in_unit =
  QCheck.Test.make ~name:"next_float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Sm.create seed in
      let f = Sm.next_float rng in
      f >= 0. && f < 1.)

let prop_shuffle_preserves =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Sm.create seed in
      let arr = Array.of_list l in
      Dist.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

(* The staged, bisecting [Dist.categorical] and the swap-logging
   [Dist.sample_without_replacement] against the straightforward forms
   in [Oracle], on equal rng streams: same results, and the streams
   end in the same state. *)

let same_stream a b = Sm.next_int64 a = Sm.next_int64 b

let weights_gen =
  let open QCheck.Gen in
  let weight = frequency [ (1, return 0.); (3, float_range 0.001 100.) ] in
  let ws =
    frequency
      [
        (3, array_size (int_range 1 12) weight);
        (1, array_size (int_range 200 400) weight);
        (* One positive weight among zeros. *)
        ( 1,
          int_range 1 40 >>= fun n ->
          int_range 0 (n - 1) >>= fun hot ->
          float_range 0.001 100. >|= fun w ->
          Array.init n (fun i -> if i = hot then w else 0.) );
      ]
  in
  ws >|= fun a ->
  if Array.exists (fun w -> w > 0.) a then a else Array.append a [| 1. |]

let prop_categorical_matches_oracle =
  QCheck.Test.make ~name:"categorical == linear-scan oracle" ~count:300
    QCheck.(pair small_int (make ~print:Print.(array float) weights_gen))
    (fun (seed, weights) ->
      let a = Sm.create seed and b = Sm.create seed in
      let sample = Dist.categorical weights in
      List.for_all
        (fun _ -> sample a = Oracle.categorical weights b)
        (List.init 64 Fun.id)
      && same_stream a b)

let prop_sample_matches_oracle =
  QCheck.Test.make
    ~name:"sample_without_replacement == copying oracle, k in 0..n+2"
    ~count:300
    QCheck.(pair small_int (list_of_size Gen.(int_range 0 60) small_int))
    (fun (seed, l) ->
      let arr = Array.of_list l in
      let n = Array.length arr in
      List.for_all
        (fun k ->
          let a = Sm.create (seed + k) and b = Sm.create (seed + k) in
          let got = Dist.sample_without_replacement a k arr in
          got = Oracle.sample_without_replacement b k arr
          && Array.to_list arr = l
          && same_stream a b)
        (List.init (n + 3) Fun.id))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy replays" `Quick test_copy_replays;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "next_int bounds" `Quick test_next_int_bounds;
    Alcotest.test_case "next_int invalid" `Quick test_next_int_rejects_nonpositive;
    Alcotest.test_case "next_int coverage" `Quick test_next_int_covers_all_values;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "label stability" `Quick test_label_stability;
    Alcotest.test_case "label distinct" `Quick test_label_distinct;
    Alcotest.test_case "label no advance" `Quick test_label_does_not_advance;
    Alcotest.test_case "label int edges" `Quick test_label_int_edges;
    Alcotest.test_case "label int2 edges" `Quick test_label_int2_edges;
    Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
    Alcotest.test_case "normal moments" `Quick test_normal_moments;
    Alcotest.test_case "lognormal positive" `Quick test_lognormal_positive;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "pareto support" `Quick test_pareto_support;
    Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
    Alcotest.test_case "poisson large mean" `Quick test_poisson_large_mean;
    Alcotest.test_case "poisson zero" `Quick test_poisson_zero;
    Alcotest.test_case "bernoulli frequency" `Quick test_bernoulli_frequency;
    Alcotest.test_case "zipf normalized" `Quick test_zipf_weights_normalized;
    Alcotest.test_case "zipf rank order" `Quick test_zipf_rank_order;
    Alcotest.test_case "zipf sample range" `Quick test_zipf_sample_range;
    Alcotest.test_case "zipf sample skew" `Quick test_zipf_sample_skew;
    Alcotest.test_case "zipf invalid" `Quick test_zipf_invalid;
    Alcotest.test_case "categorical weights" `Quick test_categorical_respects_weights;
    Alcotest.test_case "categorical invalid" `Quick test_categorical_invalid;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "sample distinct" `Quick test_sample_without_replacement_distinct;
    Alcotest.test_case "sample clamps" `Quick test_sample_clamps;
    QCheck_alcotest.to_alcotest prop_next_int_in_range;
    QCheck_alcotest.to_alcotest prop_float_in_unit;
    QCheck_alcotest.to_alcotest prop_shuffle_preserves;
    QCheck_alcotest.to_alcotest prop_categorical_matches_oracle;
    QCheck_alcotest.to_alcotest prop_sample_matches_oracle;
    QCheck_alcotest.to_alcotest prop_label_int;
    QCheck_alcotest.to_alcotest prop_label_int2;
  ]
