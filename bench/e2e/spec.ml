(* The benchmark's vocabulary: workload names and every metric's name,
   unit and better direction.  BENCHMARK.json at the repository root
   carries the same tables plus the regression bounds; test_e2e fails
   when the two drift apart, so a claim that cites a name here cites
   what the harness measures. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m ?(better = Lower) name unit_ = { name; unit_; better }

let workloads = [ "figures"; "scale"; "serve_hot"; "serve_cold"; "serve_churn" ]

(* Printed by the untraced run of every workload.  An "op" is one pass
   of the 13 `beatbgp all` runners (figures), one Scale_sweep.run
   (scale) or one request (the serve workloads). *)
let end_to_end =
  [
    m "setup_s" "s";
    m "op_p50_ms" "ms";
    m ~better:Higher "throughput" "1/s";
    m "peak_rss_mb" "MB";
  ]

let handle_verbs = [ "catchment"; "rtt"; "egress"; "explain" ]

(* Printed by the traced run.  Times are per op unless the unit says
   otherwise; a layer the workload never enters reads 0. *)
let per_layer =
  [
    m "topo.generate_s" "s";
    m "cdn.build_s" "s";
    m "bgp.propagate_s" "s";
    m "bgp.propagate_calls" "count";
    m "bgp.ases_visited" "count";
    m "bgp.propagate_batch_s" "s";
    m "bgp.reconverge_s" "s";
    m "bgp.reconverge_dirty" "count";
    m ~better:Higher "bgp.rib_cache.hit_ratio" "ratio";
    m "bgp.rib_cache.misses" "count";
    m "latency.sample_s" "s";
    m "latency.rtt_samples" "count";
    m "latency.congestion_samples" "count";
    m "core.aggregate_s" "s";
    m "par.busy_s" "s";
    m "par.idle_s" "s";
    m "par.skew_s" "s";
    m "dynamics.advance_us.p50" "us";
    m "dynamics.advance_us.tail" "us";
    m "dynamics.events" "count";
    m "serve.parse_us" "us";
    m "serve.frame_us" "us";
  ]
  @ List.concat_map
      (fun v ->
        [
          m (Printf.sprintf "serve.handle.%s_us.p50" v) "us";
          m (Printf.sprintf "serve.handle.%s_us.tail" v) "us";
        ])
      handle_verbs
  @ [
      m "serve.executor_us" "us";
      m "serve.transport_us" "us";
      m "serve.open_p50_ms" "ms";
      m "serve.tail_ms" "ms";
      m "gc.minor_words_per_op" "words";
      m "gc.major_collections" "count";
      m "gc.heap_mb" "MB";
      m "unattributed_s" "s";
      m "trace_overhead_pct" "%";
      m "loadgen.late_ms" "ms";
    ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let better_to_string = function Lower -> "lower" | Higher -> "higher"
