(* Prometheus text-exposition (v0.0.4) rendering of the metrics
   registry.  Counters become <name>_total counters, runtime samples
   become gauges, histograms become the cumulative
   _bucket/_sum/_count triple.  Metric names are sanitized to
   [a-zA-Z0-9_:] and prefixed "netsim_" so scrapes from several tools
   never collide. *)

let prefix = "netsim_"

let sanitize name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  let s = Bytes.to_string b in
  let s =
    if s = "" then "_"
    else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s
  in
  prefix ^ s

(* Prometheus floats: plain decimal or scientific, "+Inf" for the
   unbounded bucket.  %.12g round-trips every value we emit. *)
let num v =
  if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else Printf.sprintf "%.12g" v

let help_line buf name kind help =
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

let to_string () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let pname = sanitize name ^ "_total" in
      help_line buf pname "counter" (Printf.sprintf "Counter %s." name);
      Buffer.add_string buf (Printf.sprintf "%s %d\n" pname v))
    (Metrics.counter_rows ());
  List.iter
    (fun (name, v) ->
      let pname = sanitize name in
      help_line buf pname "gauge" (Printf.sprintf "Runtime sample %s." name);
      Buffer.add_string buf (Printf.sprintf "%s %s\n" pname (num v)))
    (Metrics.runtime_rows ());
  List.iter
    (fun (name, buckets, summary) ->
      let pname = sanitize name in
      help_line buf pname "histogram" (Printf.sprintf "Histogram %s." name);
      (* Cumulative buckets; skip empty inner deltas but always emit
         the +Inf bucket, whose count must equal _count.  A histogram
         with zero observations (or a bucket list without an explicit
         +Inf upper bound) must still produce the +Inf/_sum/_count
         triple, or the exposition fails to parse. *)
      let cum = ref 0 in
      let inf_emitted = ref false in
      List.iter
        (fun (upper, n) ->
          cum := !cum + n;
          if n > 0 || upper = infinity then begin
            if upper = infinity then inf_emitted := true;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" pname (num upper)
                 !cum)
          end)
        buckets;
      if not !inf_emitted then
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" pname !cum);
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %s\n" pname
           (num (Netsim_stats.Summary.total summary)));
      Buffer.add_string buf
        (Printf.sprintf "%s_count %d\n" pname
           (Netsim_stats.Summary.count summary)))
    (Metrics.histogram_export ());
  Buffer.contents buf

let write path = Report.write_text path (to_string ())
