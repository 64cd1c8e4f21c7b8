module Summary = Netsim_stats.Summary

let pf = Summary.pretty_float

let metrics_table () =
  let buf = Buffer.create 2048 in
  let counters = Metrics.counter_rows () in
  let hists = Metrics.histogram_rows () in
  if counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (n, v) ->
        Buffer.add_string buf (Printf.sprintf "  %-42s %12d\n" n v))
      counters
  end;
  if hists <> [] then begin
    Buffer.add_string buf "histograms:\n";
    List.iter
      (fun (r : Metrics.hist_row) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-42s %s p50=%s p90=%s p99=%s\n" r.Metrics.hr_name
             (Summary.one_line r.Metrics.hr_summary)
             (pf r.Metrics.hr_p50) (pf r.Metrics.hr_p90) (pf r.Metrics.hr_p99)))
      hists
  end;
  (let runtime = Metrics.runtime_rows () in
   if runtime <> [] then begin
     Buffer.add_string buf "runtime:\n";
     List.iter
       (fun (n, v) ->
         Buffer.add_string buf (Printf.sprintf "  %-42s %12s\n" n (pf v)))
       runtime
   end);
  if Buffer.length buf = 0 then "metrics: (none recorded)\n"
  else Buffer.contents buf

let render () =
  "=== trace (wall clock) ===\n" ^ Span.render ()
  ^ "=== metrics ===\n" ^ metrics_table ()

let to_json () =
  Jsonx.Obj [ ("metrics", Metrics.to_json ()); ("trace", Span.to_json ()) ]

(* All telemetry file outputs go through here so a bad --metrics-out /
   --trace / --event-log path fails with an actionable message instead
   of a raw Sys_error. *)
let write_text path content =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    failwith
      (Printf.sprintf "cannot write %s: directory %s does not exist" path dir);
  match open_out path with
  | exception Sys_error msg ->
      failwith (Printf.sprintf "cannot write %s: %s" path msg)
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc content)

let write_json path = write_text path (Jsonx.to_string (to_json ()) ^ "\n")

let reset () =
  Metrics.reset ();
  Span.reset ();
  Recorder.reset ()
