(* Result printing: notes, then a table of every metric by name with its
   value, unit, sample count and better direction, then the one-line
   JSON result as the last line of stdout:
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}. *)

module Jsonx = Netsim_obs.Jsonx

type row = { name : string; value : float; n : int; note : string }

let row ?(n = 1) ?(note = "") name value = { name; value; n; note }

type verdict = { attempted : int; failed : int; notes : string list }

let out_dir = "bench_e2e_out"

let find rows name = List.find_opt (fun r -> r.name = name) rows

(* A layer the workload never enters reads 0; the JSON has no nan. *)
let finite v = if Float.is_finite v then v else 0.

let value rows name = match find rows name with Some r -> finite r.value | None -> 0.

let print_rows specs rows =
  List.iter
    (fun (s : Spec.metric) ->
      match find rows s.Spec.name with
      | None -> ()
      | Some r ->
          Printf.printf "  %-30s %14.6g %-6s n=%-7d %-7s %s\n" s.Spec.name (finite r.value)
            s.Spec.unit_ r.n
            (Spec.better_to_string s.Spec.better)
            r.note)
    specs

let write_file path s =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* bench_e2e_out/bench_trace_<workload>.json: the per-layer numbers,
   the layer table and the span tree; plus the same span tree as a
   Perfetto trace. *)
let write_trace ~workload ~seed ~domains ~rows ~layer_rows =
  let num v = if Float.is_finite v then Jsonx.Float v else Jsonx.Null in
  let doc =
    Jsonx.Obj
      [
        ("workload", Jsonx.String workload);
        ("seed", Jsonx.Int seed);
        ("domains", Jsonx.Int domains);
        ( "metrics",
          Jsonx.Obj
            (List.map
               (fun r ->
                 (r.name, Jsonx.Obj [ ("value", num r.value); ("n", Jsonx.Int r.n) ]))
               rows) );
        ("layers", Jsonx.Obj (List.map (fun (l, v) -> (l, num v)) layer_rows));
        ("spans", Netsim_obs.Span.to_json ());
      ]
  in
  let base = Filename.concat out_dir ("bench_trace_" ^ workload) in
  write_file (base ^ ".json") (Jsonx.to_string doc ^ "\n");
  Netsim_obs.Export_trace.write (base ^ ".perfetto.json")

let finish ~workload ~seed ~trace (v : verdict) rows =
  let specs = if trace then Spec.per_layer else Spec.end_to_end in
  List.iter
    (fun (s : Spec.metric) ->
      if (not trace) && find rows s.Spec.name = None then
        failwith ("harness bug: end-to-end metric not measured: " ^ s.Spec.name))
    specs;
  Printf.printf "=== %s  seed %d  %s ===\n" workload seed
    (if trace then "traced run (per-layer)" else "end-to-end");
  List.iter (fun n -> Printf.printf "  %s\n" n) v.notes;
  Printf.printf "  %-30s %14s %-6s %-9s %-7s\n" "metric" "value" "unit" "samples" "better";
  print_rows specs rows;
  Printf.printf "  ops: %d attempted, %d failed -> %s\n" v.attempted v.failed
    (if v.failed = 0 then "PASS" else "FAIL");
  let metrics =
    List.map
      (fun (s : Spec.metric) ->
        ( s.Spec.name,
          Jsonx.Obj
            [ ("value", Jsonx.Float (value rows s.Spec.name)); ("unit", Jsonx.String s.Spec.unit_) ]
        ))
      specs
  in
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("correct", Jsonx.Bool (v.failed = 0));
            ("attempted", Jsonx.Int (max 1 v.attempted));
            ("failed", Jsonx.Int v.failed);
            ("metrics", Jsonx.Obj metrics);
          ]))
