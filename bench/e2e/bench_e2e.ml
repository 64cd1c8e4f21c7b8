(* End-to-end benchmark harness.

     dune exec bench/e2e/bench_e2e.exe -- --workload W [--seed N]
       [--seconds S] [--trace 0|1]

   W is one of figures, scale, serve_hot, serve_cold, serve_churn (see
   README.md).  The untraced run prints every end-to-end metric; the
   traced run prints the per-layer metrics and writes
   bench_e2e_out/bench_trace_<W>.json plus a Perfetto trace.  Either
   way the last line of stdout is the JSON result.  The serve workloads
   re-execute this binary as `--daemon W`. *)

let usage () =
  Printf.eprintf
    "usage: bench_e2e --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n"
    (String.concat "|" Spec.workloads);
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with Some seed -> go { a with seed } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some seconds when seconds > 0. -> go { a with seconds } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--trace" :: rest -> go { a with trace = true } rest
    | _ -> usage ()
  in
  go { workload = ""; seed = 42; seconds = 16.; trace = false } argv

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--daemon"; w ] -> (
      match Serve_wl.of_name w with Some kind -> Serve_wl.daemon kind | None -> usage ())
  | argv ->
      let a = parse argv in
      (* A daemon that dies mid-write must not take the load generator
         with it; SIGTERM still runs at_exit, which reaps the daemon. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 1));
      let batch job =
        if a.trace then Batch_wl.traced job ~seed:a.seed ~seconds:a.seconds ~workload:a.workload
        else Batch_wl.untraced job ~seed:a.seed ~seconds:a.seconds
      in
      let verdict, rows =
        match (a.workload, Serve_wl.of_name a.workload) with
        | "figures", _ -> batch (Batch_wl.figures ~seed:a.seed)
        | "scale", _ -> batch (Batch_wl.scale ~seed:a.seed)
        | _, Some kind ->
            if a.trace then Serve_wl.traced kind ~seed:a.seed ~seconds:a.seconds
            else Serve_wl.untraced kind ~seed:a.seed ~seconds:a.seconds
        | _ -> usage ()
      in
      Report.finish ~workload:a.workload ~seed:a.seed ~trace:a.trace verdict rows
