(* Each subsystem is captured only while its own switch is on, so with
   metrics and the recorder both off a task runs bare. *)

type t = {
  metrics : (Metrics.captured * Span.captured) option;
  events : Recorder.captured option;
}

let empty = { metrics = None; events = None }

let run f =
  let tracing = Metrics.enabled () and recording = Recorder.enabled () in
  if not (tracing || recording) then (f (), empty)
  else begin
    let traced () =
      if not tracing then (f (), None)
      else
        let (v, spans), m = Metrics.capture (fun () -> Span.capture f) in
        (v, Some (m, spans))
    in
    if not recording then
      let v, metrics = traced () in
      (v, { metrics; events = None })
    else
      let (v, metrics), events = Recorder.capture traced in
      (v, { metrics; events = Some events })
  end

(* Recorder events first: a pool task's own events must land before
   the evict events that [Rib_cache.absorb] emits afterwards while
   re-inserting the task's shard, the order a sequential run produces. *)
let absorb t =
  Option.iter Recorder.absorb t.events;
  Option.iter
    (fun (m, spans) ->
      Metrics.absorb m;
      Span.absorb spans)
    t.metrics
