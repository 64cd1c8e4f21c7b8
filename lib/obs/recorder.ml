(* Flight recorder: a bounded ring buffer of structured events.

   Every record site checks one boolean, so the disabled path costs a
   load + branch (same discipline as Metrics).  Events carry no wall
   clock by default — only simulation-deterministic fields — so the
   flushed JSONL is byte-identical run-to-run; setting NETSIM_EVENT_NS
   lets sites attach wall-clock nanoseconds at the price of that
   determinism.

   Domain safety mirrors Metrics: the ring is owned by the main
   domain, every pool task records into a domain-local capture buffer
   (part of its Capture.run) and Netsim_par.Pool.map absorbs the
   buffers in task-submission order, so the event sequence — including
   sequence numbers and ring drops — is identical for any
   NETSIM_DOMAINS. *)

type field =
  | I of string * int
  | F of string * float
  | S of string * string

type event = { e_kind : string; e_fields : field list }

let on =
  ref
    (match Sys.getenv_opt "NETSIM_EVENTS" with
    | None | Some "" | Some "0" | Some "false" -> false
    | Some _ -> true)

let set_enabled b = on := b
let enabled () = !on

let timing_ref =
  ref
    (match Sys.getenv_opt "NETSIM_EVENT_NS" with
    | None | Some "" | Some "0" | Some "false" -> false
    | Some _ -> true)

let timing () = !timing_ref
let set_timing b = timing_ref := b

(* ---- bounded ring ---------------------------------------------------- *)

let default_capacity = 1 lsl 17

let capacity_ref =
  ref
    (match Sys.getenv_opt "NETSIM_EVENT_CAP" with
    | None | Some "" -> default_capacity
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> n
        | Some _ | None ->
            Printf.eprintf "netsim: ignoring invalid NETSIM_EVENT_CAP=%S\n%!" s;
            default_capacity))

type ring = {
  mutable arr : event array;  (** [||] until the first append *)
  mutable head : int;  (** index of the oldest event *)
  mutable count : int;
  mutable appended : int;  (** total appends ever; seq of the next event *)
}

let ring = { arr = [||]; head = 0; count = 0; appended = 0 }

let capacity () = !capacity_ref

let reset () =
  ring.arr <- [||];
  ring.head <- 0;
  ring.count <- 0;
  ring.appended <- 0

let set_capacity n =
  capacity_ref := Stdlib.max 1 n;
  reset ()

let dummy = { e_kind = ""; e_fields = [] }

let append ev =
  let cap = !capacity_ref in
  if Array.length ring.arr = 0 then ring.arr <- Array.make cap dummy;
  if ring.count < cap then begin
    ring.arr.((ring.head + ring.count) mod cap) <- ev;
    ring.count <- ring.count + 1
  end
  else begin
    (* Full: overwrite the oldest (drop it). *)
    ring.arr.(ring.head) <- ev;
    ring.head <- (ring.head + 1) mod cap
  end;
  ring.appended <- ring.appended + 1

(* ---- domain-local capture buffers ------------------------------------ *)

type captured = event list  (** oldest first *)

let buffer_key : event list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let record ~kind fields =
  if !on then begin
    let ev = { e_kind = kind; e_fields = fields } in
    match Domain.DLS.get buffer_key with
    | None -> append ev
    | Some buf -> buf := ev :: !buf
  end

let capture f =
  let saved = Domain.DLS.get buffer_key in
  let buf = ref [] in
  Domain.DLS.set buffer_key (Some buf);
  match f () with
  | v ->
      Domain.DLS.set buffer_key saved;
      (v, List.rev !buf)
  | exception e ->
      Domain.DLS.set buffer_key saved;
      raise e

let absorb events =
  match Domain.DLS.get buffer_key with
  | None -> List.iter append events
  | Some buf -> buf := List.rev_append events !buf

(* ---- introspection / flush ------------------------------------------- *)

let size () = ring.count
let dropped () = ring.appended - ring.count

let events () =
  let base = ring.appended - ring.count in
  List.init ring.count (fun i ->
      let cap = Array.length ring.arr in
      (base + i, ring.arr.((ring.head + i) mod cap)))

let field_json = function
  | I (k, v) -> (k, Jsonx.Int v)
  | F (k, v) -> (k, Jsonx.Float v)
  | S (k, v) -> (k, Jsonx.String v)

let event_json seq ev =
  Jsonx.Obj
    (("seq", Jsonx.Int seq)
    :: ("kind", Jsonx.String ev.e_kind)
    :: List.map field_json ev.e_fields)

let schema = "beatbgp.events/1"

let to_jsonl () =
  let buf = Buffer.create 4096 in
  let header =
    Jsonx.Obj
      [
        ("schema", Jsonx.String schema);
        ("events", Jsonx.Int ring.count);
        ("dropped", Jsonx.Int (dropped ()));
        ("cap", Jsonx.Int !capacity_ref);
      ]
  in
  Buffer.add_string buf (Jsonx.to_string header);
  Buffer.add_char buf '\n';
  List.iter
    (fun (seq, ev) ->
      Buffer.add_string buf (Jsonx.to_string (event_json seq ev));
      Buffer.add_char buf '\n')
    (events ());
  Buffer.contents buf
