(* Wall-clock span tree.  Repeated spans with the same name under the
   same parent are merged into one node (call count + accumulated
   time), which keeps per-prefix loops — e.g. one [bgp.propagate] per
   client AS — readable and bounds memory. *)

type node = {
  name : string;
  mutable calls : int;
  mutable total_ms : float;
  mutable children : node list;  (** newest first *)
  mutable counters : (string * int) list;
}

type info = {
  i_name : string;
  i_calls : int;
  i_total_ms : float;
  i_self_ms : float;
  i_counters : (string * int) list;
  i_children : info list;
}

let make_node name =
  { name; calls = 0; total_ms = 0.; children = []; counters = [] }

type frame = { node : node; start : float; snap : Metrics.snapshot }

(* The tree and the open-span stack are domain-local: the main domain
   owns the tree that [render]/[to_json] report on, while each pool
   task accumulates into its own scratch tree inside [capture] and
   the pool re-parents it under the fan-out span via [absorb]. *)
type dstate = { mutable root : node; mutable stack : frame list }

let dstate_key : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { root = make_node "root"; stack = [] })

let reset () =
  let st = Domain.DLS.get dstate_key in
  st.root <- make_node "root";
  st.stack <- []

let now_ms () = Unix.gettimeofday () *. 1000.

let find_child parent name =
  match List.find_opt (fun n -> n.name = name) parent.children with
  | Some n -> n
  | None ->
      let n = make_node name in
      parent.children <- n :: parent.children;
      n

(* Accumulate counter deltas into the node's running totals; both lists
   are sorted by name. *)
let merge_counters old deltas =
  let rec go a b =
    match (a, b) with
    | [], l | l, [] -> l
    | (ka, va) :: ra, (kb, vb) :: rb ->
        if ka = kb then (ka, va + vb) :: go ra rb
        else if ka < kb then (ka, va) :: go ra b
        else (kb, vb) :: go a rb
  in
  go old deltas

let with_ ~name f =
  if not (Metrics.enabled ()) then f ()
  else begin
    let st = Domain.DLS.get dstate_key in
    let parent = match st.stack with fr :: _ -> fr.node | [] -> st.root in
    let node = find_child parent name in
    let frame =
      { node; start = now_ms (); snap = Metrics.counter_snapshot () }
    in
    st.stack <- frame :: st.stack;
    Fun.protect
      ~finally:(fun () ->
        (match st.stack with
        | fr :: rest when fr == frame -> st.stack <- rest
        | _ -> st.stack <- []);
        node.calls <- node.calls + 1;
        node.total_ms <- node.total_ms +. (now_ms () -. frame.start);
        node.counters <-
          merge_counters node.counters (Metrics.counter_deltas frame.snap);
        (* Sample GC state at every span boundary (a no-op inside a
           capture: [absorb] samples for the task's spans instead). *)
        Metrics.sample_gc ())
      f
  end

let rec info_of n =
  let children = List.rev_map info_of n.children in
  let child_ms =
    List.fold_left (fun acc c -> acc +. c.i_total_ms) 0. children
  in
  {
    i_name = n.name;
    i_calls = n.calls;
    i_total_ms = n.total_ms;
    i_self_ms = Float.max 0. (n.total_ms -. child_ms);
    i_counters = n.counters;
    i_children = children;
  }

let tree () = List.rev_map info_of (Domain.DLS.get dstate_key).root.children

(* ---- capture / absorb ------------------------------------------------ *)

type captured = node

let capture f =
  let st = Domain.DLS.get dstate_key in
  let saved_root = st.root and saved_stack = st.stack in
  let fresh = make_node "root" in
  st.root <- fresh;
  st.stack <- [];
  let restore () =
    st.root <- saved_root;
    st.stack <- saved_stack
  in
  match f () with
  | v ->
      restore ();
      (v, fresh)
  | exception e ->
      restore ();
      raise e

let absorb cap =
  let st = Domain.DLS.get dstate_key in
  let parent = match st.stack with fr :: _ -> fr.node | [] -> st.root in
  let rec merge parent n =
    let dst = find_child parent n.name in
    dst.calls <- dst.calls + n.calls;
    dst.total_ms <- dst.total_ms +. n.total_ms;
    dst.counters <- merge_counters dst.counters n.counters;
    (* children is newest-first; merge oldest-first to reproduce the
       sequential creation order. *)
    List.iter (merge dst) (List.rev n.children)
  in
  List.iter (merge parent) (List.rev cap.children);
  (* The GC sample the captured span closes skipped. *)
  if cap.children <> [] then Metrics.sample_gc ()

let rec names_of acc i =
  let acc = if List.mem i.i_name acc then acc else i.i_name :: acc in
  List.fold_left names_of acc i.i_children

let span_names () = List.fold_left names_of [] (tree ()) |> List.rev

let render () =
  let buf = Buffer.create 2048 in
  let rec line depth i =
    let label = String.make (2 * depth) ' ' ^ i.i_name in
    Buffer.add_string buf
      (Printf.sprintf "  %-42s %6dx %10.1fms %10.1fms" label i.i_calls
         i.i_total_ms i.i_self_ms);
    if i.i_counters <> [] then begin
      Buffer.add_string buf "  [";
      List.iteri
        (fun k (n, v) ->
          if k > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf (Printf.sprintf "%s=%d" n v))
        i.i_counters;
      Buffer.add_char buf ']'
    end;
    Buffer.add_char buf '\n';
    List.iter (line (depth + 1)) i.i_children
  in
  match tree () with
  | [] -> "trace: (empty — was tracing enabled?)\n"
  | roots ->
      Buffer.add_string buf
        (Printf.sprintf "  %-42s %7s %12s %12s\n" "span" "calls" "total"
           "self");
      List.iter (line 0) roots;
      Buffer.contents buf

let rec json_of (i : info) =
  Jsonx.Obj
    [
      ("name", Jsonx.String i.i_name);
      ("calls", Jsonx.Int i.i_calls);
      ("total_ms", Jsonx.Float i.i_total_ms);
      ("self_ms", Jsonx.Float i.i_self_ms);
      ( "counters",
        Jsonx.Obj (List.map (fun (n, v) -> (n, Jsonx.Int v)) i.i_counters) );
      ("children", Jsonx.Arr (List.map json_of i.i_children));
    ]

let to_json () = Jsonx.Arr (List.map json_of (tree ()))
