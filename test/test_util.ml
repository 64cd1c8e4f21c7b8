(* Helpers shared across test modules: substring matching, a tiny JSON
   parser (to round-trip the Jsonx emitter), the routing digest used
   to compare BGP states, and the announcement shapes the propagation
   differentials vary over.  Keep test-only utilities here instead
   of re-declaring them per file. *)

module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Route = Netsim_bgp.Route
module Propagate = Netsim_bgp.Propagate
module Jsonx = Netsim_obs.Jsonx

(* The stdlib has no String.is_substring. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else begin
    let rec go i =
      if i + nn > nh then false
      else if String.sub haystack i nn = needle then true
      else go (i + 1)
    in
    go 0
  end

(* Routing digest: selection-relevant facts for every AS, rendered so
   mismatches show up as readable diffs. *)
let digest topo state =
  let buf = Buffer.create 256 in
  for asid = 0 to Topology.as_count topo - 1 do
    let best =
      match Propagate.best state asid with
      | Some (r : Route.t) ->
          Printf.sprintf "%d/%d/%d" r.Route.next_hop
            r.Route.via_link.Relation.id r.Route.path_len
      | None -> "-"
    in
    Buffer.add_string buf
      (Printf.sprintf "%d:%s:%s:%s\n" asid best
         (String.concat "." (List.map string_of_int (Propagate.as_path state asid)))
         (match Propagate.selected_class state asid with
         | Some k -> Route.klass_to_string k
         | None -> "-"))
  done;
  Buffer.contents buf

(* The announcement shapes the propagation differentials vary over,
   chosen by [cseed mod 4]: plain anycast, random withholding,
   prepending, and NO_EXPORT at the origin's first footprint metro. *)
let announce_shape topo origin cseed =
  let module Announce = Netsim_bgp.Announce in
  let base = Announce.default ~origin in
  let footprint = (Topology.asn topo origin).Netsim_topo.Asn.footprint in
  match cseed mod 4 with
  | 0 -> base
  | 1 ->
      let wrng = Netsim_prng.Splitmix.create cseed in
      Oracle.neighbors topo origin
      |> List.filter_map (fun (nb : Oracle.neighbor) ->
             if Netsim_prng.Dist.bernoulli wrng ~p:0.3 then
               Some nb.Oracle.link.Relation.id
             else None)
      |> Announce.withhold_links base
  | 2 ->
      Announce.prepend_at_metros base (Array.to_list footprint)
        (1 + (cseed / 4 mod 4))
  | _ -> Announce.no_export_at_metros base [ footprint.(0) ]

(* ---- a tiny JSON parser (test-only) to round-trip the emitter ---- *)

exception Parse_error of string

let parse_json (s : string) : Jsonx.t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
          | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
          | Some 'u' ->
              advance ();
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code = int_of_string ("0x" ^ hex) in
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let raw = String.sub s start (!pos - start) in
    match int_of_string_opt raw with
    | Some i -> Jsonx.Int i
    | None -> (
        match float_of_string_opt raw with
        | Some f -> Jsonx.Float f
        | None -> fail (Printf.sprintf "bad number %S" raw))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some 'n' -> literal "null" Jsonx.Null
    | Some 't' -> literal "true" (Jsonx.Bool true)
    | Some 'f' -> literal "false" (Jsonx.Bool false)
    | Some '"' -> Jsonx.String (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Jsonx.Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Jsonx.Arr (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Jsonx.Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                List.rev (kv :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Jsonx.Obj (fields [])
        end
    | _ -> fail "expected value"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v
