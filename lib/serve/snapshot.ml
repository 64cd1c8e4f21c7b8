module Topology = Netsim_topo.Topology
module Asn = Netsim_topo.Asn
module Relation = Netsim_topo.Relation
module Prefix = Netsim_traffic.Prefix
module Event = Netsim_dynamics.Event

type rib = {
  rib_origin : int;
  rib_active : bool;
  rib_cust : int array;
  rib_peer : int array;
  rib_prov : int array;
}

type t = {
  git_sha : string;
  created_gen : int;
  seed : int;
  now_min : float;
  base : Topology.t;
  down_links : int list;
  asid : int;
  pops : int list;
  prefixes : Prefix.t array;
  ribs : rib list;
  pending : (float * Event.t) list;
  overlays : (int * float) list;
}

let magic = "BBGPSNAP"
let schema_version = 2

(* ---- writer ----------------------------------------------------------- *)

let w_u8 buf v = Buffer.add_uint8 buf (v land 0xff)
let w_i32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let w_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)
let w_f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let w_str buf s =
  w_i32 buf (String.length s);
  Buffer.add_string buf s

let klass_code = function
  | Asn.Tier1 -> 0
  | Asn.Transit -> 1
  | Asn.Eyeball -> 2
  | Asn.Stub -> 3
  | Asn.Content -> 4
  | Asn.Cloud -> 5

let kind_code = function
  | Relation.C2p -> 0
  | Relation.Peer_private -> 1
  | Relation.Peer_public -> 2

let w_event buf = function
  | Event.Link_down l ->
      w_u8 buf 0;
      w_i32 buf l
  | Event.Link_up l ->
      w_u8 buf 1;
      w_i32 buf l
  | Event.Link_flap { link_id; down_minutes } ->
      w_u8 buf 2;
      w_i32 buf link_id;
      w_f64 buf down_minutes
  | Event.Site_down { asid; metro } ->
      w_u8 buf 3;
      w_i32 buf asid;
      w_i32 buf metro
  | Event.Site_up { asid; metro } ->
      w_u8 buf 4;
      w_i32 buf asid;
      w_i32 buf metro
  | Event.Congestion_onset { link_id; extra_ms; duration_min } ->
      w_u8 buf 5;
      w_i32 buf link_id;
      w_f64 buf extra_ms;
      w_f64 buf duration_min
  | Event.Congestion_decay { link_id; extra_ms } ->
      w_u8 buf 6;
      w_i32 buf link_id;
      w_f64 buf extra_ms
  | Event.Withdraw_prefix { origin } ->
      w_u8 buf 7;
      w_i32 buf origin
  | Event.Reannounce_prefix { origin } ->
      w_u8 buf 8;
      w_i32 buf origin
  | Event.Measurement_tick { controller } ->
      w_u8 buf 9;
      w_i32 buf controller
  | Event.Mark s ->
      w_u8 buf 10;
      w_str buf s

(* The metadata block: everything small, stream-encoded. *)
let w_meta buf t =
  w_str buf t.git_sha;
  w_i64 buf t.created_gen;
  w_i64 buf t.seed;
  w_f64 buf t.now_min;
  let ases = Topology.ases t.base in
  w_i32 buf (Array.length ases);
  Array.iter
    (fun (a : Asn.t) ->
      w_u8 buf (klass_code a.Asn.klass);
      w_str buf a.Asn.name;
      w_i32 buf (Array.length a.Asn.footprint);
      Array.iter (fun m -> w_i32 buf m) a.Asn.footprint)
    ases;
  (* Dynamics state. *)
  w_i32 buf (List.length t.down_links);
  List.iter (fun l -> w_i32 buf l) t.down_links;
  (* Deployment metadata. *)
  w_i32 buf t.asid;
  w_i32 buf (List.length t.pops);
  List.iter (fun m -> w_i32 buf m) t.pops;
  w_i32 buf (Array.length t.prefixes);
  Array.iter
    (fun (p : Prefix.t) ->
      w_i32 buf p.Prefix.id;
      w_i32 buf p.Prefix.asid;
      w_i32 buf p.Prefix.city;
      w_f64 buf p.Prefix.weight)
    t.prefixes;
  (* RIB directory: the tables themselves live in the arena. *)
  w_i32 buf (List.length t.ribs);
  List.iter
    (fun r ->
      w_i32 buf r.rib_origin;
      w_u8 buf (if r.rib_active then 1 else 0))
    t.ribs;
  (* Pending timeline and congestion overlays. *)
  w_i32 buf (List.length t.pending);
  List.iter
    (fun (at, ev) ->
      w_f64 buf at;
      w_event buf ev)
    t.pending;
  w_i32 buf (List.length t.overlays);
  List.iter
    (fun (l, ms) ->
      w_i32 buf l;
      w_f64 buf ms)
    t.overlays

(* The schema puts every large flat array in an 8-aligned little-endian
   int64 "arena" directly addressable through Bigarray views, so
   [load] can [Unix.map_file] the sections instead of decoding a byte
   stream:

     header   magic | i32 version=2 | i64 meta_off | i32 n_sections
              | n_sections x (i64 byte_off, i64 elem_count)
     arena    consecutive 8-byte-element sections, in fixed order:
              csr_off (n+1) | csr_words | link_word | link_meta |
              link_cap | per tracked RIB: cust, peer, prov (n each)
     meta     at meta_off: git_sha, created_gen, seed, now_min, AS
              records, down links, asid, pops, prefixes, RIB
              directory (origin, active), pending timeline, overlays.
              The file ends exactly at the end of this block.

   link_word packs id | a<<21 | b<<41 (the same field widths as the
   CSR neighbor words); link_meta packs kind | metro<<2; link_cap is
   the float bits.  The header is 24 + 16*n_sections bytes, a
   multiple of 8, and every section holds 8-byte elements, so all
   sections stay 8-aligned with no padding. *)

let arena_counts t =
  let links = Topology.links t.base in
  let nl = Array.length links in
  [
    Array.length (Topology.csr_offsets t.base);
    Array.length (Topology.csr_words t.base);
    nl;
    nl;
    nl;
  ]
  @ List.concat_map
      (fun r ->
        [
          Array.length r.rib_cust; Array.length r.rib_peer;
          Array.length r.rib_prov;
        ])
      t.ribs

let to_bytes t =
  let links = Topology.links t.base in
  let counts = arena_counts t in
  let k = List.length counts in
  let header_len = 24 + (16 * k) in
  let meta_off = header_len + (8 * List.fold_left ( + ) 0 counts) in
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf magic;
  w_i32 buf schema_version;
  w_i64 buf meta_off;
  w_i32 buf k;
  let off = ref header_len in
  List.iter
    (fun c ->
      w_i64 buf !off;
      w_i64 buf c;
      off := !off + (8 * c))
    counts;
  (* Arena. *)
  Array.iter (fun v -> w_i64 buf v) (Topology.csr_offsets t.base);
  Array.iter (fun v -> w_i64 buf v) (Topology.csr_words t.base);
  Array.iter
    (fun (l : Relation.link) ->
      w_i64 buf (l.Relation.id lor (l.Relation.a lsl 21) lor (l.Relation.b lsl 41)))
    links;
  Array.iter
    (fun (l : Relation.link) ->
      w_i64 buf (kind_code l.Relation.kind lor (l.Relation.metro lsl 2)))
    links;
  Array.iter (fun (l : Relation.link) -> w_f64 buf l.Relation.capacity_gbps) links;
  List.iter
    (fun r ->
      Array.iter (fun v -> w_i64 buf v) r.rib_cust;
      Array.iter (fun v -> w_i64 buf v) r.rib_peer;
      Array.iter (fun v -> w_i64 buf v) r.rib_prov)
    t.ribs;
  assert (Buffer.length buf = meta_off);
  w_meta buf t;
  Buffer.contents buf

(* ---- reader ----------------------------------------------------------- *)

exception Corrupt of string

type reader = { data : string; mutable pos : int }

let need r n what =
  if n < 0 || r.pos + n > String.length r.data then
    raise (Corrupt (Printf.sprintf "truncated while reading %s" what))

let r_u8 r what =
  need r 1 what;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_i32 r what =
  need r 4 what;
  let v = Int32.to_int (String.get_int32_le r.data r.pos) in
  r.pos <- r.pos + 4;
  v

let r_i64 r what =
  need r 8 what;
  let v = Int64.to_int (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let r_f64 r what =
  need r 8 what;
  let v = Int64.float_of_bits (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let r_count r what =
  let n = r_i32 r what in
  if n < 0 || n > String.length r.data then
    raise (Corrupt (Printf.sprintf "implausible %s count %d" what n));
  n

let r_str r what =
  let n = r_count r (what ^ " length") in
  need r n what;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let klass_of_code what = function
  | 0 -> Asn.Tier1
  | 1 -> Asn.Transit
  | 2 -> Asn.Eyeball
  | 3 -> Asn.Stub
  | 4 -> Asn.Content
  | 5 -> Asn.Cloud
  | c -> raise (Corrupt (Printf.sprintf "%s: unknown AS class code %d" what c))

let kind_of_code what = function
  | 0 -> Relation.C2p
  | 1 -> Relation.Peer_private
  | 2 -> Relation.Peer_public
  | c -> raise (Corrupt (Printf.sprintf "%s: unknown link kind code %d" what c))

let r_event r =
  match r_u8 r "event tag" with
  | 0 -> Event.Link_down (r_i32 r "event link")
  | 1 -> Event.Link_up (r_i32 r "event link")
  | 2 ->
      let link_id = r_i32 r "event link" in
      let down_minutes = r_f64 r "event down-minutes" in
      Event.Link_flap { link_id; down_minutes }
  | 3 ->
      let asid = r_i32 r "event asid" in
      let metro = r_i32 r "event metro" in
      Event.Site_down { asid; metro }
  | 4 ->
      let asid = r_i32 r "event asid" in
      let metro = r_i32 r "event metro" in
      Event.Site_up { asid; metro }
  | 5 ->
      let link_id = r_i32 r "event link" in
      let extra_ms = r_f64 r "event extra-ms" in
      let duration_min = r_f64 r "event duration" in
      Event.Congestion_onset { link_id; extra_ms; duration_min }
  | 6 ->
      let link_id = r_i32 r "event link" in
      let extra_ms = r_f64 r "event extra-ms" in
      Event.Congestion_decay { link_id; extra_ms }
  | 7 -> Event.Withdraw_prefix { origin = r_i32 r "event origin" }
  | 8 -> Event.Reannounce_prefix { origin = r_i32 r "event origin" }
  | 9 -> Event.Measurement_tick { controller = r_i32 r "event controller" }
  | 10 -> Event.Mark (r_str r "event mark")
  | tag -> raise (Corrupt (Printf.sprintf "unknown event tag %d" tag))

let check_no_trailing r what =
  if r.pos <> String.length r.data then
    raise
      (Corrupt
         (Printf.sprintf "%d trailing byte(s) after %s"
            (String.length r.data - r.pos)
            what))

(* A decode source: random access into the file, either over an
   in-memory string (of_bytes, and the corrupt-rejection tests) or
   over an open fd whose arena sections are pulled through
   [Unix.map_file] Bigarray views (the fast [load] path).  Every
   accessor bounds-checks and raises [Corrupt] — never a signal or an
   uncaught [Unix_error]. *)
type source = {
  src_len : int;
  src_sub : pos:int -> len:int -> what:string -> string;
  src_ints : pos:int -> count:int -> what:string -> int array;
  src_floats : pos:int -> count:int -> what:string -> float array;
}

let string_source data =
  let len = String.length data in
  let check ~pos ~bytes ~what =
    if pos < 0 || bytes < 0 || pos + bytes > len then
      raise (Corrupt (Printf.sprintf "truncated while reading %s" what))
  in
  {
    src_len = len;
    src_sub =
      (fun ~pos ~len:l ~what ->
        check ~pos ~bytes:l ~what;
        String.sub data pos l);
    src_ints =
      (fun ~pos ~count ~what ->
        check ~pos ~bytes:(8 * count) ~what;
        Array.init count (fun i ->
            Int64.to_int (String.get_int64_le data (pos + (8 * i)))));
    src_floats =
      (fun ~pos ~count ~what ->
        check ~pos ~bytes:(8 * count) ~what;
        Array.init count (fun i ->
            Int64.float_of_bits (String.get_int64_le data (pos + (8 * i)))));
  }

let really_pread fd ~pos ~len ~what =
  match Unix.lseek fd pos Unix.SEEK_SET with
  | exception Unix.Unix_error _ ->
      raise (Corrupt (Printf.sprintf "truncated while reading %s" what))
  | _ ->
      let b = Bytes.create len in
      let rec go off =
        if off < len then
          match Unix.read fd b off (len - off) with
          | 0 ->
              raise
                (Corrupt (Printf.sprintf "truncated while reading %s" what))
          | n -> go (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception Unix.Unix_error (e, _, _) ->
              raise
                (Corrupt
                   (Printf.sprintf "cannot read %s: %s" what
                      (Unix.error_message e)))
      in
      go 0;
      Bytes.unsafe_to_string b

let fd_source fd len =
  let check ~pos ~bytes ~what =
    if pos < 0 || bytes < 0 || pos + bytes > len then
      raise (Corrupt (Printf.sprintf "truncated while reading %s" what))
  in
  let map kind ~pos ~count ~what =
    check ~pos ~bytes:(8 * count) ~what;
    try
      Unix.map_file fd ~pos:(Int64.of_int pos) kind Bigarray.c_layout false
        [| count |]
      |> Bigarray.array1_of_genarray
    with Unix.Unix_error _ | Sys_error _ ->
      raise (Corrupt (Printf.sprintf "cannot map %s" what))
  in
  {
    src_len = len;
    src_sub =
      (fun ~pos ~len:l ~what ->
        check ~pos ~bytes:l ~what;
        really_pread fd ~pos ~len:l ~what);
    src_ints =
      (fun ~pos ~count ~what ->
        if count = 0 then [||]
        else begin
          let view = map Bigarray.int64 ~pos ~count ~what in
          let a = Array.make count 0 in
          for i = 0 to count - 1 do
            a.(i) <- Int64.to_int (Bigarray.Array1.unsafe_get view i)
          done;
          a
        end);
    src_floats =
      (fun ~pos ~count ~what ->
        if count = 0 then [||]
        else begin
          let view = map Bigarray.float64 ~pos ~count ~what in
          let a = Array.make count 0. in
          for i = 0 to count - 1 do
            a.(i) <- Bigarray.Array1.unsafe_get view i
          done;
          a
        end);
  }

(* Field widths of the packed link words (mirroring the CSR
   neighbor word layout). *)
let lw_id w = w land 0x1F_FFFF
let lw_a w = (w lsr 21) land 0xF_FFFF
let lw_b w = (w lsr 41) land 0xF_FFFF

let decode src =
  let m = src.src_sub ~pos:0 ~len:(String.length magic) ~what:"magic" in
  if m <> magic then
    raise
      (Corrupt
         (Printf.sprintf "bad magic %S (not a beatbgp snapshot, expected %S)" m
            magic));
  let version =
    Int32.to_int
      (String.get_int32_le
         (src.src_sub ~pos:(String.length magic) ~len:4 ~what:"schema version")
         0)
  in
  if version <> schema_version then
    raise
      (Corrupt
         (Printf.sprintf
            "unsupported snapshot schema version %d (this build reads version \
             %d)"
            version schema_version));
  let hdr = src.src_sub ~pos:0 ~len:24 ~what:"header" in
  let r = { data = hdr; pos = String.length magic + 4 } in
  let meta_off = r_i64 r "metadata offset" in
  let n_sections = r_i32 r "section count" in
  if n_sections < 5 || (n_sections - 5) mod 3 <> 0 then
    raise (Corrupt (Printf.sprintf "implausible section count %d" n_sections));
  let header_end = 24 + (16 * n_sections) in
  if meta_off < header_end || meta_off > src.src_len then
    raise (Corrupt "metadata offset out of range");
  let tr =
    { data = src.src_sub ~pos:24 ~len:(16 * n_sections) ~what:"section table";
      pos = 0 }
  in
  let sections =
    Array.init n_sections (fun _ ->
        let off = r_i64 tr "section offset" in
        let count = r_i64 tr "section length" in
        (off, count))
  in
  (* The sections must tile [header_end, meta_off) exactly, in order —
     anything else is corruption, and the bound also rules out
     overflowing Bigarray dimensions below. *)
  let expect = ref header_end in
  Array.iter
    (fun (off, count) ->
      if count < 0 || count > src.src_len then
        raise (Corrupt (Printf.sprintf "implausible section length %d" count));
      if off <> !expect || off + (8 * count) > meta_off then
        raise (Corrupt "section table does not tile the arena");
      expect := off + (8 * count))
    sections;
  if !expect <> meta_off then
    raise (Corrupt "arena does not end at the metadata offset");
  (* Metadata block: everything small lives here, stream-decoded from
     the heap. *)
  let r =
    {
      data =
        src.src_sub ~pos:meta_off ~len:(src.src_len - meta_off)
          ~what:"metadata block";
      pos = 0;
    }
  in
  let git_sha = r_str r "git sha" in
  let created_gen = r_i64 r "generation stamp" in
  let seed = r_i64 r "seed" in
  let now_min = r_f64 r "clock" in
  let n_ases = r_count r "AS" in
  let ases =
    Array.init n_ases (fun id ->
        let klass = klass_of_code "AS record" (r_u8 r "AS class") in
        let name = r_str r "AS name" in
        let n_fp = r_count r "footprint" in
        let footprint = Array.init n_fp (fun _ -> r_i32 r "footprint metro") in
        { Asn.id; klass; name; footprint })
  in
  let n_down = r_count r "down link" in
  let down_links = List.init n_down (fun _ -> r_i32 r "down link id") in
  let asid = r_i32 r "provider asid" in
  let n_pops = r_count r "PoP" in
  let pops = List.init n_pops (fun _ -> r_i32 r "PoP metro") in
  let n_prefixes = r_count r "prefix" in
  let prefixes =
    Array.init n_prefixes (fun _ ->
        let id = r_i32 r "prefix id" in
        let asid = r_i32 r "prefix asid" in
        let city = r_i32 r "prefix city" in
        let weight = r_f64 r "prefix weight" in
        { Prefix.id; asid; city; weight })
  in
  let n_ribs = r_count r "RIB" in
  if n_ribs <> (n_sections - 5) / 3 then
    raise (Corrupt "RIB directory disagrees with the section table");
  let rib_dir =
    List.init n_ribs (fun _ ->
        let origin = r_i32 r "RIB origin" in
        let active = r_u8 r "RIB active flag" <> 0 in
        (origin, active))
  in
  let n_pending = r_count r "pending event" in
  let pending =
    List.init n_pending (fun _ ->
        let at = r_f64 r "event time" in
        let ev = r_event r in
        (at, ev))
  in
  let n_overlays = r_count r "congestion overlay" in
  let overlays =
    List.init n_overlays (fun _ ->
        let l = r_i32 r "overlay link" in
        let ms = r_f64 r "overlay ms" in
        (l, ms))
  in
  check_no_trailing r "snapshot metadata";
  (* Arena sections. *)
  let ints i what =
    let off, count = sections.(i) in
    src.src_ints ~pos:off ~count ~what
  in
  let floats i what =
    let off, count = sections.(i) in
    src.src_floats ~pos:off ~count ~what
  in
  let csr_off = ints 0 "CSR offsets" in
  let csr_words = ints 1 "CSR words" in
  let link_word = ints 2 "link words" in
  let link_meta = ints 3 "link metadata" in
  let link_cap = floats 4 "link capacities" in
  let n_links = Array.length link_word in
  if Array.length link_meta <> n_links || Array.length link_cap <> n_links
  then raise (Corrupt "link section lengths disagree");
  let links =
    Array.init n_links (fun i ->
        let w = link_word.(i) and m = link_meta.(i) in
        if w < 0 || w lsr 61 <> 0 then
          raise (Corrupt "link word out of range");
        if m < 0 then raise (Corrupt "link metadata out of range");
        let kind = kind_of_code "link record" (m land 3) in
        {
          Relation.id = lw_id w;
          a = lw_a w;
          b = lw_b w;
          kind;
          metro = m lsr 2;
          capacity_gbps = link_cap.(i);
        })
  in
  let base =
    try Topology.of_csr ~ases ~links ~csr_off ~csr_words
    with Invalid_argument msg -> raise (Corrupt msg)
  in
  let n = Array.length ases in
  let ribs =
    List.mapi
      (fun i (rib_origin, rib_active) ->
        let rib_cust = ints (5 + (3 * i)) "customer table" in
        let rib_peer = ints (6 + (3 * i)) "peer table" in
        let rib_prov = ints (7 + (3 * i)) "provider table" in
        if
          Array.length rib_cust <> n
          || Array.length rib_peer <> n
          || Array.length rib_prov <> n
        then raise (Corrupt "RIB table length <> AS count");
        { rib_origin; rib_active; rib_cust; rib_peer; rib_prov })
      rib_dir
  in
  {
    git_sha;
    created_gen;
    seed;
    now_min;
    base;
    down_links;
    asid;
    pops;
    prefixes;
    ribs;
    pending;
    overlays;
  }

let of_bytes data =
  try Ok (decode (string_source data))
  with Corrupt msg -> Error ("snapshot: " ^ msg)

let save t ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_bytes t))

let load ~path =
  if not (Sys.file_exists path) then Error (path ^ ": no such file")
  else begin
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error (e, _, _) ->
        Error (path ^ ": " ^ Unix.error_message e)
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            (* Zero-copy path: arena sections are mmapped in place and
               bulk-blitted; only the small metadata block is
               byte-decoded. *)
            try Ok (decode (fd_source fd (Unix.fstat fd).Unix.st_size))
            with Corrupt msg -> Error ("snapshot: " ^ msg))
  end
