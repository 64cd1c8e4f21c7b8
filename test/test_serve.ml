(* The serve subsystem: protocol totality (malformed queries, unknown
   ids, oversized lines and EOF mid-request become framed protocol
   errors, never exceptions), snapshot codec round-trips and rejection
   of corrupt input, and the load-path equivalence property — a
   snapshot-loaded server answers a request stream byte-identically to
   the seed-built server it was saved from, churn included. *)

module Protocol = Netsim_serve.Protocol
module Snapshot = Netsim_serve.Snapshot
module Server = Netsim_serve.Server
module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Rib_cache = Netsim_bgp.Rib_cache
module Engine = Netsim_dynamics.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* One shared small server for the query tests (building is the
   expensive part; queries don't mutate routing unless time advances). *)
let server =
  lazy (Server.build { Server.small_config with Server.n_prefixes = 30 })

(* ---- protocol --------------------------------------------------------- *)

let test_parse_ok () =
  let cases =
    [
      ("CATCHMENT 3", Protocol.Catchment "3");
      ("catchment 3", Protocol.Catchment "3");
      ("  EGRESS   94  ", Protocol.Egress 94);
      ("RTT 2 anycast", Protocol.Rtt ("2", "anycast"));
      ("EXPLAIN anycast 39", Protocol.Explain ("anycast", "39"));
      ("explain 0 50", Protocol.Explain ("0", "50"));
      ("STATS", Protocol.Stats);
      ("SNAPSHOT /tmp/x.bin", Protocol.Snapshot_to "/tmp/x.bin");
      ("PROM", Protocol.Prom);
      ("ADVANCE 12.5", Protocol.Advance 12.5);
      ("QUIT", Protocol.Quit);
      ("QUIT\r", Protocol.Quit);
    ]
  in
  List.iter
    (fun (line, want) ->
      match Protocol.parse line with
      | Ok got -> check line true (got = want)
      | Error e -> Alcotest.failf "%s: unexpected parse error %s" line e)
    cases

let test_parse_errors () =
  let cases =
    [
      "";
      "   ";
      "BOGUS";
      "CATCHMENT";
      "CATCHMENT 1 2";
      "EGRESS notanumber";
      "RTT 1";
      "RTT";
      "EXPLAIN";
      "EXPLAIN anycast";
      "EXPLAIN anycast 1 2";
      "ADVANCE nan";
      "ADVANCE -5";
      "ADVANCE";
      "STATS now";
      "QUIT please";
      String.make (Protocol.max_line + 1) 'A';
    ]
  in
  List.iter
    (fun line ->
      match Protocol.parse line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S: expected a parse error" line)
    cases

let test_frame () =
  check_str "ok frame" "OK 5\nhello\n" (Protocol.frame ~ok:true "hello");
  check_str "err frame" "ERR 3\nbad\n" (Protocol.frame ~ok:false "bad");
  check_str "empty body" "OK 0\n\n" (Protocol.frame ~ok:true "")

(* ---- query totality --------------------------------------------------- *)

let framed_err s = String.length s > 4 && String.sub s 0 4 = "ERR "
let framed_ok s = String.length s > 3 && String.sub s 0 3 = "OK "

let contains ~needle hay =
  let n = String.length hay and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
  scan 0

let test_unknown_ids () =
  let t = Lazy.force server in
  let errs =
    [
      "CATCHMENT 99999";
      "CATCHMENT -1";
      "CATCHMENT notanumber";
      "EGRESS 100000";
      "RTT 99999 anycast";
      "RTT 0 notanumber";
      "EXPLAIN anycast 99999";
      "EXPLAIN anycast notanumber";
      "EXPLAIN 99999 3";
      "SNAPSHOT /nonexistent-dir/deep/x.bin";
    ]
  in
  List.iter
    (fun line ->
      let resp, cont = Server.handle_line t line in
      check (line ^ " keeps serving") true cont;
      check (line ^ " is a framed error") true (framed_err resp))
    errs;
  (* And the server still answers real queries afterwards. *)
  let resp, cont = Server.handle_line t "CATCHMENT 0" in
  check "still alive" true (cont && framed_ok resp)

let test_untracked_origin () =
  let t = Lazy.force server in
  (* AS 0 is a Tier-1 in every generated Internet: a valid AS id, but
     never a tracked origin — must be a clean error, not a crash. *)
  let resp, _ = Server.handle_line t "RTT 0 0" in
  check "untracked origin is a framed error" true (framed_err resp)

let test_explain () =
  let t = Lazy.force server in
  (* A well-formed EXPLAIN answers OK with the full decision chain. *)
  let resp, cont = Server.handle_line t "EXPLAIN anycast 39" in
  check "explain keeps serving" true cont;
  check "explain is framed ok" true (framed_ok resp);
  List.iter
    (fun needle ->
      check ("body mentions " ^ needle) true (contains ~needle resp))
    [
      "explain prefix=anycast"; "selected:"; "phase:"; "candidates:";
      "tie-break:"; "runner-up:"; "counterfactual:";
    ];
  (* A client-prefix destination works too, and Server.explain (the
     function the CLI calls) returns exactly the framed body. *)
  (match Server.explain t "0" "50" with
  | Error e -> Alcotest.failf "explain 0 50: %s" e
  | Ok body ->
      let resp2, _ = Server.handle_line t "EXPLAIN 0 50" in
      check_str "CLI body equals serve body" (Protocol.frame ~ok:true body)
        resp2);
  (* The origin cannot explain a route to itself. *)
  let provider = string_of_int (Server.provider t) in
  let resp3, _ = Server.handle_line t ("EXPLAIN anycast " ^ provider) in
  check "origin itself is a framed error" true (framed_err resp3)

let test_provenance_jsonl () =
  let t = Lazy.force server in
  let out = Server.provenance_jsonl t ~origin:(Server.provider t) in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  (match lines with
  | header :: _ ->
      check "header carries the schema" true
        (contains ~needle:Netsim_obs.Provenance.schema header)
  | [] -> Alcotest.fail "empty provenance dump");
  (* One record per non-origin AS (the small Internet is connected). *)
  let n =
    Topology.as_count (Engine.topology (Server.engine t))
  in
  check_int "one record per decided AS" n (List.length lines)

let test_never_raises () =
  let t = Lazy.force server in
  let junk =
    [
      "\000\001\002";
      "CATCHMENT \xff\xfe";
      String.make Protocol.max_line 'Z';
      "EGRESS 9223372036854775807";
      "ADVANCE 1e308";
      "RTT -1 -1";
    ]
  in
  List.iter
    (fun line ->
      let resp, cont = Server.handle_line t line in
      check "framed" true (framed_ok resp || framed_err resp);
      check "keeps serving" true cont)
    junk

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc data)

(* Serve [input] through Server.serve_fds over temp-file fds (the
   stdin mode of `beatbgp serve`) and return everything it wrote. *)
let serve_fds_transcript t input =
  let in_path = Filename.temp_file "serve_in" ".txt" in
  let out_path = Filename.temp_file "serve_out" ".txt" in
  write_file in_path input;
  let ifd = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let ofd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  Server.serve_fds t ~input:ifd ~output:ofd;
  Unix.close ifd;
  Unix.close ofd;
  let out = read_file out_path in
  Sys.remove in_path;
  Sys.remove out_path;
  out

let test_eof_mid_request () =
  (* A client that dies mid-line: the partial line arrives without a
     newline, must be answered as a protocol error, and the loop must
     end cleanly on EOF. *)
  let out = serve_fds_transcript (Lazy.force server) "STATS\nCATCH" in
  check "first response ok" true (framed_ok out);
  check "partial line answered as protocol error" true
    (contains ~needle:"\nERR " out);
  check "response stream newline-terminated" true
    (String.length out > 0 && out.[String.length out - 1] = '\n')

(* Stdin mode is one connection of the round executor: on the smoke
   query file (churn, barriers, SNAPSHOT, QUIT) it must answer
   byte-identically to the sequential handle_line reference, at any
   domain count. *)
let test_stdin_matches_handle_line () =
  let queries = read_file "golden/serve_smoke_queries.txt" in
  let cfg = { Server.small_config with Server.churn = true } in
  let oracle =
    Rib_cache.capture (Rib_cache.fresh_shard ()) (fun () ->
        let t = Server.build cfg in
        let rec go acc = function
          | [] -> acc
          | line :: rest ->
              let resp, cont = Server.handle_line t line in
              if cont then go (resp :: acc) rest else resp :: acc
        in
        String.concat "" (List.rev (go [] (String.split_on_char '\n' queries))))
  in
  let saved = Netsim_par.Pool.domain_count () in
  Fun.protect
    ~finally:(fun () -> Netsim_par.Pool.set_domain_count saved)
    (fun () ->
      List.iter
        (fun domains ->
          Netsim_par.Pool.set_domain_count domains;
          let got =
            Rib_cache.capture (Rib_cache.fresh_shard ()) (fun () ->
                serve_fds_transcript (Server.build cfg) queries)
          in
          check_str
            (Printf.sprintf "stdin at %d domains equals handle_line" domains)
            oracle got)
        [ 1; 4 ])

(* ---- snapshot codec --------------------------------------------------- *)

let small_snapshot =
  lazy
    (let cfg = { Server.small_config with Server.n_prefixes = 30; churn = true } in
     Server.snapshot (Server.build cfg))

let test_roundtrip_bytes () =
  let snap = Lazy.force small_snapshot in
  let bytes = Snapshot.to_bytes snap in
  match Snapshot.of_bytes bytes with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok snap2 ->
      check_str "re-encode is byte-identical" bytes (Snapshot.to_bytes snap2);
      check_int "as count survives"
        (Topology.as_count snap.Snapshot.base)
        (Topology.as_count snap2.Snapshot.base);
      check_int "link count survives"
        (Topology.link_count snap.Snapshot.base)
        (Topology.link_count snap2.Snapshot.base);
      check "pending timeline survives" true
        (snap.Snapshot.pending = snap2.Snapshot.pending);
      check "prefixes survive" true
        (snap.Snapshot.prefixes = snap2.Snapshot.prefixes)

let test_roundtrip_file () =
  let snap = Lazy.force small_snapshot in
  let path = Filename.temp_file "snap" ".bin" in
  Snapshot.save snap ~path;
  (match Snapshot.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok snap2 ->
      check_str "file round-trip byte-identical" (Snapshot.to_bytes snap)
        (Snapshot.to_bytes snap2));
  Sys.remove path;
  (match Snapshot.load ~path with
  | Error e -> check "missing file is a clear error" true (e <> "")
  | Ok _ -> Alcotest.fail "loading a deleted file succeeded");
  match Snapshot.load ~path:(Filename.get_temp_dir_name ()) with
  | Error e -> check "a directory is a clear error" true (e <> "")
  | Ok _ -> Alcotest.fail "loading a directory succeeded"

let expect_error what = function
  | Error msg -> check (what ^ " mentions snapshot") true (msg <> "")
  | Ok _ -> Alcotest.failf "%s: decode unexpectedly succeeded" what

(* A provider table in which two ASes name each other as parent would
   send every path walk through them into an endless loop; loading it
   must fail up front instead. *)
let test_of_snapshot_rejects_cyclic_rib () =
  let snap = Lazy.force small_snapshot in
  let rib = List.hd snap.Snapshot.ribs in
  let origin = rib.Snapshot.rib_origin in
  let link =
    Array.to_list (Topology.links snap.Snapshot.base)
    |> List.find (fun (l : Relation.link) ->
           l.Relation.kind = Relation.C2p
           && l.Relation.a <> origin
           && l.Relation.b <> origin
           && not (List.mem l.Relation.id snap.Snapshot.down_links))
  in
  let x = link.Relation.a and y = link.Relation.b in
  (* The packed entry layout of Propagate.rib_arrays. *)
  let entry ~parent =
    (5 lsl 42) lor (parent lsl 22) lor (link.Relation.id lsl 1)
  in
  let cust = Array.copy rib.Snapshot.rib_cust
  and peer = Array.copy rib.Snapshot.rib_peer
  and prov = Array.copy rib.Snapshot.rib_prov in
  List.iter
    (fun a ->
      cust.(a) <- -1;
      peer.(a) <- -1)
    [ x; y ];
  prov.(x) <- entry ~parent:y;
  prov.(y) <- entry ~parent:x;
  let rib =
    { rib with Snapshot.rib_cust = cust; rib_peer = peer; rib_prov = prov }
  in
  let snap = { snap with Snapshot.ribs = rib :: List.tl snap.Snapshot.ribs } in
  let cfg = { Server.small_config with Server.n_prefixes = 30; churn = true } in
  match Server.of_snapshot cfg snap with
  | Error e -> check "error names the routing table" true (e <> "")
  | Ok _ -> Alcotest.fail "cyclic provider table accepted"

let test_roundtrip_bytes_v2 () =
  let snap = Lazy.force small_snapshot in
  let bytes = Snapshot.to_bytes snap in
  (* The header the mmap loader relies on: version 2, a metadata
     offset inside the file, and 8-aligned arena sections. *)
  check_int "schema version field" 2
    (Int32.to_int (String.get_int32_le bytes 8));
  let meta_off = Int64.to_int (String.get_int64_le bytes 12) in
  check "metadata block inside the file" true
    (meta_off > 0 && meta_off < String.length bytes);
  for i = 0 to Int32.to_int (String.get_int32_le bytes 20) - 1 do
    check "section 8-aligned" true
      (Int64.to_int (String.get_int64_le bytes (24 + (16 * i))) mod 8 = 0)
  done;
  match Snapshot.of_bytes bytes with
  | Error e -> Alcotest.failf "v2 round-trip failed: %s" e
  | Ok snap2 ->
      check_str "v2 re-encode is byte-identical" bytes (Snapshot.to_bytes snap2)

let test_roundtrip_file_v2 () =
  let snap = Lazy.force small_snapshot in
  let path = Filename.temp_file "snap_v2" ".bin" in
  Snapshot.save snap ~path;
  check_str "save writes to_bytes" (Snapshot.to_bytes snap) (read_file path);
  (match Snapshot.load ~path with
  | Error e -> Alcotest.failf "v2 load failed: %s" e
  | Ok snap2 ->
      check_str "v2 mmap load round-trips byte-identically"
        (Snapshot.to_bytes snap) (Snapshot.to_bytes snap2));
  Sys.remove path

(* Files written at schema v1 by earlier builds are refused with an
   error naming the version, through both decoders — never decoded
   as v2 and never an exception. *)
let test_v1_files_rejected () =
  let v1 = Bytes.of_string (Snapshot.to_bytes (Lazy.force small_snapshot)) in
  Bytes.set_int32_le v1 8 1l;
  let v1 = Bytes.to_string v1 in
  let names_v1 what = function
    | Error msg ->
        check (what ^ " names version 1") true
          (contains ~needle:"version 1" msg)
    | Ok _ -> Alcotest.failf "%s: v1 file accepted" what
  in
  names_v1 "of_bytes" (Snapshot.of_bytes v1);
  names_v1 "of_bytes, bare header" (Snapshot.of_bytes (String.sub v1 0 12));
  let path = Filename.temp_file "snap_v1" ".bin" in
  write_file path v1;
  names_v1 "load" (Snapshot.load ~path);
  Sys.remove path

let test_rejects_corrupt () =
  let bytes = Snapshot.to_bytes (Lazy.force small_snapshot) in
  (* Wrong magic. *)
  (match
     Snapshot.of_bytes ("XXXXXXXX" ^ String.sub bytes 8 (String.length bytes - 8))
   with
  | Error msg -> check "magic named in error" true (contains ~needle:"magic" msg)
  | Ok _ -> Alcotest.fail "bad magic accepted");
  (* Unsupported schema version. *)
  let v99 = Bytes.of_string bytes in
  Bytes.set_int32_le v99 8 99l;
  (match Snapshot.of_bytes (Bytes.to_string v99) with
  | Error msg ->
      check "version named in error" true (contains ~needle:"version" msg)
  | Ok _ -> Alcotest.fail "future schema version accepted");
  (* Trailing garbage. *)
  (match Snapshot.of_bytes (bytes ^ "zz") with
  | Error msg ->
      check "trailing bytes named in error" true
        (contains ~needle:"trailing" msg)
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  (* Truncation anywhere must be an Error, never an exception. *)
  let n = String.length bytes in
  let cuts = List.init 16 (fun i -> i) @ List.init (n / 512) (fun i -> i * 512) in
  List.iter
    (fun cut ->
      if cut < n then
        expect_error
          (Printf.sprintf "truncated at %d" cut)
          (Snapshot.of_bytes (String.sub bytes 0 cut)))
    cuts

(* The same corruption sweep against the v2 arena layout, which has
   its own failure surface: a section table that lies about offsets or
   counts must be caught before any Bigarray mapping happens. *)
let test_rejects_corrupt_v2 () =
  let bytes = Snapshot.to_bytes (Lazy.force small_snapshot) in
  let n = String.length bytes in
  (* Truncation anywhere. *)
  let cuts = List.init 32 (fun i -> i) @ List.init (n / 512) (fun i -> i * 512) in
  List.iter
    (fun cut ->
      if cut < n then
        expect_error
          (Printf.sprintf "v2 truncated at %d" cut)
          (Snapshot.of_bytes (String.sub bytes 0 cut)))
    cuts;
  (* Trailing garbage. *)
  expect_error "v2 trailing bytes" (Snapshot.of_bytes (bytes ^ "zz"));
  (* A corrupted metadata offset (bytes 12..19 of the header). *)
  let flip off =
    let b = Bytes.of_string bytes in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
    Bytes.to_string b
  in
  expect_error "v2 corrupt meta_off" (Snapshot.of_bytes (flip 12));
  (* A corrupted section-table entry (first section offset / count). *)
  expect_error "v2 corrupt section offset" (Snapshot.of_bytes (flip 24));
  expect_error "v2 corrupt section count" (Snapshot.of_bytes (flip 32));
  (* A CSR section whose second word repeats the first: every word
     still names a link of its row, but the arena is not the one the
     link records build. *)
  let words_at = Int64.to_int (String.get_int64_le bytes 40) in
  let repeated = Bytes.of_string bytes in
  Bytes.blit_string bytes words_at repeated (words_at + 8) 8;
  expect_error "v2 repeated CSR word"
    (Snapshot.of_bytes (Bytes.to_string repeated));
  (* Corrupt files must also fail cleanly through the mmap load path
     (a distinct decoder surface from of_bytes). *)
  let write_file data =
    let path = Filename.temp_file "snap_corrupt" ".bin" in
    let oc = open_out_bin path in
    output_string oc data;
    close_out oc;
    path
  in
  List.iter
    (fun data ->
      let path = write_file data in
      (match Snapshot.load ~path with
      | Error msg -> check "file load error is clear" true (msg <> "")
      | Ok _ -> Alcotest.failf "corrupt file %s loaded" path);
      Sys.remove path)
    [
      String.sub bytes 0 (n / 2);
      String.sub bytes 0 30;
      flip 12;
      flip 24;
      bytes ^ "zz";
      "";
    ]

(* ---- concurrent executor ---------------------------------------------- *)

let read_only_queries pop =
  [|
    (fun i -> Printf.sprintf "CATCHMENT %d" (i mod 30));
    (fun i -> Printf.sprintf "RTT %d anycast" (i mod 30));
    (fun _ -> Printf.sprintf "EGRESS %d" pop);
    (fun i -> Printf.sprintf "EXPLAIN anycast %d" (11 + (i mod 7)));
    (fun _ -> "BOGUS request");
  |]

let test_read_only () =
  List.iter
    (fun (line, want) ->
      match Protocol.parse line with
      | Ok req ->
          Alcotest.(check bool) (line ^ " classification") want
            (Protocol.read_only req)
      | Error e -> Alcotest.failf "%s: %s" line e)
    [
      ("CATCHMENT 0", true);
      ("EGRESS 94", true);
      ("RTT 0 anycast", true);
      ("EXPLAIN anycast 3", true);
      ("STATS", true);
      ("PROM", true);
      ("SNAPSHOT /tmp/x.bin", false);
      ("ADVANCE 15", false);
      ("QUIT", false);
    ]

let private_server cfg = Rib_cache.capture (Rib_cache.fresh_shard ()) (fun () -> Server.build cfg)

let streams_cfg = { Server.small_config with Server.n_prefixes = 30 }

(* Deterministic interleaving check: three fixed streams served
   concurrently must answer exactly like each stream served alone on a
   fresh server.  (STATS is excluded: its body reports shared RIB-cache
   and clock counters, which other concurrent sessions legitimately
   move.) *)
let test_streams_vs_alone () =
  let mk = read_only_queries 94 in
  let stream k len =
    List.init len (fun i -> mk.((i + k) mod Array.length mk) (i + k))
  in
  let streams = [| stream 0 10; stream 1 7; stream 2 12 |] in
  let concurrent =
    Rib_cache.capture (Rib_cache.fresh_shard ()) (fun () ->
        Server.serve_streams (private_server streams_cfg) streams)
  in
  Array.iteri
    (fun i stream ->
      let alone =
        Rib_cache.capture (Rib_cache.fresh_shard ()) (fun () ->
            let t = private_server streams_cfg in
            List.map (fun q -> fst (Server.handle_line t q)) stream)
      in
      check
        (Printf.sprintf "stream %d: concurrent equals alone" i)
        true
        (concurrent.(i) = alone))
    streams

(* Randomized version of the same property, plus domain-count
   independence: any interleaving of random read-only streams is
   byte-identical at 1 and 4 domains and equal to each stream served
   alone. *)
let prop_streams_interleaving =
  let gen =
    QCheck.Gen.(
      list_size (int_range 2 4)
        (list_size (int_range 1 12) (pair (int_range 0 4) (int_range 0 1000))))
  in
  QCheck.Test.make
    ~name:"concurrent streams answer like streams served alone (domains 1 = 4)"
    ~count:6
    (QCheck.make gen)
    (fun picks ->
      let mk = read_only_queries 94 in
      let streams =
        Array.of_list
          (List.map
             (fun l -> List.map (fun (v, i) -> mk.(v) i) l)
             picks)
      in
      let saved = Netsim_par.Pool.domain_count () in
      Fun.protect
        ~finally:(fun () -> Netsim_par.Pool.set_domain_count saved)
        (fun () ->
          let run domains =
            Netsim_par.Pool.set_domain_count domains;
            Rib_cache.capture (Rib_cache.fresh_shard ()) (fun () ->
                Server.serve_streams (private_server streams_cfg) streams)
          in
          let d1 = run 1 and d4 = run 4 in
          if d1 <> d4 then
            QCheck.Test.fail_report "domains 1 and 4 disagree";
          Array.iteri
            (fun i stream ->
              let alone =
                Rib_cache.capture (Rib_cache.fresh_shard ()) (fun () ->
                    let t = private_server streams_cfg in
                    List.map (fun q -> fst (Server.handle_line t q)) stream)
              in
              if d1.(i) <> alone then
                QCheck.Test.fail_reportf "stream %d differs from served-alone"
                  i)
            streams;
          true))

(* A write barrier mid-stream: reads after an ADVANCE must see the
   post-advance state exactly as a sequential client would. *)
let test_streams_with_barrier () =
  let stream =
    [
      "CATCHMENT 0"; "RTT 2 anycast"; "ADVANCE 360"; "CATCHMENT 0";
      "RTT 2 anycast"; "EXPLAIN anycast 11";
    ]
  in
  let cfg = { streams_cfg with Server.churn = true } in
  let concurrent =
    Rib_cache.capture (Rib_cache.fresh_shard ()) (fun () ->
        Server.serve_streams (private_server cfg)
          [| stream; [ "CATCHMENT 5"; "RTT 7 anycast" ] |])
  in
  let alone =
    Rib_cache.capture (Rib_cache.fresh_shard ()) (fun () ->
        let t = private_server cfg in
        List.map (fun q -> fst (Server.handle_line t q)) stream)
  in
  check "barrier stream: concurrent equals alone" true (concurrent.(0) = alone)

(* ---- TCP listener ----------------------------------------------------- *)

let test_retry_eintr () =
  let attempts = ref 0 in
  let r =
    Server.retry_eintr (fun () ->
        incr attempts;
        if !attempts < 3 then raise (Unix.Unix_error (Unix.EINTR, "accept", ""));
        42)
  in
  check_int "returns after EINTR retries" 42 r;
  check_int "retried exactly twice" 3 !attempts;
  (* Other errors still propagate. *)
  match Server.retry_eintr (fun () -> raise (Unix.Unix_error (Unix.EBADF, "x", ""))) with
  | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
  | _ -> Alcotest.fail "EBADF swallowed"

(* Read one framed response ("OK <n>\n<n bytes>\n") off a channel. *)
let read_framed ic =
  let header = input_line ic in
  match String.split_on_char ' ' header with
  | [ status; len ] ->
      let n = int_of_string len in
      let body = really_input_string ic (n + 1) in
      (status, String.sub body 0 n)
  | _ -> Alcotest.failf "bad frame header %S" header

(* Run [Server.listen] on an ephemeral port in its own domain; returns
   the port and the domain, which ends once a client sends QUIT. *)
let start_listener t =
  let port = ref 0 in
  let ready = Mutex.create () and cond = Condition.create () in
  let listener =
    Domain.spawn (fun () ->
        Server.listen t ~port:0
          ~port_ready:(fun p ->
            Mutex.lock ready;
            port := p;
            Condition.signal cond;
            Mutex.unlock ready))
  in
  Mutex.lock ready;
  while !port = 0 do
    Condition.wait cond ready
  done;
  let p = !port in
  Mutex.unlock ready;
  (p, listener)

let connect p =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc line =
  output_string oc (line ^ "\n");
  flush oc

let test_listen_two_clients () =
  let t = private_server streams_cfg in
  let p, listener = start_listener t in
  let connect () = connect p in
  let fd1, ic1, oc1 = connect () in
  let fd2, ic2, oc2 = connect () in
  (* Interleave queries across the two live connections. *)
  send oc1 "CATCHMENT 0";
  send oc2 "RTT 2 anycast";
  let s1, b1 = read_framed ic1 in
  let s2, b2 = read_framed ic2 in
  check_str "client 1 ok" "OK" s1;
  check_str "client 2 ok" "OK" s2;
  check "client 1 got a catchment" true (contains ~needle:"prefix=0" b1);
  check "client 2 got an rtt" true (contains ~needle:"client=2" b2);
  (* Both clients see their own session counters. *)
  send oc1 "STATS";
  let _, stats1 = read_framed ic1 in
  check "client 1 session counts its own queries" true
    (contains ~needle:"queries total=2 catchment=1" stats1);
  send oc2 "BOGUS";
  let s2e, _ = read_framed ic2 in
  check_str "malformed input framed as error" "ERR" s2e;
  (* QUIT from client 2 shuts the daemon down cleanly. *)
  send oc2 "QUIT";
  let s2q, b2q = read_framed ic2 in
  check_str "quit ok" "OK" s2q;
  check_str "quit body" "bye" b2q;
  Domain.join listener;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ fd1; fd2 ];
  ignore (ic1, ic2, oc1, oc2)

(* Everything a peer receives until the daemon closes the connection. *)
let read_to_eof fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

let quit_listener p listener =
  let fd, ic, oc = connect p in
  send oc "QUIT";
  let _, body = read_framed ic in
  check_str "quit body" "bye" body;
  Domain.join listener;
  Unix.close fd

(* A final request without a newline, followed by a half-close, is
   still answered — exactly once — before the daemon closes the
   connection. *)
let test_listen_trailing_line () =
  let p, listener = start_listener (private_server streams_cfg) in
  let fd, _, _ = connect p in
  ignore (Unix.write_substring fd "STATS" 0 5);
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let out = read_to_eof fd in
  Unix.close fd;
  (match String.index_opt out '\n' with
  | Some i when String.sub out 0 3 = "OK " ->
      let n = int_of_string (String.sub out 3 (i - 3)) in
      check_int "exactly one frame" (i + n + 2) (String.length out)
  | _ -> Alcotest.failf "expected one OK frame, got %S" out);
  quit_listener p listener

(* A peer that writes requests and closes without reading must not
   take the daemon down (SIGPIPE) or disturb another client, whose
   transcript still equals the sequential reference. *)
let test_listen_peer_vanishes () =
  let p, listener = start_listener (private_server streams_cfg) in
  let fd_a, _, _ = connect p in
  let fd_b, ic_b, oc_b = connect p in
  let burst =
    String.concat ""
      (List.init 100 (fun i -> Printf.sprintf "CATCHMENT %d\n" (i mod 30)))
  in
  ignore (Unix.write_substring fd_a burst 0 (String.length burst));
  Unix.close fd_a;
  (* One request per round trip, so the daemon runs many rounds —
     answering the vanished peer — while this client is served. *)
  let mk = read_only_queries 94 in
  let stream = List.init 20 (fun i -> mk.(i mod Array.length mk) i) in
  let got =
    List.map
      (fun q ->
        send oc_b q;
        let status, body = read_framed ic_b in
        Protocol.frame ~ok:(status = "OK") body)
      stream
  in
  let alone =
    Rib_cache.capture (Rib_cache.fresh_shard ()) (fun () ->
        let t = private_server streams_cfg in
        List.map (fun q -> fst (Server.handle_line t q)) stream)
  in
  check "survivor's transcript equals served-alone" true (got = alone);
  send oc_b "QUIT";
  let _, body = read_framed ic_b in
  check_str "survivor still gets bye" "bye" body;
  Domain.join listener;
  Unix.close fd_b

(* ---- load-path equivalence ------------------------------------------- *)

(* Each server runs its queries against a private RIB-cache shard so
   the two in-process servers cannot warm each other's cache — STATS
   reports per-shard hit/miss counters and must match too. *)
let drive server queries =
  Rib_cache.capture (Rib_cache.fresh_shard ()) (fun () ->
      List.map (fun q -> fst (Server.handle_line server q)) queries)

let equivalence_queries pop =
  [
    "STATS";
    "CATCHMENT 0";
    "CATCHMENT 11";
    Printf.sprintf "EGRESS %d" pop;
    "RTT 2 anycast";
    "EXPLAIN anycast 11";
    "ADVANCE 360";
    "CATCHMENT 11";
    Printf.sprintf "EGRESS %d" pop;
    "RTT 2 anycast";
    "EXPLAIN anycast 11";
    "EXPLAIN 0 11";
    "STATS";
  ]

let prop_loaded_equals_fresh =
  QCheck.Test.make ~name:"snapshot-loaded server answers like seed-built"
    ~count:4 (QCheck.int_range 0 200) (fun seed ->
      let cfg =
        {
          Server.small_config with
          Server.seed;
          n_prefixes = 24;
          track = 2;
          churn = true;
        }
      in
      let fresh = Server.build cfg in
      let snap = Server.snapshot fresh in
      match Server.of_snapshot cfg snap with
      | Error e -> QCheck.Test.fail_reportf "of_snapshot: %s" e
      | Ok loaded ->
          let queries = equivalence_queries (List.hd (Server.pops fresh)) in
          drive fresh queries = drive loaded queries)

let suite =
  [
    Alcotest.test_case "protocol: accepted forms" `Quick test_parse_ok;
    Alcotest.test_case "protocol: malformed input" `Quick test_parse_errors;
    Alcotest.test_case "protocol: response framing" `Quick test_frame;
    Alcotest.test_case "queries: unknown ids are clean errors" `Quick
      test_unknown_ids;
    Alcotest.test_case "queries: untracked origin" `Quick test_untracked_origin;
    Alcotest.test_case "queries: EXPLAIN decision chain" `Quick test_explain;
    Alcotest.test_case "queries: provenance JSONL dump" `Quick
      test_provenance_jsonl;
    Alcotest.test_case "queries: junk never raises" `Quick test_never_raises;
    Alcotest.test_case "loop: EOF mid-request" `Quick test_eof_mid_request;
    Alcotest.test_case "loop: stdin equals the sequential reference" `Quick
      test_stdin_matches_handle_line;
    Alcotest.test_case "snapshot: byte round-trip" `Quick test_roundtrip_bytes;
    Alcotest.test_case "snapshot: file round-trip" `Quick test_roundtrip_file;
    Alcotest.test_case "snapshot: v2 byte round-trip" `Quick
      test_roundtrip_bytes_v2;
    Alcotest.test_case "snapshot: v2 mmap file round-trip" `Quick
      test_roundtrip_file_v2;
    Alcotest.test_case "snapshot: v1 files are rejected" `Quick
      test_v1_files_rejected;
    Alcotest.test_case "snapshot: rejects corrupt input" `Quick
      test_rejects_corrupt;
    Alcotest.test_case "snapshot: rejects corrupt v2 input" `Quick
      test_rejects_corrupt_v2;
    Alcotest.test_case "snapshot: rejects a cyclic routing table" `Quick
      test_of_snapshot_rejects_cyclic_rib;
    Alcotest.test_case "executor: read-only verb classification" `Quick
      test_read_only;
    Alcotest.test_case "executor: concurrent streams equal served-alone" `Quick
      test_streams_vs_alone;
    Alcotest.test_case "executor: write barrier mid-stream" `Quick
      test_streams_with_barrier;
    QCheck_alcotest.to_alcotest prop_streams_interleaving;
    Alcotest.test_case "listener: EINTR retry" `Quick test_retry_eintr;
    Alcotest.test_case "listener: two concurrent TCP clients" `Quick
      test_listen_two_clients;
    Alcotest.test_case "listener: trailing line at EOF" `Quick
      test_listen_trailing_line;
    Alcotest.test_case "listener: peer closes without reading" `Quick
      test_listen_peer_vanishes;
    QCheck_alcotest.to_alcotest prop_loaded_equals_fresh;
  ]
