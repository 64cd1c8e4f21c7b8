(* Incremental reader for the serve protocol's length-delimited
   responses, "OK <n>\n<n bytes>\n" or "ERR <n>\n<n bytes>\n" (see
   Netsim_serve.Protocol.frame).  Bytes arrive in arbitrary chunks;
   [next] hands back one whole frame at a time, byte for byte as the
   daemon wrote it. *)

type t = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

let create () = { buf = Bytes.create 65536; start = 0; stop = 0 }

(* Make room for [n] more bytes after [stop]. *)
let reserve t n =
  if t.stop + n > Bytes.length t.buf then begin
    let live = t.stop - t.start in
    let buf =
      if live + n <= Bytes.length t.buf then t.buf
      else Bytes.create (max (2 * Bytes.length t.buf) (live + n))
    in
    Bytes.blit t.buf t.start buf 0 live;
    t.buf <- buf;
    t.start <- 0;
    t.stop <- live
  end

let feed t s =
  let n = String.length s in
  reserve t n;
  Bytes.blit_string s 0 t.buf t.stop n;
  t.stop <- t.stop + n

(* One [Unix.read] into the buffer; 0 means end of stream.  Unix errors
   (EAGAIN included) propagate to the caller. *)
let read_fd t fd =
  reserve t 65536;
  let n = Unix.read fd t.buf t.stop (Bytes.length t.buf - t.stop) in
  t.stop <- t.stop + n;
  n

type next = Frame of { ok : bool; raw : string } | Need_more | Malformed

let next t =
  match Bytes.index_from_opt t.buf t.start '\n' with
  | Some i when i < t.stop -> (
      let header = Bytes.sub_string t.buf t.start (i - t.start) in
      let parsed =
        match String.split_on_char ' ' header with
        | [ "OK"; n ] -> Option.map (fun n -> (true, n)) (int_of_string_opt n)
        | [ "ERR"; n ] -> Option.map (fun n -> (false, n)) (int_of_string_opt n)
        | _ -> None
      in
      match parsed with
      | None -> Malformed
      | Some (_, n) when n < 0 -> Malformed
      | Some (ok, n) ->
          let total = i + 1 + n + 1 - t.start in
          if t.start + total > t.stop then Need_more
          else if Bytes.get t.buf (t.start + total - 1) <> '\n' then Malformed
          else begin
            let raw = Bytes.sub_string t.buf t.start total in
            t.start <- t.start + total;
            Frame { ok; raw }
          end)
  | _ ->
      (* No header yet; a header longer than any real one is garbage. *)
      if t.stop - t.start > 64 then Malformed else Need_more

let body raw =
  match String.index_opt raw '\n' with
  | Some i -> String.sub raw (i + 1) (String.length raw - i - 2)
  | None -> ""
