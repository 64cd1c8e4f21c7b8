(* Response accounting for the serve workloads.  Each of these is one
   failed op: an ERR frame, a frame that differs from the expected
   bytes, a request still unanswered when the run ends, and a dropped
   connection. *)

type expect =
  | Exact of string  (** the framed reference answer *)
  | Any_ok  (** any well-formed OK frame (answers depend on interleaving) *)

type t = {
  mutable attempted : int;
  mutable errs : int;
  mutable mismatches : int;
  mutable unanswered : int;
  mutable dropped : int;
}

let create () =
  { attempted = 0; errs = 0; mismatches = 0; unanswered = 0; dropped = 0 }

let sent t = t.attempted <- t.attempted + 1

(* Judge one response; true when it is correct. *)
let answered t expect ~ok ~raw =
  if not ok then begin
    t.errs <- t.errs + 1;
    false
  end
  else
    match expect with
    | Any_ok -> true
    | Exact e when String.equal e raw -> true
    | Exact _ ->
        t.mismatches <- t.mismatches + 1;
        false

let unanswered t n = t.unanswered <- t.unanswered + n
let dropped t = t.dropped <- t.dropped + 1
let failed t = t.errs + t.mismatches + t.unanswered + t.dropped

let summary t =
  Printf.sprintf "attempted %d  failed %d (err %d, mismatch %d, unanswered %d, dropped %d)"
    t.attempted (failed t) t.errs t.mismatches t.unanswered t.dropped
