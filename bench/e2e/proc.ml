(* Process introspection through /proc: the kernel's resident-set
   high-water mark (VmHWM) of this process or of a child, so every
   workload's peak memory is that of the process doing the work. *)

let status_field ~pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let prefix = field ^ ":" in
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line when String.starts_with ~prefix line ->
                let rest =
                  String.sub line (String.length prefix)
                    (String.length line - String.length prefix)
                in
                String.split_on_char ' ' (String.trim rest)
                |> List.hd |> int_of_string_opt
            | _ -> scan ()
          in
          scan ())

(* Peak RSS in kB; 0 when /proc is unavailable. *)
let peak_rss_kb ?pid () =
  let pid = match pid with Some p -> string_of_int p | None -> "self" in
  Option.value ~default:0 (status_field ~pid "VmHWM")

let peak_rss_mb ?pid () = float_of_int (peak_rss_kb ?pid ()) /. 1024.
