(* Whole-trace readers for tests, built on the streaming reads the
   library keeps: [Format_io.open_stream]/[read_raw_batch]/[of_line] for
   text and [Binary_io.open_stream]/[read_batch] for v3.  The text
   reader is the sequential reference for the replay engine's strict
   text errors: the first bad line fails as ["line N: ..."]. *)

module Event = Iocov_trace.Event
module Format_io = Iocov_trace.Format_io
module Binary_io = Iocov_trace.Binary_io

let fold_text ic ~init ~f =
  let st = Format_io.open_stream ic in
  let rec go acc =
    let batch = Format_io.read_raw_batch st ~max:4096 in
    if Array.length batch = 0 then Ok acc
    else begin
      let rec consume acc i =
        if i = Array.length batch then go acc
        else begin
          let lineno, line = batch.(i) in
          match Format_io.of_line ~seq:lineno line with
          | Ok e -> consume (f acc e) (i + 1)
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
        end
      in
      consume acc 0
    end
  in
  go init

let read_text ic = Result.map List.rev (fold_text ic ~init:[] ~f:(fun acc e -> e :: acc))

(* Strict decode to EOF. *)
let read_binary ic =
  match Binary_io.open_stream ic with
  | Error _ as e -> e
  | Ok st ->
    let rec go acc =
      match Binary_io.read_batch st ~max:4096 with
      | Error _ as e -> e
      | Ok batch when Array.length batch = 0 -> Ok (List.rev acc)
      | Ok batch -> go (Array.fold_left (fun acc e -> e :: acc) acc batch)
    in
    go []

let write_text oc events = List.iter (Format_io.sink_channel oc) events
