module Anomaly = Iocov_util.Anomaly
module Coverage = Iocov_core.Coverage
module Snapshot = Iocov_core.Snapshot
module Binary_io = Iocov_trace.Binary_io
module Metrics = Iocov_obs.Metrics

let magic = "iocov-checkpoint v1"

let m_written =
  Metrics.counter Metrics.default "iocov_ckpt_written_total"
    ~help:"Replay checkpoints written."

let m_loaded =
  Metrics.counter Metrics.default "iocov_ckpt_loaded_total"
    ~help:"Replay checkpoints loaded for resume."

type t = {
  trace : string;
  cursor : Binary_io.cursor;
  events : int;
  kept : int;
  batches : int;
  completeness : Anomaly.completeness;
  coverage : Coverage.t;
}

(* Atomic write: the checkpoint a crashed run leaves behind must always
   be a complete one, so build it under a temporary name and rename
   into place.  The temp name is deterministic ([path ^ ".tmp"]) so a
   later run can sweep droppings from a killed predecessor; within a
   run, any failure between [open_out] and the rename removes the temp
   file before the exception escapes. *)
let tmp_of path = path ^ ".tmp"

let remove_quiet path = try Sys.remove path with Sys_error _ -> ()

let clean_stale ~path =
  let tmp = tmp_of path in
  if Sys.file_exists tmp then begin
    remove_quiet tmp;
    true
  end
  else false

let save ~path t =
  let tmp = tmp_of path in
  let oc =
    try open_out tmp
    with e ->
      remove_quiet tmp;
      raise e
  in
  (try
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
      let p fmt = Printf.fprintf oc fmt in
      p "%s\n" magic;
      p "trace %S\n" t.trace;
      p "events %d\n" t.events;
      p "kept %d\n" t.kept;
      p "batches %d\n" t.batches;
      let c = t.cursor in
      (* the trace format version leads the line, so a checkpoint of an
         older format is refused by name *)
      p "cursor %d %d %d %d %d %d %d\n" Binary_io.version c.Binary_io.c_offset c.c_seq
        c.c_last_ts c.c_chapter c.c_last_pid c.c_skip;
      p "strings %d\n" (Array.length c.c_strings);
      Array.iter (function Some s -> p "S %S\n" s | None -> p "L\n") c.c_strings;
      let m = t.completeness in
      p "completeness %d %d %d %d %d %d %d %d\n" m.Anomaly.events_read m.records_skipped
        m.corrupt_regions m.bytes_skipped m.batches_retried m.shards_failed
        m.events_abandoned
        (if m.truncated then 1 else 0);
      (match m.resumed_from with Some s -> p "resumed_from %S\n" s | None -> ());
      p "snapshot\n";
      output_string oc (Snapshot.to_string t.coverage);
      (* terminator: lets [load] tell a complete file from a torn one
         even though the embedded snapshot is line-based free text *)
      p "end iocov-checkpoint\n")
   with e ->
     remove_quiet tmp;
     raise e);
  (try Sys.rename tmp path
   with e ->
     remove_quiet tmp;
     raise e);
  Metrics.Counter.incr m_written

let ( let* ) = Result.bind

let scan line fmt k =
  try Ok (Scanf.sscanf line fmt k)
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    Error (Printf.sprintf "malformed checkpoint line %S" line)

(* The string-table cap mirrors what a reader could plausibly have
   interned; anything bigger means the file is damaged, not big. *)
let max_strings = 1 lsl 24

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let line what =
          match In_channel.input_line ic with
          | Some l -> Ok l
          | None -> Error (Printf.sprintf "checkpoint ends before %s" what)
        in
        let* header = line "header" in
        if String.trim header <> magic then
          Error (Printf.sprintf "bad checkpoint header %S (expected %S)" header magic)
        else
          let* l = line "trace" in
          let* trace = scan l "trace %S" Fun.id in
          let* l = line "events" in
          let* events = scan l "events %d" Fun.id in
          let* l = line "kept" in
          let* kept = scan l "kept %d" Fun.id in
          let* l = line "batches" in
          let* batches = scan l "batches %d" Fun.id in
          let* l = line "cursor" in
          let* version = scan l "cursor %d" Fun.id in
          let* () =
            if version = Binary_io.version then Ok ()
            else
              Error
                (Printf.sprintf
                   "checkpoint of a v%d trace: only v%d checkpoints resume; \
                    re-run the replay"
                   version Binary_io.version)
          in
          let* _, c_offset, c_seq, c_last_ts, c_chapter, c_last_pid, c_skip =
            scan l "cursor %d %d %d %d %d %d %d" (fun a b c d e f g ->
                (a, b, c, d, e, f, g))
          in
          let* l = line "strings" in
          let* n_strings = scan l "strings %d" Fun.id in
          if events < 0 || kept < 0 || batches < 0 || c_offset < 0 || c_seq < 1 || c_skip < 0
          then Error "checkpoint counters out of range"
          else if n_strings < 0 || n_strings > max_strings then
            Error (Printf.sprintf "implausible string table size %d" n_strings)
          else begin
            let strings = Array.make n_strings None in
            let rec read_strings i =
              if i = n_strings then Ok ()
              else
                let* l = line "string table" in
                if l = "L" then begin
                  read_strings (i + 1)
                end
                else
                  let* s = scan l "S %S" Fun.id in
                  strings.(i) <- Some s;
                  read_strings (i + 1)
            in
            let* () = read_strings 0 in
            let* l = line "completeness" in
            let* comp =
              scan l "completeness %d %d %d %d %d %d %d %d"
                (fun events_read records_skipped corrupt_regions bytes_skipped
                     batches_retried shards_failed events_abandoned truncated ->
                  {
                    (Anomaly.clean ~events_read) with
                    Anomaly.records_skipped;
                    corrupt_regions;
                    bytes_skipped;
                    batches_retried;
                    shards_failed;
                    events_abandoned;
                    truncated = truncated <> 0;
                  })
            in
            let* l = line "snapshot marker" in
            let* comp, l =
              if String.length l >= 12 && String.sub l 0 12 = "resumed_from" then
                let* from = scan l "resumed_from %S" Fun.id in
                let* l = line "snapshot marker" in
                Ok ({ comp with Anomaly.resumed_from = Some from }, l)
              else Ok (comp, l)
            in
            if String.trim l <> "snapshot" then
              Error (Printf.sprintf "expected snapshot marker, got %S" l)
            else
              let rest = In_channel.input_all ic in
              let terminator = "end iocov-checkpoint\n" in
              let rl = String.length rest and tl = String.length terminator in
              let* body =
                if rl >= tl && String.sub rest (rl - tl) tl = terminator then
                  Ok (String.sub rest 0 (rl - tl))
                else Error "checkpoint is torn (missing end marker)"
              in
              let* coverage =
                Result.map_error (fun e -> "embedded snapshot: " ^ e)
                  (Snapshot.of_string body)
              in
              Metrics.Counter.incr m_loaded;
              Ok
                {
                  trace;
                  cursor =
                    {
                      Binary_io.c_offset;
                      c_seq;
                      c_last_ts;
                      c_last_pid;
                      c_chapter;
                      c_skip;
                      c_strings = strings;
                    };
                  events;
                  kept;
                  batches;
                  completeness = comp;
                  coverage;
                }
          end)
