(* End-to-end fault-tolerance demo (DESIGN.md §12): trace a suite to a
   binary file, damage it, and show the three recovery layers —
   lenient skip-and-resync ingestion with an error budget, exact loss
   accounting, and checkpointed replay whose resumed coverage is
   byte-identical to an uninterrupted run.

     dune exec examples/corrupt_recovery.exe -- 0.05   # scale

   Exits 1 if any recovery property fails, so this doubles as a smoke
   test (wired into dune runtest). *)

module Anomaly = Iocov_util.Anomaly
module Filter = Iocov_trace.Filter
module Binary_io = Iocov_trace.Binary_io
module Snapshot = Iocov_core.Snapshot
module Report = Iocov_core.Report
module Ltp = Iocov_suites.Ltp
module Checkpoint = Iocov_par.Checkpoint
module Replay = Iocov_par.Replay

let failures = ref 0

let expect what ok =
  Printf.printf "  %s %s\n" (if ok then "ok:  " else "FAIL:") what;
  if not ok then incr failures

let with_temp suffix f =
  let path = Filename.temp_file "iocov_recover" suffix in
  Fun.protect (fun () -> f path) ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())

let flip path off =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  n

let () =
  let scale = if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 0.05 in
  let filter = Filter.mount_point Ltp.mount in
  with_temp ".trace" @@ fun trace ->
  (* 1. trace the LTP suite straight into a binary file; small chapters
     keep the blast radius of the damage we are about to do tightly
     bounded *)
  let oc = open_out_bin trace in
  (* one-record frames: this demo is about the per-record-CRC blast
     radius.  The default amortizes the CRC over 256-record frames, so
     one flip voids a whole frame — far over this demo's 1% budget on a
     trace this small. *)
  let w = Binary_io.writer ~chapter:64 ~frame:1 oc in
  let _failures, _stats = Ltp.emit ~seed:7 ~scale ~on_record:(Binary_io.sink w) () in
  Binary_io.flush w;
  close_out oc;

  (* 2. the clean reference: a strict run.  Its event count is the
     authoritative size of the trace. *)
  let reference =
    match Replay.analyze_file ~filter trace with
    | Ok o -> o
    | Error msg ->
      Printf.eprintf "clean strict run failed: %s\n" msg;
      exit 1
  in
  let total = reference.Replay.events in
  Printf.printf "traced %d events to %s\n" total trace;
  expect "strict run is complete" (Anomaly.is_clean reference.Replay.completeness);

  (* 3. checkpointed replay: stop halfway, resume, demand a
     byte-identical result *)
  print_endline "interrupt and resume:";
  with_temp ".ckpt" (fun ckpt ->
      let half = total / 2 in
      (match
         Replay.analyze_file
           ~checkpoint:{ Replay.ckpt_path = ckpt; ckpt_every = max 1 (half / 4) }
           ~limit:half ~filter trace
       with
      | Ok o -> expect "interrupted run stopped at the limit" (o.Replay.events = half)
      | Error msg ->
        Printf.eprintf "interrupted run failed: %s\n" msg;
        exit 1);
      match Checkpoint.load ckpt with
      | Error msg ->
        Printf.eprintf "checkpoint load failed: %s\n" msg;
        exit 1
      | Ok ck -> (
        match Replay.analyze_file ~resume:(ckpt, ck) ~filter trace with
        | Ok o ->
          expect "resumed run saw every event" (o.Replay.events = total);
          expect "resumed coverage byte-identical"
            (Snapshot.to_string o.Replay.coverage
            = Snapshot.to_string reference.Replay.coverage)
        | Error msg ->
          Printf.eprintf "resumed run failed: %s\n" msg;
          exit 1));

  (* 4. damage the trace and recover under a 1% error budget *)
  print_endline "bit-flip recovery:";
  let size = flip trace (7 + (total / 3 * 5)) in
  ignore (flip trace (size / 2));
  (match
     Replay.analyze_file ~ingest:(Replay.Lenient (Anomaly.Max_fraction 0.01)) ~filter
       trace
   with
  | Ok o ->
    let c = o.Replay.completeness in
    expect "lenient run completed" true;
    expect "some damage was skipped" (c.Anomaly.records_skipped > 0);
    expect "every record read or accounted"
      (c.Anomaly.truncated
      || c.Anomaly.events_read + c.Anomaly.records_skipped = total);
    print_endline (Report.completeness ~name:"ltp" c)
  | Error msg ->
    Printf.eprintf "lenient run failed: %s\n" msg;
    exit 1);

  (* 5. strict mode must refuse the damaged trace *)
  (match Replay.analyze_file ~filter trace with
  | Ok _ -> expect "strict run rejects the damaged trace" false
  | Error msg -> expect (Printf.sprintf "strict run rejects it (%s)" msg) true);

  if !failures > 0 then begin
    Printf.printf "%d recovery properties FAILED\n" !failures;
    exit 1
  end;
  print_endline "all recovery properties hold"
