(* Multi-sink single-pass analysis (DESIGN.md §13): describe a run as
   one declarative pipeline — a live suite source, a mount-filter
   stage, and several sinks — and get coverage, a TCD sweep, the
   completeness ledger, and a saved snapshot out of ONE traversal of
   the event stream, instead of one run per consumer.

     dune exec examples/streaming_sinks.exe -- 0.1   # scale

   Exits 1 if the pipeline fails or the sinks disagree with the
   product, so this doubles as a smoke test (wired into dune runtest). *)

module Ltp = Iocov_suites.Ltp
module Report = Iocov_core.Report
module Snapshot = Iocov_core.Snapshot
module Source = Iocov_pipe.Source
module Stage = Iocov_pipe.Stage
module Sink = Iocov_pipe.Sink
module Driver = Iocov_pipe.Driver

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let () =
  let scale = try float_of_string Sys.argv.(1) with _ -> 0.1 in
  let snap_path = Filename.temp_file "iocov_streaming" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove snap_path) @@ fun () ->
  (* The suite is just a source: its record callback is the live feed,
     and the pipeline filters and accumulates. *)
  let feed on_record = ignore (Ltp.emit ~seed:7 ~scale ~on_record () : string list * Ltp.stats) in
  let pipeline =
    Driver.run
      ~config:(Driver.config ())
      ~stages:[ Stage.mount Ltp.mount; Stage.meter "ltp" ]
      ~sinks:
        [ Sink.summary; Sink.completeness;
          Sink.tcd ~targets:[ 1.0; 100.0; 10_000.0 ] ();
          Sink.snapshot ~path:snap_path; Sink.gauges ]
      (Source.live ~label:"LTP" feed)
  in
  match pipeline with
  | Error msg ->
    Printf.printf "FAIL pipeline: %s\n" msg;
    exit 1
  | Ok { Driver.product; sections } ->
    Printf.printf
      "one pass over %d events (%d kept) fed %d sinks:\n\n"
      product.Sink.events product.Sink.kept
      (List.length sections + 1 (* gauges renders no section *));
    List.iter
      (fun (name, text) -> Printf.printf "--- %s ---\n%s\n" name text)
      sections;
    (* every section is a view of the same single-pass product *)
    expect "summary section matches product"
      (List.assoc "summary" sections
       = Report.suite_summary ~name:"LTP" product.Sink.coverage);
    expect "snapshot file round-trips"
      (match Snapshot.load_file snap_path with
       | Ok cov -> Snapshot.to_string cov = Snapshot.to_string product.Sink.coverage
       | Error _ -> false);
    expect "clean run" (Iocov_util.Anomaly.is_clean product.Sink.completeness);
    if !failures > 0 then exit 1;
    print_endline "all streaming-sink properties hold"
