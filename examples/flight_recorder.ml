(* The flight recorder end to end (DESIGN.md §14): run one pipeline
   with all three observers on — a trace-event timeline, the live
   progress sink, and the persistent run ledger — then replay the same
   seed and let the ledger prove the two runs covered identical cells.

     dune exec examples/flight_recorder.exe -- 0.1   # scale

   Exits 1 if any recorded artifact is malformed or the identical-seed
   diff is non-empty, so this doubles as a smoke test (wired into dune
   runtest). *)

module Ltp = Iocov_suites.Ltp
module Source = Iocov_pipe.Source
module Stage = Iocov_pipe.Stage
module Sink = Iocov_pipe.Sink
module Driver = Iocov_pipe.Driver
module Progress = Iocov_pipe.Progress
module Ledger = Iocov_pipe.Ledger
module Trace_event = Iocov_obs.Trace_event
module Json = Iocov_util.Json

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let () =
  let scale = try float_of_string Sys.argv.(1) with _ -> 0.1 in
  let ledger_dir = Filename.temp_file "iocov_flight" ".ledger" in
  Sys.remove ledger_dir;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove (Ledger.path ~dir:ledger_dir) with Sys_error _ -> ());
      try Sys.rmdir ledger_dir with Sys_error _ -> ())
  @@ fun () ->
  let progress_lines = ref [] in
  (* One recorded run: timeline on, snapshots every 500 events, and a
     ledger record appended from the run's product. *)
  let recorded_run () =
    let feed on_record = ignore (Ltp.emit ~seed:7 ~scale ~on_record () : string list * Ltp.stats) in
    let progress =
      { Progress.every = 500; format = Progress.Text;
        emit = (fun line -> progress_lines := line :: !progress_lines);
        budget = None }
    in
    Trace_event.start ();
    let result =
      Driver.run
        ~config:(Driver.config ~progress ())
        ~stages:[ Stage.mount Ltp.mount ]
        ~sinks:[ Sink.summary ]
        (Source.live ~label:"LTP" feed)
    in
    Trace_event.stop ();
    let timeline = Trace_event.to_json () in
    Trace_event.clear ();
    match result with
    | Error msg ->
      Printf.printf "FAIL pipeline: %s\n" msg;
      exit 1
    | Ok { Driver.product; _ } ->
      let r =
        Ledger.make ~seed:7 ~subcommand:"example" ~label:"LTP"
          ~flags:[ ("scale", string_of_float scale) ] ~jobs:1 ~counters:"dense"
          ~events:product.Sink.events ~kept:product.Sink.kept ~lost:0 ~wall_s:0.0
          ~stages:[] product.Sink.coverage
      in
      (match Ledger.append ~dir:ledger_dir r with
       | Ok r -> (r, timeline, product)
       | Error msg ->
         Printf.printf "FAIL ledger append: %s\n" msg;
         exit 1)
  in
  let r1, timeline, product = recorded_run () in
  let r2, _, _ = recorded_run () in
  Printf.printf "recorded %d events into timeline + progress + ledger\n\n"
    product.Sink.events;
  (* the timeline is well-formed Chrome trace-event JSON *)
  (match Json.of_string timeline with
   | Error msg -> expect (Printf.sprintf "timeline parses (%s)" msg) false
   | Ok j ->
     (match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
        Printf.printf "timeline: %d trace events\n" (List.length evs);
        expect "timeline non-empty" (evs <> [])
      | _ -> expect "timeline has traceEvents array" false));
  (* the progress sink spoke, and closed with a final line *)
  let lines = List.rev !progress_lines in
  Printf.printf "progress: %d snapshot lines\n" (List.length lines);
  List.iter (fun l -> Printf.printf "  %s\n" l) lines;
  expect "progress emitted" (lines <> []);
  expect "final snapshot marked done"
    (match List.rev lines with
     | last :: _ -> String.length last >= 5 && String.sub last 0 5 = "done:"
     | [] -> false);
  (* the ledger holds both runs, and the identical seed covers
     identical cells *)
  let { Ledger.records; bad_lines } = Ledger.load ~dir:ledger_dir in
  expect "ledger holds two runs" (List.length records = 2);
  expect "ledger file is clean" (bad_lines = 0);
  let d = Ledger.diff r1 r2 in
  Printf.printf "\n%s\n" (Ledger.render_diff ~a:r1 ~b:r2 d);
  expect "identical seed, identical coverage"
    (d.Ledger.d_identical && d.Ledger.d_gained = [] && d.Ledger.d_lost = []);
  if !failures > 0 then exit 1;
  print_endline "all flight-recorder properties hold"
