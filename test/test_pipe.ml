(* Differential tests for the unified streaming pipeline (DESIGN.md §13):
   every consumer routed through Iocov_pipe.Driver must produce coverage
   byte-identical to a per-event observe into the hashed reference
   accumulator — live suite runs vs direct observation, text and binary
   file replay vs a sequential fold — plus multi-sink single-pass
   analysis, stages, the configuration errors the driver must report as
   values, and the "all roads, one digest" property over every way a
   coverage result can be produced, on clean and on damaged traces. *)

module Event = Iocov_trace.Event
module Filter = Iocov_trace.Filter
module Format_io = Iocov_trace.Format_io
module Binary_io = Iocov_trace.Binary_io
module Coverage = Iocov_core.Coverage
module Snapshot = Iocov_core.Snapshot
module Report = Iocov_core.Report
module Anomaly = Iocov_util.Anomaly
module Replay = Iocov_par.Replay
module Checkpoint = Iocov_par.Checkpoint
module Ledger = Iocov_pipe.Ledger
module Hub = Iocov_serve.Hub
module Vconfig = Iocov_vfs.Config
module Runner = Iocov_suites.Runner
module Source = Iocov_pipe.Source
module Stage = Iocov_pipe.Stage
module Sink = Iocov_pipe.Sink
module Driver = Iocov_pipe.Driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let synth_events = Test_par.synth_events
let with_temp_file = Test_par.with_temp_file
let filter = Filter.mount_point "/mnt/test"

let snap cov = Snapshot.to_string cov
let oracle_snap = Coverage_oracle.to_string

let ok_run = function
  | Ok (r : Driver.run) -> r
  | Error msg -> Alcotest.failf "pipeline failed: %s" msg

(* --- live suite runs: Runner-through-driver vs the suites' own
   inline observation --- *)

let direct_suite_coverage suite ~seed ~scale =
  (* the pre-pipe classic path, kept as the suites' [run]: the suite
     observes straight into a coverage, filtering at the mount
     itself *)
  let coverage = Coverage.create () in
  (match suite with
   | Runner.Crashmonkey -> ignore (Iocov_suites.Crashmonkey.run ~seed ~scale ~coverage ())
   | Runner.Xfstests -> ignore (Iocov_suites.Xfstests.run ~seed ~scale ~coverage ())
   | Runner.Ltp -> ignore (Iocov_suites.Ltp.run ~seed ~scale ~coverage ()));
  coverage

let test_suite_differential () =
  List.iter
    (fun suite ->
      let seed = 42 and scale = 0.2 in
      let oracle_cov = direct_suite_coverage suite ~seed ~scale in
      let r = Runner.run ~seed ~scale suite in
      let tag = Runner.suite_name suite in
      check_string (tag ^ " snapshot") (snap oracle_cov) (snap r.Runner.coverage))
    [ Runner.Crashmonkey; Runner.Xfstests; Runner.Ltp ]

(* --- file replay: driver vs a sequential fold, text and binary --- *)

let write_binary ?frame path events =
  let oc = open_out_bin path in
  let w = Binary_io.writer ?frame oc in
  List.iter (Binary_io.sink w) events;
  Binary_io.flush w;
  close_out oc

let write_text path events =
  Out_channel.with_open_text path (fun oc ->
      List.iter (Format_io.sink_channel oc) events)

let pass_through = Stage.map ~name:"pass" Option.some

let test_file_differential () =
  let events = synth_events ~seed:11 3_000 in
  let oracle_cov, oracle_kept = Test_par.sequential_coverage filter events in
  List.iter
    (fun (fmt, write) ->
      with_temp_file (fun path ->
          write path events;
          (* binary traces take the fused drain; a pass-through stage
             forces the event path *)
          List.iter
            (fun (road, stages) ->
              let config = Driver.config ~batch:256 () in
              let r =
                ok_run
                  (Driver.run ~config ~stages:(Stage.filter filter :: stages)
                     (Source.file path))
              in
              let tag = Printf.sprintf "%s %s" fmt road in
              check_string (tag ^ " snapshot") (oracle_snap oracle_cov)
                (snap r.Driver.product.Sink.coverage);
              check_int (tag ^ " kept") oracle_kept r.Driver.product.Sink.kept;
              check_int (tag ^ " events") 3_000 r.Driver.product.Sink.events)
            [ ("direct", []); ("staged", [ pass_through ]) ]))
    [ ("text", write_text); ("binary", write_binary ?frame:None) ]

(* --- lenient ingestion: completeness ledgers must agree --- *)

let flip_byte path off =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let check_completeness tag (a : Anomaly.completeness) (b : Anomaly.completeness) =
  check_int (tag ^ " events_read") a.Anomaly.events_read b.Anomaly.events_read;
  check_int (tag ^ " records_skipped") a.Anomaly.records_skipped
    b.Anomaly.records_skipped;
  check_int (tag ^ " corrupt_regions") a.Anomaly.corrupt_regions
    b.Anomaly.corrupt_regions;
  check_int (tag ^ " bytes_skipped") a.Anomaly.bytes_skipped b.Anomaly.bytes_skipped;
  check_bool (tag ^ " truncated") a.Anomaly.truncated b.Anomaly.truncated

(* One-record frames, one flip: the driver's fused drain against the
   engine's event path, which a pass-through stage forces. *)
let test_lenient_differential () =
  let events = synth_events ~seed:23 2_000 in
  with_temp_file (fun path ->
      write_binary ~frame:1 path events;
      flip_byte path 600;
      let ingest = Replay.Lenient Anomaly.Unlimited in
      let oracle =
        match Replay.analyze_file ~stage:Fun.id ~ingest ~filter path with
        | Ok o -> o
        | Error msg -> Alcotest.failf "lenient oracle: %s" msg
      in
      check_bool "corruption was injected" true
        (oracle.Replay.completeness.Anomaly.records_skipped > 0
         || oracle.Replay.completeness.Anomaly.corrupt_regions > 0);
      let r =
        ok_run
          (Driver.run ~config:(Driver.config ~ingest ()) ~stages:[ Stage.filter filter ]
             ~sinks:[ Sink.completeness ] (Source.file path))
      in
      check_string "lenient snapshot"
        (snap oracle.Replay.coverage)
        (snap r.Driver.product.Sink.coverage);
      check_completeness "lenient" oracle.Replay.completeness
        r.Driver.product.Sink.completeness;
      check_string "lenient ledger section"
        (Report.completeness ~name:path oracle.Replay.completeness)
        (List.assoc "completeness" r.Driver.sections))

(* --- multi-sink: one traversal feeds every consumer --- *)

let test_multi_sink_single_pass () =
  let events = synth_events ~seed:31 2_000 in
  let r =
    ok_run
      (Driver.run ~stages:[ Stage.filter filter ]
         ~sinks:
           [ Sink.summary; Sink.untested; Sink.completeness;
             Sink.tcd ~targets:[ 1.0; 100.0 ] ();
             Sink.custom ~name:"kept" (fun p ->
                 Some (string_of_int p.Sink.kept)) ]
         (Source.events ~label:"synth" events))
  in
  check_int "five sections" 5 (List.length r.Driver.sections);
  Alcotest.(check (list string))
    "section order"
    [ "summary"; "untested"; "completeness"; "tcd"; "kept" ]
    (List.map fst r.Driver.sections);
  let cov = r.Driver.product.Sink.coverage in
  check_string "summary section" (Report.suite_summary ~name:"synth" cov)
    (List.assoc "summary" r.Driver.sections);
  check_string "untested section" (Report.untested_summary ~name:"synth" cov)
    (List.assoc "untested" r.Driver.sections);
  check_string "kept section"
    (string_of_int r.Driver.product.Sink.kept)
    (List.assoc "kept" r.Driver.sections)

(* --- stages: maps compose with the filter, metering is transparent --- *)

let drop_writes (e : Event.t) =
  match e.Event.payload with
  | Event.Tracked call
    when Iocov_syscall.Model.base_of_call call = Iocov_syscall.Model.Write ->
    None
  | _ -> Some e

let test_stage_map () =
  let events = synth_events ~seed:47 4_000 in
  let kept_events =
    List.filter
      (fun e -> Filter.keeps filter e && drop_writes e <> None)
      events
  in
  let oracle, _ = Test_par.sequential_coverage filter kept_events in
  let r =
    ok_run
      (Driver.run
         ~config:(Driver.config ~batch:128 ())
         ~stages:
           [ Stage.filter filter; Stage.meter "pre";
             Stage.map ~name:"drop-writes" drop_writes; Stage.meter "post" ]
         (Source.events events))
  in
  check_string "map snapshot" (oracle_snap oracle) (snap r.Driver.product.Sink.coverage)

(* --- syzlang source: driver vs direct input-only observation --- *)

let syz_text =
  String.concat "\n"
    [ "r0 = openat(0xffffffffffffff9c, &(0x7f0000000000)='./file0\\x00', 0x42, 0x1ff)";
      "pwrite64(r0, &(0x7f0000000040)=\"deadbeef\", 0x4, 0x0)";
      "lseek(r0, 0x10, 0x1)";
      "socket(0x2, 0x1, 0x0)";
      "close(r0)" ]

let test_syz_differential () =
  let program =
    match Iocov_trace.Syzlang.parse_program syz_text with
    | Ok p -> p
    | Error msg -> Alcotest.failf "parse_program: %s" msg
  in
  let oracle = Coverage_oracle.create () in
  List.iter (Coverage_oracle.observe_input_only oracle) program.Iocov_trace.Syzlang.calls;
  let r = ok_run (Driver.run (Source.syz syz_text)) in
  check_string "snapshot" (oracle_snap oracle) (snap r.Driver.product.Sink.coverage);
  check_int "calls" (List.length program.Iocov_trace.Syzlang.calls)
    r.Driver.product.Sink.events;
  check_int "skips noted"
    (List.length program.Iocov_trace.Syzlang.skipped)
    (List.length r.Driver.product.Sink.notes)

(* --- live checkpointing: periodic atomic coverage snapshots --- *)

let test_live_checkpoint () =
  let events = synth_events ~seed:59 2_000 in
  with_temp_file (fun ckpt ->
      let feed emit = List.iter emit events in
      let r =
        ok_run
          (Driver.run ~stages:[ Stage.filter filter ]
             ~sinks:[ Sink.checkpoint ~path:ckpt ~every:500 ]
             (Source.live ~label:"synth" feed))
      in
      match Iocov_core.Snapshot.load_file ckpt with
      | Error msg -> Alcotest.failf "final live snapshot: %s" msg
      | Ok cov ->
        check_string "final snapshot = run coverage"
          (snap r.Driver.product.Sink.coverage)
          (snap cov))

(* --- configuration errors are values, never exceptions --- *)

let test_driver_errors () =
  let events = synth_events ~seed:61 100 in
  let is_error = function Ok _ -> false | Error _ -> true in
  check_bool "checkpoint sink on an event list" true
    (is_error
       (Driver.run
          ~sinks:[ Sink.checkpoint ~path:"/tmp/nope" ~every:10 ]
          (Source.events events)));
  check_bool "two checkpoint sinks" true
    (is_error
       (Driver.run
          ~sinks:
            [ Sink.checkpoint ~path:"/tmp/a" ~every:10;
              Sink.checkpoint ~path:"/tmp/b" ~every:10 ]
          (Source.file "/tmp/whatever")));
  check_bool "non-positive checkpoint interval" true
    (is_error
       (Driver.run
          ~sinks:[ Sink.checkpoint ~path:"/tmp/a" ~every:0 ]
          (Source.file "/tmp/whatever")));
  check_bool "jobs other than 1 rejected" true
    (match Driver.config ~jobs:2 () with _ -> false | exception Invalid_argument _ -> true);
  check_bool "stages on a syzlang source" true
    (is_error
       (Driver.run ~stages:[ Stage.filter filter ] (Source.syz "close(3)")));
  check_bool "missing trace file" true
    (is_error (Driver.run (Source.file "/nonexistent/iocov.trace")))

(* [iocov analyze] of a retired-format trace: the file source sees the
   trace magic and the decoder refuses the version, where a text parse
   would have misreported it. *)
let test_old_format_refused () =
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "IOCT\x02\x80\x08\xf5\x9e");
      match Driver.run ~stages:[ Stage.filter filter ] (Source.file path) with
      | Ok _ -> Alcotest.fail "a v2 trace was analyzed"
      | Error msg ->
        check_string "refusal"
          "v2 binary trace: only v3 is read; re-trace with `iocov trace --binary`" msg)

(* --- limit truncates event-list sources --- *)

let test_events_limit () =
  let events = synth_events ~seed:67 1_000 in
  let r =
    ok_run
      (Driver.run
         ~config:(Driver.config ~limit:250 ())
         ~stages:[ Stage.filter filter ]
         (Source.events events))
  in
  check_int "events limited" 250 r.Driver.product.Sink.events

(* --- all roads, one digest --- *)

(* Every road to a coverage result must produce the same ledger digest:
   the live suite run, its text trace, its v3 trace, a v3 replay killed
   at a random record and resumed from its checkpoint, and serve
   ingestion of the same v3 bytes. *)

let suite_mount = function
  | Runner.Crashmonkey -> Iocov_suites.Crashmonkey.mount
  | Runner.Xfstests -> Iocov_suites.Xfstests.mount
  | Runner.Ltp -> Iocov_suites.Ltp.mount

(* Run the suite once more with a raw-trace sink, as [iocov trace]
   does; returns the record count. *)
let write_traces ~seed ~scale ?config suite ~text ~v3 =
  let oc_t = open_out_bin text and oc_b = open_out_bin v3 in
  let w = Binary_io.writer oc_b in
  let records = ref 0 in
  let on_record ev =
    incr records;
    Format_io.sink_channel oc_t ev;
    Binary_io.sink w ev
  in
  ignore (Runner.emit ~seed ~scale ?config ~on_record suite : string list * int);
  Binary_io.flush w;
  close_out oc_b;
  close_out oc_t;
  !records

(* suite, seed, scale <= 0.05, lattice point, kill point as a share of
   the trace *)
let roads_case_gen =
  QCheck.Gen.(
    tup5
      (oneofl [ Runner.Crashmonkey; Runner.Xfstests; Runner.Ltp ])
      (int_bound 999)
      (map (fun k -> float_of_int k /. 100.0) (int_range 1 5))
      (int_bound (Vconfig.lattice_count - 1))
      (float_bound_inclusive 1.0))

let print_roads_case (suite, seed, scale, point, kill) =
  Printf.sprintf "%s seed=%d scale=%.2f point=%s kill=%.3f" (Runner.suite_name suite) seed
    scale Vconfig.lattice.(point).Vconfig.pt_name kill

let all_roads_prop =
  QCheck.Test.make ~name:"all roads, one digest" ~count:6
    (QCheck.make ~print:print_roads_case roads_case_gen)
    (fun (suite, seed, scale, point, kill) ->
      let config = Runner.config_of_point Vconfig.lattice.(point) in
      let mount = suite_mount suite in
      (* a road's result: its digest and its (records, kept) counts *)
      let road_of what = function
        | Ok { Driver.product; _ } ->
          (Ledger.digest product.Sink.coverage, (product.Sink.events, product.Sink.kept))
        | Error msg -> QCheck.Test.fail_reportf "%s: %s" what msg
      in
      let replay ?config what path =
        road_of what (Driver.run ?config ~stages:[ Stage.mount mount ] (Source.file path))
      in
      let live =
        let r = Runner.run ~seed ~scale ?config suite in
        (Ledger.digest r.Runner.coverage, (r.Runner.events_total, r.Runner.events_kept))
      in
      with_temp_file @@ fun text ->
      with_temp_file @@ fun v3 ->
      with_temp_file @@ fun ckpt ->
      let records = write_traces ~seed ~scale ?config suite ~text ~v3 in
      let limit = int_of_float (kill *. float_of_int records) in
      let killed =
        Driver.run ~config:(Driver.config ~limit ())
          ~stages:[ Stage.mount mount ]
          ~sinks:[ Sink.checkpoint ~path:ckpt ~every:1000 ]
          (Source.file v3)
      in
      (match killed with
       | Ok { Driver.product; _ } when product.Sink.events = limit -> ()
       | Ok _ -> QCheck.Test.fail_report "the killed run overran its limit"
       | Error msg -> QCheck.Test.fail_reportf "killed run: %s" msg);
      let resumed =
        match Checkpoint.load ckpt with
        | Ok ck -> replay ~config:(Driver.config ~resume:(ckpt, ck) ()) "resumed run" v3
        | Error msg -> QCheck.Test.fail_reportf "checkpoint: %s" msg
      in
      let served =
        let hub = Hub.create ~mount () in
        In_channel.with_open_bin v3 (fun ic ->
            match Binary_io.open_stream ic with
            | Error msg -> QCheck.Test.fail_reportf "open_stream: %s" msg
            | Ok st ->
              let s = Hub.open_session hub ~tenant:"t" () in
              let rec drain () =
                match Hub.ingest_step s st with
                | Ok 0 -> ()
                | Ok _ -> drain ()
                | Error msg -> QCheck.Test.fail_reportf "ingest_step: %s" msg
              in
              drain ();
              Hub.close_session s);
        let st = Option.get (Hub.stats hub ~tenant:"t") in
        (Option.get (Hub.digest hub ~tenant:"t"), (st.Hub.st_events, st.Hub.st_kept))
      in
      let roads =
        [ ("text", replay "text replay" text); ("v3", replay "v3 replay" v3);
          ("kill/resume", resumed); ("serve", served) ]
      in
      let live_digest, (live_events, live_kept) = live in
      if live_events <> records then
        QCheck.Test.fail_reportf "live road counted %d records, the trace holds %d" live_events
          records;
      List.iter
        (fun (road, (digest, (events, kept))) ->
          if digest <> live_digest then
            QCheck.Test.fail_reportf "%s digest %s <> live digest %s" road digest live_digest;
          if (events, kept) <> (live_events, live_kept) then
            QCheck.Test.fail_reportf "%s counts %d records, %d kept <> live %d records, %d kept"
              road events kept live_events live_kept)
        roads;
      true)

(* The roads that can read a damaged trace, over a v3 trace with 1–4
   bytes flipped past its 8-byte header (magic and the default chapter
   size), all lenient: the fused file replay, the event path a
   pass-through stage forces, serve ingestion, and a replay killed at a
   random record and resumed.  They must agree on the digest and on
   every completeness tally. *)

let damaged_case_gen =
  QCheck.Gen.(
    tup5
      (oneofl [ Runner.Crashmonkey; Runner.Xfstests; Runner.Ltp ])
      (int_bound 999)
      (map (fun k -> float_of_int k /. 100.0) (int_range 1 5))
      (float_bound_inclusive 1.0)
      (int_bound 999_999))

let print_damaged_case (suite, seed, scale, kill, flip_seed) =
  Printf.sprintf "%s seed=%d scale=%.2f kill=%.3f flip_seed=%d" (Runner.suite_name suite)
    seed scale kill flip_seed

let flip_random_bytes ~seed path =
  let b = In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string in
  let header = 8 in
  let rng = Iocov_util.Prng.create ~seed in
  for _ = 1 to 1 + Iocov_util.Prng.int rng 4 do
    let off = header + Iocov_util.Prng.int rng (Bytes.length b - header) in
    let mask = 1 + Iocov_util.Prng.int rng 255 in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor mask))
  done;
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let tally (c : Anomaly.completeness) =
  Printf.sprintf "read %d, skipped %d, regions %d, bytes skipped %d, truncated %b"
    c.Anomaly.events_read c.Anomaly.records_skipped c.Anomaly.corrupt_regions
    c.Anomaly.bytes_skipped c.Anomaly.truncated

let damaged_roads_prop =
  QCheck.Test.make ~name:"damaged traces, one digest" ~count:6
    (QCheck.make ~print:print_damaged_case damaged_case_gen)
    (fun (suite, seed, scale, kill, flip_seed) ->
      let mount = suite_mount suite in
      let ingest = Replay.Lenient Anomaly.Unlimited in
      let product what = function
        | Ok { Driver.product; _ } -> product
        | Error msg -> QCheck.Test.fail_reportf "%s: %s" what msg
      in
      let replay ?(config = Driver.config ~ingest ()) ?(sinks = []) what stages path =
        product what
          (Driver.run ~config ~stages:(Stage.mount mount :: stages) ~sinks (Source.file path))
      in
      let road p = (Ledger.digest p.Sink.coverage, tally p.Sink.completeness) in
      with_temp_file @@ fun text ->
      with_temp_file @@ fun v3 ->
      with_temp_file @@ fun ckpt ->
      ignore (write_traces ~seed ~scale suite ~text ~v3 : int);
      flip_random_bytes ~seed:flip_seed v3;
      let direct = replay "fused replay" [] v3 in
      let staged = replay "event-path replay" [ pass_through ] v3 in
      let limit = int_of_float (kill *. float_of_int direct.Sink.events) in
      ignore
        (replay "killed run"
           ~config:(Driver.config ~ingest ~limit ())
           ~sinks:[ Sink.checkpoint ~path:ckpt ~every:1000 ]
           [] v3
          : Sink.product);
      let resumed =
        match Checkpoint.load ckpt with
        | Ok ck ->
          replay "resumed run" ~config:(Driver.config ~ingest ~resume:(ckpt, ck) ()) [] v3
        | Error msg -> QCheck.Test.fail_reportf "checkpoint: %s" msg
      in
      let served =
        let hub = Hub.create ~mount () in
        In_channel.with_open_bin v3 (fun ic ->
            match Binary_io.open_stream ~mode:ingest ic with
            | Error msg -> QCheck.Test.fail_reportf "open_stream: %s" msg
            | Ok st ->
              let s = Hub.open_session hub ~tenant:"t" () in
              let rec drain () =
                match Hub.ingest_step s st with
                | Ok 0 -> ()
                | Ok _ -> drain ()
                | Error msg -> QCheck.Test.fail_reportf "ingest_step: %s" msg
              in
              drain ();
              Hub.close_session s;
              (Option.get (Hub.digest hub ~tenant:"t"), tally (Binary_io.completeness st)))
      in
      let expected = road direct in
      List.iter
        (fun (name, (digest, t)) ->
          if (digest, t) <> expected then
            QCheck.Test.fail_reportf "%s: digest %s (%s) <> fused replay: digest %s (%s)" name
              digest t (fst expected) (snd expected))
        [ ("event path", road staged); ("kill/resume", road resumed); ("serve", served) ];
      true)

(* --- pinned digests ---

   [pipe.roads] only checks that the roads agree with one another; a VFS
   or tracer change that shifts every road at once passes it.  These
   values were recorded before the live path's hot spots were rewritten
   and must never move unless coverage itself is meant to change. *)

let pinned_suites =
  [ (Runner.Xfstests, "default", "6431d916");
    (Runner.Xfstests, "tiny-quota", "78910b04");
    (Runner.Xfstests, "read-only", "97e0ca65");
    (Runner.Crashmonkey, "default", "6ccf5d75");
    (Runner.Crashmonkey, "tiny-quota", "6ccf5d75");
    (Runner.Crashmonkey, "read-only", "4820f900");
    (Runner.Ltp, "default", "49e53cbf");
    (Runner.Ltp, "tiny-quota", "0db4c708");
    (Runner.Ltp, "read-only", "414658d3") ]

let pinned_crash = "0803180f"

(* [iocov crash --bound 2]: every scenario under every journal mode at
   the default point, traced into the pipeline and filtered at the
   engine's mount, then the post-crash tallies folded in. *)
let crash_bound_2_coverage () =
  let module Engine = Iocov_crash.Engine in
  let reports = ref [] in
  let feed emit =
    List.iter
      (fun mode ->
        List.iter
          (fun scenario ->
            let config =
              Vconfig.with_journal_mode mode Vconfig.default_point.Vconfig.pt_config
            in
            let make_ops fs =
              let tracer = Iocov_trace.Tracer.create ~comm:"crash" fs in
              Iocov_trace.Tracer.on_event tracer emit;
              { Engine.op_exec = Iocov_trace.Tracer.exec tracer;
                op_exec_aux = Iocov_trace.Tracer.exec_aux tracer }
            in
            reports := Engine.run_scenario ~make_ops ~window:2 ~torn:true ~config scenario
                       :: !reports)
          (Engine.scenarios @ Iocov_suites.Crashmonkey.crash_scenarios))
      Vconfig.all_journal_modes
  in
  let run =
    ok_run
      (Driver.run ~stages:[ Stage.filter (Filter.mount_point Engine.mount) ]
         (Source.live ~label:"crash" feed))
  in
  let coverage = run.Driver.product.Sink.coverage in
  List.iter
    (fun r ->
      let mode = Engine.crash_mode_of_journal r.Engine.rp_mode in
      List.iter
        (fun (o, n) -> if n > 0 then Coverage.add_crash coverage mode o n)
        r.Engine.rp_tally)
    (List.rev !reports);
  coverage

(* The digest streams the snapshot text into the CRC; it must equal the
   CRC of the text built whole. *)
let check_pinned what expected coverage =
  let digest = Ledger.digest coverage in
  check_string what expected digest;
  check_string (what ^ ", CRC of the whole text")
    (Printf.sprintf "%08x" (Iocov_util.Crc32.string (Snapshot.to_string coverage)))
    digest

let test_pinned_suites () =
  List.iter
    (fun (suite, point, expected) ->
      let config = Runner.config_of_point (Option.get (Vconfig.point_named point)) in
      let r = Runner.run ~seed:42 ~scale:0.1 ?config suite in
      check_pinned
        (Printf.sprintf "%s at %s" (Runner.suite_name suite) point)
        expected r.Runner.coverage)
    pinned_suites

let test_pinned_crash () = check_pinned "crash --bound 2" pinned_crash (crash_bound_2_coverage ())

let suites =
  [ ( "pipe.suite",
      [ Alcotest.test_case "runner = direct observe, both backends" `Quick
          test_suite_differential ] );
    ( "pipe.trace",
      [ Alcotest.test_case "driver = engine, text + binary" `Quick
          test_file_differential;
        Alcotest.test_case "lenient ledger equivalence" `Quick
          test_lenient_differential ] );
    ( "pipe.sinks",
      [ Alcotest.test_case "multi-sink single pass" `Quick test_multi_sink_single_pass;
        Alcotest.test_case "live checkpoint snapshots" `Quick test_live_checkpoint ] );
    ( "pipe.stages",
      [ Alcotest.test_case "map + meter on shards" `Quick test_stage_map ] );
    ( "pipe.sources",
      [ Alcotest.test_case "syzlang = direct input-only" `Quick test_syz_differential;
        Alcotest.test_case "limit truncates events" `Quick test_events_limit ] );
    ( "pipe.errors",
      [ Alcotest.test_case "bad configurations are Error values" `Quick
          test_driver_errors;
        Alcotest.test_case "v1/v2 trace refused" `Quick test_old_format_refused ] );
    ( "pipe.roads",
      [ QCheck_alcotest.to_alcotest all_roads_prop;
        QCheck_alcotest.to_alcotest damaged_roads_prop ] );
    ( "pipe.pinned",
      [ Alcotest.test_case "suite digests at three lattice points" `Quick
          test_pinned_suites;
        Alcotest.test_case "crash --bound 2 digest" `Quick test_pinned_crash ] ) ]
