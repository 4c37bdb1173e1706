(* replay-v3: [iocov analyze TRACE --mount MOUNT] with default flags over
   a v3 corpus — the seed's xfstests, CrashMonkey and LTP traces, each
   with its suite's mount — appending to a ledger pre-seeded with
   [seeded_records] records, which is reset to them before every
   analysis so each append sees the same ledger. *)

module Runner = Iocov_suites.Runner
module Coverage = Iocov_core.Coverage
module Ledger = Iocov_pipe.Ledger
module Sink = Iocov_pipe.Sink
module Replay = Iocov_par.Replay
module Filter = Iocov_trace.Filter
module Binary_io = Iocov_trace.Binary_io

let corpus = [ Runner.Xfstests; Runner.Crashmonkey; Runner.Ltp ]
let seeded_records = 1000

type file = { suite : Runner.suite; mount : string; trace : Cli.trace; digest : string }

type state = { files : file list; ledger : string; seeded_bytes : int }

let setup (conf : Run.conf) =
  let dir = Filename.concat conf.Run.work "corpus" in
  Measure.rm_rf dir;
  Measure.mkdir_p dir;
  let files =
    List.map
      (fun suite ->
        let path =
          Filename.concat dir (String.lowercase_ascii (Runner.suite_name suite) ^ ".iocov")
        in
        let trace = Cli.write_trace ~seed:conf.Run.seed ~scale:Cli.scale suite path in
        { suite; mount = Cli.suite_mount suite; trace; digest = Ledger.digest trace.Cli.inline })
      corpus
  in
  let ledger = Filename.concat conf.Run.work "ledger" in
  let template =
    let f = List.hd files in
    Ledger.make ~time:0.0 ~subcommand:"analyze" ~label:f.trace.Cli.path
      ~flags:Cli.analyze_flags ~jobs:1 ~counters:"dense" ~events:f.trace.Cli.records
      ~kept:f.trace.Cli.records ~lost:0 ~wall_s:0.1 ~stages:[] f.trace.Cli.inline
  in
  Cli.seed_ledger ~ledger ~count:seeded_records template;
  { files; ledger; seeded_bytes = Measure.file_size (Ledger.path ~dir:ledger) }

let reset_ledger st = Unix.truncate (Ledger.path ~dir:st.ledger) st.seeded_bytes

(* --- the traced analysis: Driver.run over a v3 file composed from its parts --- *)

type traced = { t_events : int; t_kept : int; t_digest : string }

let traced_analysis ~ledger f =
  Spans.span Spans.Iteration (fun () ->
      let t0 = Iocov_obs.Clock.now () in
      let keep_hint = Filter.matches_hint (Filter.mount_point f.mount) in
      let dense, completeness, events, kept, batches =
        Spans.span Spans.Driver (fun () ->
            In_channel.with_open_bin f.trace.Cli.path (fun ic ->
                match Binary_io.open_stream ~mode:Binary_io.Strict ic with
                | Error msg -> failwith msg
                | Ok st ->
                  let d = Coverage.Dense.create () in
                  let rec loop events kept batches =
                    match
                      Spans.span Spans.Binary_io (fun () ->
                          Binary_io.drain_batch_dense st ~keep_hint ~dense:d
                            ~max:Replay.default_batch ())
                    with
                    | Error msg -> failwith msg
                    | Ok dr when dr.Binary_io.dr_produced = 0 -> (events, kept, batches)
                    | Ok dr ->
                      loop (events + dr.Binary_io.dr_produced) (kept + dr.Binary_io.dr_kept)
                        (batches + 1)
                  in
                  let events, kept, batches = loop 0 0 0 in
                  (d, Binary_io.completeness st, events, kept, batches)))
      in
      let coverage = Spans.span Spans.To_reference (fun () -> Coverage.Dense.to_reference dense) in
      let product =
        { Sink.label = f.trace.Cli.path; coverage; completeness; events; kept;
          dropped = events - kept; shards = 1; batches; notes = [] }
      in
      Spans.span Spans.Report (fun () -> ignore (Cli.render_sections product : int));
      let digest = Spans.span Spans.Digest (fun () -> Ledger.digest coverage) in
      let bitmap = Spans.span Spans.Bitmap (fun () -> Ledger.bitmap coverage) in
      let record =
        Cli.record ~subcommand:"analyze" ~label:product.Sink.label ~flags:Cli.analyze_flags
          ~events ~kept ~lost:(Cli.lost completeness)
          ~wall_s:(Iocov_obs.Clock.now () -. t0) ~digest ~bitmap coverage
      in
      Spans.span Spans.Ledger_append (fun () -> ignore (Cli.append ~ledger record));
      { t_events = events; t_kept = kept; t_digest = digest })

(* --- the run --- *)

let run (conf : Run.conf) =
  let o = Run.outcome () in
  let setup_s, st = Run.repeat_setup ~reps:3 (fun () -> setup conf) in
  let records_per_pass = List.fold_left (fun n f -> n + f.trace.Cli.records) 0 st.files in
  if conf.Run.plant = Run.Flip_byte then begin
    let f = List.hd st.files in
    Measure.flip_byte f.trace.Cli.path (f.trace.Cli.bytes / 2)
  end;
  Measure.reset_peak_rss ();
  let untraced = Measure.samples () and traced = Measure.samples () in
  let words = Measure.samples () and probe = Run.probe () in
  let last_coverage = ref None in
  let decoded = ref 0 and decoded_kept = ref 0 in
  let check f ~what digest =
    Run.check_digest o conf ~what:(Printf.sprintf "%s (%s)" f.trace.Cli.path what)
      ~expect:f.digest digest
  in
  (* one pass analyzes every file once; only the analyses are timed *)
  Run.timed_loop ~seconds:conf.Run.seconds ~min_iters:(if conf.Run.trace then 4 else 2)
    (fun i ->
      let traced_pass = conf.Run.trace && i mod 2 = 1 in
      let wall = ref 0.0 and w = ref 0.0 and probe_cov = ref None in
      List.iter
        (fun f ->
          reset_ledger st;
          Iocov_obs.Span.reset ();
          if traced_pass then begin
            let t, dt, _ =
              Run.measure (fun () ->
                  try Ok (traced_analysis ~ledger:st.ledger f) with Failure msg -> Error msg)
            in
            wall := !wall +. dt;
            match t with
            | Ok t ->
              decoded := !decoded + t.t_events;
              decoded_kept := !decoded_kept + t.t_kept;
              check f ~what:"traced" t.t_digest
            | Error msg -> Run.mismatch o "%s: traced analysis failed: %s" f.trace.Cli.path msg
          end
          else begin
            let a, dt, dw = Run.measure (fun () -> Cli.analyze ~ledger:st.ledger ~mount:f.mount f.trace.Cli.path) in
            wall := !wall +. dt;
            w := !w +. dw;
            o.Run.attempted <- o.Run.attempted + f.trace.Cli.records;
            match a with
            | Ok a ->
              let p = a.Cli.product in
              o.Run.failed <- o.Run.failed + Cli.lost p.Sink.completeness;
              if p.Sink.events <> f.trace.Cli.records then
                Run.mismatch o "%s: analyzed %d records, %d were written" f.trace.Cli.path
                  p.Sink.events f.trace.Cli.records;
              if !probe_cov = None then probe_cov := Some p.Sink.coverage;
              check f ~what:"analyze" a.Cli.record.Ledger.r_digest
            | Error msg ->
              o.Run.failed <- o.Run.failed + f.trace.Cli.records;
              Run.mismatch o "%s: analyze failed: %s" f.trace.Cli.path msg
          end)
        st.files;
      if traced_pass then Measure.push traced !wall
      else begin
        Measure.push untraced !wall;
        Measure.push words !w;
        Option.iter
          (fun cov ->
            last_coverage := Some cov;
            if not conf.Run.trace then Run.probe_after probe cov ~command_s:!wall)
          !probe_cov
      end);
  let rss = Measure.peak_rss_mb () in
  (* records per second over all passes of a kind *)
  let rate s = float_of_int (records_per_pass * Measure.count s) /. Measure.sum s in
  if conf.Run.trace then begin
    let bytes = List.fold_left (fun n f -> n + f.trace.Cli.bytes) 0 st.files in
    Run.layer_metrics o
      { Run.no_counts with
        Run.decoded = !decoded;
        decoded_kept = !decoded_kept;
        bytes_per_record = float_of_int bytes /. float_of_int records_per_pass;
        ledger_records = float_of_int seeded_records;
        untraced_rate = rate untraced;
        traced_rate = rate traced }
  end
  else begin
    Run.end_to_end o ~setup_s ~events_per_s:(rate untraced)
      ~words_per_event:
        (Measure.sum words /. float_of_int (records_per_pass * Measure.count words))
      ~rss;
    match !last_coverage with
    | Some cov -> Run.probe_metrics o probe cov
    | None -> Run.mismatch o "no analysis of %s succeeded" (List.hd st.files).trace.Cli.path
  end;
  o
