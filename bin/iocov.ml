(* The iocov command-line tool.

   Subcommands mirror the paper's pipeline: run a simulated tester under
   the tracer ([suite]), analyze a stored trace ([analyze]), compare the
   two testers figure-by-figure ([compare]), evaluate TCD ([tcd]), and
   reproduce the bug study and the differential-testing demo.

   Shared flags live in [Opts]; every coverage-producing subcommand is a
   declarative [Iocov_pipe] pipeline — a source, a stage chain, and the
   sinks whose sections it prints (DESIGN.md §13). *)

open Cmdliner
module Runner = Iocov_suites.Runner
module Coverage = Iocov_core.Coverage
module Report = Iocov_core.Report
module Tcd = Iocov_core.Tcd
module Arg_class = Iocov_core.Arg_class
module Fault = Iocov_vfs.Fault
module Obs = Iocov_obs
module Pipe = Iocov_pipe
module Sink = Iocov_pipe.Sink
module Ledger = Iocov_pipe.Ledger
module Replay = Iocov_par.Replay
module Anomaly = Iocov_util.Anomaly

let die = Opts.die

let arg_class_of_name name =
  match Arg_class.of_name name with
  | Some a -> a
  | None -> die "unknown tracked argument %S (e.g. open.flags, write.count)" name

let print_sections sections = List.iter (fun (_, text) -> print_endline text) sections

(* --- the run ledger: one manifest record per completed run --- *)

(* Root spans completed so far become the record's per-stage durations;
   a failed append is a warning, never a failed run.  Every command
   appends before it prints, so a reader that closes stdout early
   (SIGPIPE) cannot cost the run its record. *)
let ledger_append ~ledger ?seed ?tenant ?config ~subcommand ~label ~flags ~events ~kept
    ~lost ~wall_s coverage =
  match ledger with
  | None -> ()
  | Some dir ->
    let stages =
      List.map (fun n -> (n.Obs.Span.name, n.Obs.Span.duration_s)) (Obs.Span.roots ())
    in
    let r =
      Ledger.make ~time:(Obs.Clock.now ()) ?seed ?tenant ?config ~subcommand ~label
        ~flags ~jobs:1 ~counters:"dense" ~events ~kept ~lost ~wall_s
        ~stages coverage
    in
    (match Ledger.append ~dir r with
     | Ok _ -> ()
     | Error msg -> Printf.eprintf "warning: ledger: %s\n" msg)

(* --- suite --- *)

module Vconfig = Iocov_vfs.Config

(* The ledger names the lattice point the run was pinned to, and its
   config digest — `runs diff` refuses to compare across digests. *)
let ledger_config (point : Vconfig.point) =
  (point.Vconfig.pt_name, Vconfig.digest point.Vconfig.pt_config)

(* Differential sections for a multi-point sweep: the per-config matrix
   always, the gained/lost cell diff on request. *)
let print_config_sections ~config_diff rows =
  print_endline (Report.config_matrix ~target:1000.0 ~theta:10.0 rows);
  if config_diff then print_endline (Report.config_diff rows)

let check_config_diff ~config_diff points =
  if config_diff && List.length points < 2 then
    die "--config-diff needs at least two --configs points"

let print_result (r : Runner.result) =
  Printf.printf "%s: %d workloads, %s traced records (%s within the mount), %.2fs\n"
    (Runner.suite_name r.Runner.suite) r.Runner.workloads
    (Iocov_util.Ascii.si_count r.Runner.events_total)
    (Iocov_util.Ascii.si_count r.Runner.events_kept)
    r.Runner.elapsed_s;
  (match r.Runner.failures with
   | [] -> print_endline "oracle: no violations"
   | failures ->
     Printf.printf "oracle: %d violations (bugs found by the suite):\n" (List.length failures);
     List.iteri
       (fun i f -> if i < 25 then Printf.printf "  %s\n" f)
       failures;
     if List.length failures > 25 then
       Printf.printf "  ... and %d more\n" (List.length failures - 25));
  print_endline (Report.suite_summary ~name:(Runner.suite_name r.Runner.suite) r.Runner.coverage);
  print_endline (Report.untested_summary ~name:(Runner.suite_name r.Runner.suite) r.Runner.coverage)

let suite_cmd =
  let run obs suite seed scale faults progress ledger points config_diff =
    Opts.with_obs obs (fun () ->
        check_config_diff ~config_diff points;
        let rows =
          Runner.run_lattice ~seed ~scale ~faults ?progress:(Opts.progress_conf progress)
            ~points suite
        in
        let flags =
          ("scale", string_of_float scale)
          :: (match faults with
              | [] -> []
              | fs -> [ ("faults", String.concat "," (List.map Fault.to_string fs)) ])
        in
        List.iter
          (fun (point, (r : Runner.result)) ->
            ledger_append ~ledger ~seed ~config:(ledger_config point)
              ~subcommand:"suite" ~label:(Runner.suite_name suite) ~flags
              ~events:r.Runner.events_total ~kept:r.Runner.events_kept
              ~lost:0 ~wall_s:r.Runner.elapsed_s r.Runner.coverage)
          rows;
        (match rows with
         | [ (_, r) ] -> print_result r
         | rows ->
           List.iter
             (fun ((point : Vconfig.point), (r : Runner.result)) ->
               Printf.printf "config %-22s %d workloads, %s records kept, %d oracle \
                              violations, %.2fs\n"
                 point.Vconfig.pt_name r.Runner.workloads
                 (Iocov_util.Ascii.si_count r.Runner.events_kept)
                 (List.length r.Runner.failures) r.Runner.elapsed_s)
             rows;
           print_newline ();
           print_config_sections ~config_diff
             (List.map
                (fun ((point : Vconfig.point), (r : Runner.result)) ->
                  (point.Vconfig.pt_name, r.Runner.coverage))
                rows)))
  in
  let suite_pos =
    Arg.(required & pos 0 (some Opts.suite_conv) None & info [] ~docv:"SUITE")
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"Run one simulated tester under the tracer and report coverage.")
    Term.(
      const run $ Opts.obs_term $ suite_pos $ Opts.seed $ Opts.scale $ Opts.faults
      $ Opts.progress_term $ Opts.ledger_term
      $ Opts.configs_term $ Opts.config_diff)

(* --- trace: run a suite and store the raw trace --- *)

let trace_cmd =
  let run obs suite seed scale file binary =
    Opts.with_obs obs @@ fun () ->
    (* Re-run the suite with a file sink as its only consumer; the trace
       is raw (unfiltered), as a kernel tracer would deliver it. *)
    let oc = if binary then open_out_bin file else open_out file in
    let writer = if binary then Some (Iocov_trace.Binary_io.writer oc) else None in
    let on_record =
      match writer with
      | Some w -> Iocov_trace.Binary_io.sink w
      | None -> Iocov_trace.Format_io.sink_channel oc
    in
    ignore (Runner.emit ~seed ~scale ~on_record suite : string list * int);
    Option.iter Iocov_trace.Binary_io.flush writer;
    close_out oc;
    Printf.printf "wrote %s\n" file
  in
  let suite_pos =
    Arg.(required & pos 0 (some Opts.suite_conv) None & info [] ~docv:"SUITE")
  in
  let out_arg =
    Arg.(value & opt string "trace.txt" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let binary_arg =
    Arg.(value & flag & info [ "binary" ]
           ~doc:"Write the compact binary format (CTF-analogue) instead of text.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a suite and write its raw (unfiltered) trace to a file for later analysis.")
    Term.(const run $ Opts.obs_term $ suite_pos $ Opts.seed $ Opts.scale $ out_arg $ binary_arg)

(* --- analyze a stored trace --- *)

let analyze_cmd =
  let run obs file patterns mount save ingest ckpt resume limit progress ledger =
    Opts.with_obs obs @@ fun () ->
    let resume =
      match resume with
      | None -> None
      | Some path -> (
        match Iocov_par.Checkpoint.load path with
        | Ok ck -> Some (path, ck)
        | Error msg -> die "cannot resume from %s: %s" path msg)
    in
    let file =
      match (file, resume) with
      | Some f, _ -> f
      | None, Some (_, ck) -> ck.Iocov_par.Checkpoint.trace
      | None, None -> die "a TRACE argument (or --resume) is required"
    in
    let filter =
      match (patterns, mount) with
      | [], None -> Iocov_trace.Filter.mount_point "/mnt/test"
      | [], Some m -> Iocov_trace.Filter.mount_point m
      | ps, _ ->
        (match Iocov_trace.Filter.create ~patterns:ps with
         | Ok f -> f
         | Error msg -> die "--filter: %s" msg)
    in
    (* The whole subcommand is one pipeline: the trace file is the
       source, the record filter a stage, and every printed section a
       sink over the single traversal's product. *)
    let header =
      Sink.custom ~name:"header" (fun p ->
          Some
            (Printf.sprintf "%s: %d records kept, %d filtered out" p.Sink.label
               p.Sink.kept p.Sink.dropped))
    in
    let sinks =
      [ header; Sink.completeness; Sink.summary; Sink.untested ]
      @ (match save with Some path -> [ Sink.snapshot ~path ] | None -> [])
      @ (match ckpt with
         | Some (path, every) -> [ Sink.checkpoint ~path ~every ]
         | None -> [])
    in
    let budget = match ingest with Replay.Lenient b -> Some b | _ -> None in
    let config =
      Pipe.Driver.config ~ingest ?limit ?resume
        ?progress:(Opts.progress_conf ?budget progress) ()
    in
    let t0 = Obs.Clock.now () in
    match
      Pipe.Driver.run ~config ~stages:[ Pipe.Stage.filter filter ] ~sinks
        (Pipe.Source.file file)
    with
    | Ok { product; sections } ->
      let c = product.Sink.completeness in
      let flags =
        [ ("ingest",
           match ingest with Replay.Strict -> "strict" | Replay.Lenient _ -> "lenient") ]
        @ (match limit with Some n -> [ ("limit", string_of_int n) ] | None -> [])
        @ (match resume with Some (p, _) -> [ ("resume", p) ] | None -> [])
      in
      ledger_append ~ledger ~subcommand:"analyze" ~label:product.Sink.label ~flags
        ~events:product.Sink.events ~kept:product.Sink.kept
        ~lost:(c.Anomaly.records_skipped + c.Anomaly.events_abandoned)
        ~wall_s:(Obs.Clock.now () -. t0) product.Sink.coverage;
      print_sections sections
    | Error msg -> die "%s" msg
  in
  let file_pos =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"TRACE"
             ~doc:"Trace file to analyze; optional with $(b,--resume), which remembers it.")
  in
  let patterns_arg =
    Arg.(value & opt_all string [] & info [ "filter" ] ~docv:"REGEX"
           ~doc:"Keep records whose path matches (repeatable).")
  in
  let mount_arg =
    Arg.(value & opt (some string) None & info [ "mount" ] ~docv:"PATH"
           ~doc:"Keep records under this mount point (default /mnt/test).")
  in
  let save_arg =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Write the computed coverage as a snapshot file.")
  in
  let resume_arg =
    Arg.(value & opt (some file) None
         & info [ "resume" ] ~docv:"CKPT"
             ~doc:"Continue a crashed replay from a checkpoint file; the final report is \
                   byte-identical to an uninterrupted run's.")
  in
  let limit_arg =
    Arg.(value & opt (some int) None
         & info [ "limit" ] ~docv:"N"
             ~doc:"Stop after $(docv) records (with $(b,--checkpoint), the final checkpoint \
                   marks the stopping point).")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Compute input/output coverage from a stored trace file.")
    Term.(
      const run $ Opts.obs_term $ file_pos $ patterns_arg $ mount_arg $ save_arg
      $ Opts.ingest_term $ Opts.checkpoint_term
      $ resume_arg $ limit_arg $ Opts.progress_term $ Opts.ledger_term)

(* --- compare: the paper's evaluation --- *)

let compare_cmd =
  let run obs seed scale =
    Opts.with_obs obs @@ fun () ->
    let cm, xf = Runner.run_both ~seed ~scale () in
    let name_a = "CrashMonkey" and name_b = "xfstests" in
    let cov_a = cm.Runner.coverage and cov_b = xf.Runner.coverage in
    print_endline (Report.figure2 ~name_a ~cov_a ~name_b ~cov_b);
    print_endline (Report.table1 ~name_a ~cov_a ~name_b ~cov_b);
    print_endline (Report.figure3 ~name_a ~cov_a ~name_b ~cov_b);
    print_endline (Report.figure4 ~name_a ~cov_a ~name_b ~cov_b);
    print_endline
      (Report.figure5 ~name_a ~cov_a ~name_b ~cov_b
         ~targets:(Tcd.log_targets ~lo_log10:0.0 ~hi_log10:7.0 ~per_decade:1))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run CrashMonkey and xfstests and print Figures 2-5 and Table 1.")
    Term.(const run $ Opts.obs_term $ Opts.seed $ Opts.scale)

(* --- tcd --- *)

let tcd_cmd =
  let run obs seed scale arg_name =
    Opts.with_obs obs @@ fun () ->
    let arg = arg_class_of_name arg_name in
    let cm, xf = Runner.run_both ~seed ~scale () in
    let freqs cov =
      Array.of_list (List.map snd (Coverage.input_series cov arg))
    in
    let f_cm = freqs cm.Runner.coverage and f_xf = freqs xf.Runner.coverage in
    List.iter
      (fun target ->
        Printf.printf "T=%-10.0f CrashMonkey %.3f   xfstests %.3f\n" target
          (Tcd.tcd_uniform ~frequencies:f_cm ~target)
          (Tcd.tcd_uniform ~frequencies:f_xf ~target))
      (Tcd.log_targets ~lo_log10:0.0 ~hi_log10:7.0 ~per_decade:2);
    match Tcd.crossover ~f1:f_cm ~f2:f_xf ~lo:1.0 ~hi:1e7 with
    | Some t -> Printf.printf "crossover at T ~= %.0f\n" t
    | None -> print_endline "no crossover in [1, 1e7]"
  in
  let arg_name =
    Arg.(value & opt string "open.flags" & info [ "arg" ] ~docv:"ARG"
           ~doc:"Tracked argument (e.g. open.flags, write.count).")
  in
  Cmd.v
    (Cmd.info "tcd" ~doc:"Test Coverage Deviation sweep for one tracked argument.")
    Term.(
      const run $ Opts.obs_term $ Opts.seed $ Opts.scale $ arg_name)

(* --- adequacy: the under/over-testing classifier --- *)

let adequacy_cmd =
  let run obs suite seed scale arg_name target theta =
    Opts.with_obs obs @@ fun () ->
    let arg = arg_class_of_name arg_name in
    let r = Runner.run ~seed ~scale suite in
    print_endline
      (Report.adequacy_table ~name:(Runner.suite_name suite) r.Runner.coverage ~arg ~target
         ~theta);
    let rows = Iocov_core.Adequacy.input_report r.Runner.coverage arg ~target ~theta in
    let s = Iocov_core.Adequacy.summarize rows in
    Printf.printf "\nsummary: %d untested, %d under-tested, %d adequate, %d over-tested\n"
      s.Iocov_core.Adequacy.untested s.Iocov_core.Adequacy.under
      s.Iocov_core.Adequacy.adequate s.Iocov_core.Adequacy.over;
    List.iter
      (fun hint -> print_endline ("hint: " ^ hint))
      (Iocov_core.Adequacy.rebalance_hint Iocov_core.Partition.label rows)
  in
  let suite_pos =
    Arg.(required & pos 0 (some Opts.suite_conv) None & info [] ~docv:"SUITE")
  in
  let arg_name =
    Arg.(value & opt string "open.flags" & info [ "arg" ] ~docv:"ARG"
           ~doc:"Tracked argument to classify.")
  in
  let target_arg =
    Arg.(value & opt float 1000.0 & info [ "target" ] ~docv:"T"
           ~doc:"Desired test frequency per partition.")
  in
  let theta_arg =
    Arg.(value & opt float 10.0 & info [ "theta" ] ~docv:"THETA"
           ~doc:"Tolerance factor: under below T/theta, over above T*theta.")
  in
  Cmd.v
    (Cmd.info "adequacy"
       ~doc:"Classify each partition of one argument as untested, under-tested, adequate, \
             or over-tested against a target frequency.")
    Term.(
      const run $ Opts.obs_term $ suite_pos $ Opts.seed $ Opts.scale $ arg_name
      $ target_arg $ theta_arg)

(* --- bugstudy / differential / faults --- *)

let bugstudy_cmd =
  let run () =
    print_endline (Iocov_bugstudy.Stats.render (Iocov_bugstudy.Stats.of_dataset ()));
    print_endline "Trigger syscalls across the 70 bugs:";
    List.iter
      (fun (base, n) ->
        Printf.printf "  %-10s %d\n" (Iocov_syscall.Model.base_name base) n)
      (Iocov_bugstudy.Stats.trigger_frequency Iocov_bugstudy.Dataset.all)
  in
  Cmd.v
    (Cmd.info "bugstudy" ~doc:"Reproduce the Section 2 bug-study statistics.")
    Term.(const run $ const ())

let differential_cmd =
  let run obs budget =
    Opts.with_obs obs @@ fun () ->
    let reports = Iocov_bugstudy.Differential.campaign ~budget () in
    print_endline (Iocov_bugstudy.Differential.render reports);
    Printf.printf "detection rate: code-coverage-style %.0f%%, IOCov-guided %.0f%%\n"
      (100.0
       *. Iocov_bugstudy.Differential.detection_rate reports
            Iocov_bugstudy.Differential.Code_coverage_style)
      (100.0
       *. Iocov_bugstudy.Differential.detection_rate reports
            Iocov_bugstudy.Differential.Iocov_guided)
  in
  Cmd.v
    (Cmd.info "differential"
       ~doc:"Hunt injected faults with code-coverage-style vs IOCov-guided probes.")
    Term.(const run $ Opts.obs_term $ Opts.budget ~default:64 ~doc:"Probes per strategy.")

let faults_cmd =
  let run () =
    List.iter
      (fun f -> Printf.printf "%-28s %s\n" (Fault.to_string f) (Fault.describe f))
      Fault.all
  in
  Cmd.v (Cmd.info "faults" ~doc:"List injectable file-system faults.") Term.(const run $ const ())

let configs_cmd =
  let run () =
    print_string (Vconfig.print_lattice ());
    Printf.printf "# %d points, lattice digest %s\n" Vconfig.lattice_count
      Vconfig.lattice_digest
  in
  Cmd.v
    (Cmd.info "configs"
       ~doc:"List the built-in config lattice in $(b,--configs) file form: one \
             $(b,NAME CONFIG) line per point, usable as a custom-lattice template.")
    Term.(const run $ const ())

(* --- report: load and merge coverage snapshots --- *)

let report_cmd =
  let run obs files =
    Opts.with_obs obs @@ fun () ->
    let coverage = Coverage.create () in
    let ok =
      List.for_all
        (fun file ->
          match Iocov_core.Snapshot.load_file file with
          | Ok cov ->
            Coverage.merge_into ~dst:coverage cov;
            true
          | Error msg ->
            Printf.eprintf "error: %s: %s\n" file msg;
            false)
        files
    in
    (* a refused snapshot fails the command, as it fails [analyze] *)
    if not ok then exit 1;
    let name = String.concat "+" files in
    print_endline (Report.suite_summary ~name coverage);
    print_endline (Report.untested_summary ~name coverage)
  in
  let files_pos = Arg.(non_empty & pos_all file [] & info [] ~docv:"SNAPSHOT") in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Load one or more coverage snapshots (see $(b,analyze --save)), merge them, \
             and print the coverage report.")
    Term.(const run $ Opts.obs_term $ files_pos)

(* --- syz: input coverage of a Syzkaller program --- *)

let syz_cmd =
  let run obs ledger file =
    Opts.with_obs obs @@ fun () ->
    let text = In_channel.with_open_text file In_channel.input_all in
    let header =
      Sink.custom ~name:"header" (fun p ->
          Some
            (Printf.sprintf "%s: %d modeled calls, %d foreign syscalls skipped%s"
               p.Sink.label p.Sink.events
               (List.length p.Sink.notes)
               (String.concat ""
                  (List.map (fun note -> "\n  " ^ note) p.Sink.notes))))
    in
    let caveat =
      Sink.custom ~name:"caveat" (fun _ ->
          Some "(program logs carry no return values, so only input coverage is measured)")
    in
    let t0 = Obs.Clock.now () in
    match
      Pipe.Driver.run
        ~sinks:[ header; Sink.summary; Sink.untested; caveat ]
        (Pipe.Source.syz ~label:file text)
    with
    | Ok { product; sections } ->
      ledger_append ~ledger ~subcommand:"syz" ~label:file ~flags:[]
        ~events:product.Sink.events ~kept:product.Sink.kept ~lost:0
        ~wall_s:(Obs.Clock.now () -. t0) product.Sink.coverage;
      print_sections sections
    | Error msg -> Printf.eprintf "error: %s\n" msg
  in
  let file_pos = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM") in
  Cmd.v
    (Cmd.info "syz"
       ~doc:"Measure the input coverage of a Syzkaller program log (syzlang format).")
    Term.(const run $ Opts.obs_term $ Opts.ledger_term $ file_pos)

(* --- metrics: run a suite, dump the self-observability registry --- *)

let metrics_cmd =
  let run obs suite seed scale faults json out =
    Opts.with_obs obs @@ fun () ->
    (* Start from a clean registry so two invocations with the same
       seed/scale/faults produce identical counters (timings aside). *)
    Obs.Metrics.reset Obs.Metrics.default;
    Obs.Span.reset ();
    Obs.Log.reset_seq ();
    let r = Runner.run ~seed ~scale ~faults suite in
    Printf.printf "%s: %d workloads, %s traced records, %.2fs\n\n"
      (Runner.suite_name r.Runner.suite) r.Runner.workloads
      (Iocov_util.Ascii.si_count r.Runner.events_total)
      r.Runner.elapsed_s;
    let spans = Obs.Span.roots () in
    List.iter (fun root -> print_string (Obs.Span.render root)) spans;
    print_newline ();
    let body =
      if json then Obs.Export.registry_report ~spans Obs.Metrics.default
      else Obs.Export.to_prometheus Obs.Metrics.default
    in
    match out with
    | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc body);
      Printf.printf "registry written to %s\n" path
    | None -> print_string body
  in
  let suite_arg =
    Arg.(
      value
      & opt Opts.suite_conv Runner.Xfstests
      & info [ "suite" ] ~docv:"SUITE" ~doc:"Suite to run (crashmonkey|xfstests|ltp).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Combined JSON report instead of Prometheus text.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the registry to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run one suite and print the self-observability registry: pipeline counters \
             and histograms, plus the span-tree profile of the run.")
    Term.(
      const run $ Opts.obs_term $ suite_arg $ Opts.seed $ Opts.scale $ Opts.faults
      $ json_arg $ out_arg)

(* --- runs: inspect the persistent run ledger --- *)

let runs_cmd =
  let dir_arg =
    Arg.(
      value
      & opt string Ledger.default_dir
      & info [ "ledger" ] ~docv:"DIR"
          ~doc:"Ledger directory (default $(b,.iocov)).")
  in
  let get records dir key =
    match Ledger.find records key with
    | Some r -> r
    | None -> die "no run %S in %s (try: iocov runs list)" key (Ledger.path ~dir)
  in
  let last_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "last" ] ~docv:"N" ~doc:"Show only the newest $(docv) runs.")
  in
  let list_run dir last =
    let loaded = Ledger.load ~dir in
    let loaded =
      match last with
      | None -> loaded
      | Some n when n >= 0 -> Ledger.last n loaded
      | Some n -> die "--last %d: N must be non-negative" n
    in
    print_string (Ledger.render_list loaded)
  in
  let list_cmd =
    Cmd.v
      (Cmd.info "list" ~doc:"List every recorded run, newest last.")
      Term.(const list_run $ dir_arg $ last_arg)
  in
  let show_cmd =
    let run dir key =
      let { Ledger.records; _ } = Ledger.load ~dir in
      print_string (Ledger.render_show (get records dir key))
    in
    let key_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN") in
    Cmd.v
      (Cmd.info "show" ~doc:"Show one recorded run's full manifest.")
      Term.(const run $ dir_arg $ key_pos)
  in
  let diff_cmd =
    let run dir key_a key_b cross_config =
      let { Ledger.records; _ } = Ledger.load ~dir in
      let a = get records dir key_a and b = get records dir key_b in
      (* Cells gained under a different config are a config difference,
         not a coverage regression — comparing them silently would read
         as one.  Cross-lattice diffs must be asked for. *)
      if Ledger.config_clash a b && not cross_config then
        die
          "runs %s and %s were recorded under different configs (%s vs %s); pass \
           --cross-config to compare them anyway"
          key_a key_b (Ledger.config_name a) (Ledger.config_name b);
      print_string (Ledger.render_diff ~a ~b (Ledger.diff a b))
    in
    let a_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"A") in
    let b_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"B") in
    let cross_config_arg =
      Arg.(
        value & flag
        & info [ "cross-config" ]
            ~doc:"Allow diffing two runs recorded under different config-lattice \
                  points; by default such a diff is refused since cell deltas would \
                  mix config effects with coverage changes.")
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:"Compare two recorded runs: coverage cells gained and lost, and \
               throughput regressions.  Runs are named by id ($(b,r3)) or 1-based \
               position.")
      Term.(const run $ dir_arg $ a_pos $ b_pos $ cross_config_arg)
  in
  Cmd.group
    (Cmd.info "runs"
       ~doc:"Inspect the persistent run ledger ($(b,.iocov/runs.jsonl)): every \
             coverage-producing run appends one manifest record; list, show, and \
             diff them.")
    ~default:Term.(const list_run $ dir_arg $ last_arg)
    [ list_cmd; show_cmd; diff_cmd ]

(* --- fuzz: feedback-comparison fuzzer --- *)

let fuzz_cmd =
  let run obs budget seed faults compare points config_diff =
    Opts.with_obs obs @@ fun () ->
    let module Fuzzer = Iocov_suites.Fuzzer in
    check_config_diff ~config_diff points;
    let show (r : Fuzzer.result) =
      Printf.printf "%s: %d executions, corpus %d, %d partitions covered%s\n"
        (Fuzzer.feedback_name r.Fuzzer.feedback)
        r.Fuzzer.executions r.Fuzzer.corpus_size
        (Fuzzer.covered_partitions r.Fuzzer.coverage)
        (if faults = [] then ""
         else Printf.sprintf ", %d deviations from the reference" r.Fuzzer.crashes)
    in
    if compare then begin
      if List.length points > 1 then
        die "--compare runs a single config; drop --configs or pick one point";
      let outcome, partition = Fuzzer.compare_feedbacks ~seed ~budget () in
      show outcome;
      show partition;
      print_endline "\ncoverage growth (executions -> partitions covered):";
      List.iter2
        (fun (e, a) (_, b) -> Printf.printf "  %6d  outcome %4d   partition %4d\n" e a b)
        outcome.Fuzzer.growth partition.Fuzzer.growth
    end
    else begin
      match points with
      | [ _ ] ->
        let r = Fuzzer.run ~seed ~budget ~faults ~feedback:Fuzzer.Partition_novelty () in
        show r;
        print_endline (Report.untested_summary ~name:"fuzzer" r.Fuzzer.coverage)
      | points ->
        let rows =
          List.map
            (fun (point : Vconfig.point) ->
              let r =
                Fuzzer.run ~seed ~budget ~faults
                  ?config:(Runner.config_of_point point)
                  ~feedback:Fuzzer.Partition_novelty ()
              in
              Printf.printf "config %-22s " point.Vconfig.pt_name;
              show r;
              (point.Vconfig.pt_name, r.Fuzzer.coverage))
            points
        in
        print_newline ();
        print_config_sections ~config_diff rows
    end
  in
  let compare_arg =
    Arg.(value & flag & info [ "compare" ]
           ~doc:"Run both feedback signals and print the growth curves side by side.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Fuzz the modeled file system with partition-novelty (IOCov-guided) feedback; \
             $(b,--compare) pits it against path-style outcome-novelty feedback.")
    Term.(
      const run $ Opts.obs_term $ Opts.budget ~default:2000 ~doc:"Program executions."
      $ Opts.seed $ Opts.faults $ compare_arg
      $ Opts.configs_term $ Opts.config_diff)

(* --- serve: the multi-tenant coverage daemon, and its clients --- *)

module Serve_hub = Iocov_serve.Hub
module Serve_server = Iocov_serve.Server

let socket_required =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of the daemon.")

let serve_cmd =
  let run obs socket ingests follow mount batch ledger =
    Opts.with_obs obs @@ fun () ->
    let parse_ingest spec =
      match String.index_opt spec '=' with
      | Some i when i > 0 && i < String.length spec - 1 ->
        (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
      | _ -> die "--ingest %S: expected TENANT=FILE" spec
    in
    let ingests = List.map parse_ingest ingests in
    if socket = None && ingests = [] then
      die "serve needs --socket PATH and/or --ingest TENANT=FILE";
    if batch <= 0 then die "--batch must be positive";
    let config =
      { Serve_server.default_config with
        Serve_server.socket; ingests; follow; mount = Some mount; batch }
    in
    let t0 = Obs.Clock.now () in
    match Serve_server.run config with
    | Error msg -> die "%s" msg
    | Ok outcome ->
      List.iter
        (fun (o : Serve_server.tenant_outcome) ->
          let st = o.Serve_server.o_stats in
          ledger_append ~ledger ~tenant:o.Serve_server.o_tenant
            ?config:o.Serve_server.o_config ~subcommand:"serve"
            ~label:(match socket with Some s -> s | None -> "files")
            ~flags:[ ("mount", mount) ]
            ~events:st.Serve_hub.st_events
            ~kept:st.Serve_hub.st_kept ~lost:st.Serve_hub.st_lost
            ~wall_s:(Obs.Clock.now () -. t0)
            o.Serve_server.o_coverage)
        outcome.Serve_server.o_tenants;
      List.iter
        (fun (o : Serve_server.tenant_outcome) ->
          let st = o.Serve_server.o_stats in
          Printf.printf
            "tenant %-12s %d events (%d kept), %d epochs published, digest %s\n"
            o.Serve_server.o_tenant st.Serve_hub.st_events st.Serve_hub.st_kept
            st.Serve_hub.st_publishes
            (Ledger.digest o.Serve_server.o_coverage))
        outcome.Serve_server.o_tenants;
      Printf.printf "served %d tenant%s in %.2fs\n"
        (List.length outcome.Serve_server.o_tenants)
        (if List.length outcome.Serve_server.o_tenants = 1 then "" else "s")
        outcome.Serve_server.o_wall_s
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen for ingest and query connections on this Unix-domain socket.")
  in
  let ingest_arg =
    Arg.(
      value & opt_all string []
      & info [ "ingest" ] ~docv:"TENANT=FILE"
          ~doc:"Tail a local trace file into this tenant (repeatable).")
  in
  let follow_arg =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:"Keep tailing $(b,--ingest) files after EOF (frame-aligned appends) \
                until a shutdown request arrives.")
  in
  let mount_arg =
    Arg.(
      value & opt string "/mnt/test"
      & info [ "mount" ] ~docv:"PATH"
          ~doc:"Keep records under this mount point (default /mnt/test, matching \
                $(b,analyze)).")
  in
  let batch_arg =
    Arg.(
      value & opt int 8192
      & info [ "batch" ] ~docv:"N" ~doc:"Per-session decode batch size.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the multi-tenant coverage daemon: concurrent trace streams fold \
             into per-tenant dense counters while queries read epoch snapshots.  \
             On shutdown, one ledger record is appended per tenant.")
    Term.(
      const run $ Opts.obs_term $ socket_arg $ ingest_arg $ follow_arg $ mount_arg
      $ batch_arg $ Opts.ledger_term)

let ingest_cmd =
  let run obs socket tenant mount config file =
    Opts.with_obs obs @@ fun () ->
    (match config with
     | Some name when Vconfig.point_named name = None ->
       die "--config %S: unknown lattice point (see iocov configs)" name
     | _ -> ());
    match Serve_server.client_ingest ~socket ~tenant ?mount ?config file with
    | Ok summary -> print_string summary
    | Error msg -> die "%s" msg
  in
  let tenant_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "tenant" ] ~docv:"ID" ~doc:"Tenant to credit the stream to.")
  in
  let mount_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mount" ] ~docv:"PATH"
          ~doc:"Per-stream mount filter override (default: the daemon's).")
  in
  let config_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ] ~docv:"POINT"
          ~doc:"Config-lattice point the trace was produced under; the daemon pins \
                the tenant to it and rejects streams declaring a different one.")
  in
  let file_pos = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:"Stream a local trace file into a running $(b,iocov serve) daemon.")
    Term.(
      const run $ Opts.obs_term $ socket_required $ tenant_arg $ mount_arg
      $ config_arg $ file_pos)

(* Group the positional words into request lines: a new request starts
   at each request keyword, so `query adequacy open.flags 500 digest`
   is two requests without shell quoting. *)
let group_requests words =
  let keyword w =
    Result.is_ok (Iocov_serve.Protocol.parse_request w)
    || w = "tcd" || w = "adequacy"
  in
  let flush acc cur = if cur = [] then acc else String.concat " " (List.rev cur) :: acc in
  let acc, cur =
    List.fold_left
      (fun (acc, cur) w ->
        if keyword w then (flush acc cur, [ w ]) else (acc, w :: cur))
      ([], []) words
  in
  List.rev (flush acc cur)

let query_cmd =
  let run obs socket tenant requests =
    Opts.with_obs obs @@ fun () ->
    let requests =
      match group_requests requests with [] -> [ "coverage" ] | rs -> rs
    in
    match Serve_server.client_query ~socket ?tenant requests with
    | Ok payloads -> List.iter print_string payloads
    | Error msg -> die "%s" msg
  in
  let tenant_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tenant" ] ~docv:"ID" ~doc:"Default tenant for per-tenant requests.")
  in
  let requests_pos =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:"Requests: coverage, tcd [ARG], adequacy [ARG [T [THETA]]], \
                completeness, digest, stats, tenants, metrics, ping, shutdown.  \
                Default: coverage.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Query a running $(b,iocov serve) daemon; answers come from epoch \
             snapshots and never pause ingestion.")
    Term.(const run $ Opts.obs_term $ socket_required $ tenant_arg $ requests_pos)

(* --- crash: the crash-consistency scenario engine (DESIGN.md §17) --- *)

let crash_cmd =
  let module Engine = Iocov_crash.Engine in
  let module Vc = Iocov_vfs.Config in
  let module Partition = Iocov_core.Partition in
  let run obs workloads bound modes torn faults target theta save ledger points =
    Opts.with_obs obs @@ fun () ->
    let all_scenarios = Engine.scenarios @ Iocov_suites.Crashmonkey.crash_scenarios in
    let scenarios =
      match workloads with
      | [] -> all_scenarios
      | names ->
        List.map
          (fun name ->
            match
              List.find_opt (fun s -> s.Engine.sc_name = name) all_scenarios
            with
            | Some s -> s
            | None ->
              die "unknown workload %S (known: %s)" name
                (String.concat ", "
                   (List.map (fun s -> s.Engine.sc_name) all_scenarios)))
          names
    in
    let modes = match modes with [] -> Vc.all_journal_modes | ms -> ms in
    let multi_config = List.length points > 1 in
    let reports = ref [] in
    (* The engine's workloads run as the pipeline's live source: every
       traced record flows through the same filter/sink machinery as a
       suite run, and the crash outcomes are folded into the product's
       coverage afterwards as their own output dimension.  The config
       lattice is the outermost sweep axis: each selected point's
       geometry is the base the journal modes are applied to. *)
    let feed emit =
      List.iter
        (fun (point : Vc.point) ->
          let base = Vc.with_faults faults point.Vc.pt_config in
          List.iter
            (fun mode ->
              List.iter
                (fun scenario ->
                  let config = Vc.with_journal_mode mode base in
                  let make_ops fs =
                    let tracer = Iocov_trace.Tracer.create ~comm:"crash" fs in
                    Iocov_trace.Tracer.on_event tracer emit;
                    { Engine.op_exec = Iocov_trace.Tracer.exec tracer;
                      op_exec_aux = Iocov_trace.Tracer.exec_aux tracer }
                  in
                  let report =
                    Engine.run_scenario ~make_ops ~window:bound ~torn ~config scenario
                  in
                  reports := (point.Vc.pt_name, report) :: !reports)
                scenarios)
            modes)
        points
    in
    let header =
      Sink.custom ~name:"header" (fun p ->
          Some
            (Printf.sprintf "%s: %d workload records kept, %d outside the mount"
               p.Sink.label p.Sink.kept p.Sink.dropped))
    in
    let t0 = Obs.Clock.now () in
    match
      Pipe.Driver.run
        ~stages:[ Pipe.Stage.filter (Iocov_trace.Filter.mount_point Engine.mount) ]
        ~sinks:[ header ]
        (Pipe.Source.live ~label:"crash" feed)
    with
    | Error msg -> die "%s" msg
    | Ok { product; sections } ->
      let reports = List.rev !reports in
      let coverage = product.Sink.coverage in
      List.iter
        (fun (_, r) ->
          let mode = Engine.crash_mode_of_journal r.Engine.rp_mode in
          List.iter
            (fun (o, n) -> if n > 0 then Coverage.add_crash coverage mode o n)
            r.Engine.rp_tally)
        reports;
      let violations = List.concat_map (fun (_, r) -> r.Engine.rp_violations) reports in
      let expected = List.mem Fault.Fsync_skips_data faults in
      (* the snapshot and the ledger record are written before anything
         is printed *)
      Option.iter (fun path -> Iocov_core.Snapshot.save_file path coverage) save;
      let flags =
        [ ("bound", string_of_int bound);
          ("modes",
           String.concat "," (List.map Vc.journal_mode_to_string modes)) ]
        @ (if torn then [] else [ ("torn", "off") ])
        @ (match faults with
           | [] -> []
           | fs -> [ ("faults", String.concat "," (List.map Fault.to_string fs)) ])
        @
        if multi_config then
          [ ("configs",
             String.concat "," (List.map (fun p -> p.Vc.pt_name) points)) ]
        else []
      in
      (* A single-point run is pinned to that point, so the ledger can
         name it; a multi-point sweep's coverage mixes configs and is
         recorded config-less (the points live in the flags). *)
      let config =
        match points with [ point ] -> Some (ledger_config point) | _ -> None
      in
      ledger_append ~ledger ?config ~subcommand:"crash" ~label:"crash-engine" ~flags
        ~events:product.Sink.events ~kept:product.Sink.kept ~lost:0
        ~wall_s:(Obs.Clock.now () -. t0) coverage;
      print_sections sections;
      let rows =
        List.map
          (fun (cfg, r) ->
            (if multi_config then [ cfg ] else [])
            @ [ r.Engine.rp_name; Vc.journal_mode_to_string r.Engine.rp_mode;
                string_of_int r.Engine.rp_records;
                string_of_int r.Engine.rp_raw_states;
                string_of_int r.Engine.rp_states;
                (if r.Engine.rp_raw_states = 0 then "-"
                 else
                   Printf.sprintf "%.2f"
                     (float_of_int r.Engine.rp_raw_states
                      /. float_of_int (max 1 r.Engine.rp_states)));
                string_of_int r.Engine.rp_classified ])
          reports
      in
      print_endline
        (Iocov_util.Ascii.table
           ~title:(Printf.sprintf "crash-state enumeration (bound %d)" bound)
           ~headers:
             ((if multi_config then [ "config" ] else [])
              @ [ "workload"; "mode"; "records"; "states"; "images"; "dedup";
                  "cells" ])
           rows);
      let outcome_rows =
        List.map
          (fun mode ->
            let cm = Engine.crash_mode_of_journal mode in
            Vc.journal_mode_to_string mode
            :: List.map
                 (fun o -> string_of_int (Coverage.crash_count coverage cm o))
                 Partition.all_crash_outcomes)
          modes
      in
      print_endline
        (Iocov_util.Ascii.table ~title:"post-crash outcome cells"
           ~headers:
             ("mode" :: List.map Partition.crash_outcome_label Partition.all_crash_outcomes)
           outcome_rows);
      let series = Coverage.crash_series coverage in
      let frequencies = Array.of_list (List.map snd series) in
      let lit = List.length (List.filter (fun (_, n) -> n > 0) series) in
      let summary =
        Iocov_core.Adequacy.summarize
          (List.map
             (fun ((_, o), n) ->
               (o, n, Iocov_core.Adequacy.classify ~frequency:n ~target ~theta))
             series)
      in
      Printf.printf
        "crash cells: %d/%d lit   TCD(T=%.0f) %.3f   adequacy: %d untested, %d \
         under, %d adequate, %d over\n"
        lit (List.length series) target
        (Tcd.tcd_uniform ~frequencies ~target)
        summary.Iocov_core.Adequacy.untested summary.Iocov_core.Adequacy.under
        summary.Iocov_core.Adequacy.adequate summary.Iocov_core.Adequacy.over;
      (match violations with
       | [] ->
         if expected then
           print_endline
             "oracle: no violations — fsync_skips_data armed but nothing caught"
         else print_endline "oracle: fsync-durability holds in every enumerated state"
       | vs ->
         Printf.printf "oracle: %d fsync-durability violation(s)%s:\n" (List.length vs)
           (if expected then " (bugs found, as injected)" else "");
         List.iteri (fun i v -> if i < 10 then Printf.printf "  %s\n" v) vs;
         if List.length vs > 10 then
           Printf.printf "  ... and %d more\n" (List.length vs - 10));
      Option.iter (Printf.printf "wrote %s\n") save;
      (* unexpected violations are an engine bug; injected ones are the
         differential's success and exit clean *)
      if violations <> [] && not expected then exit 1;
      if expected && violations = [] then exit 1
  in
  let mode_conv =
    Arg.conv
      ( (fun s ->
          match Iocov_vfs.Config.journal_mode_of_string s with
          | Some m -> Ok m
          | None -> Error (`Msg (Printf.sprintf "unknown journal mode %S" s))),
        fun ppf m ->
          Format.pp_print_string ppf (Iocov_vfs.Config.journal_mode_to_string m) )
  in
  let workloads_arg =
    Arg.(value & opt_all string []
         & info [ "workload" ] ~docv:"NAME"
             ~doc:"Scenario to run (repeatable; default: all built-in scenarios).")
  in
  let bound_arg =
    Arg.(value & opt int 2
         & info [ "bound" ] ~docv:"N"
             ~doc:"Reordering bound: journal records still volatile at the crash \
                   point.  0 enumerates pure log prefixes.")
  in
  let modes_arg =
    Arg.(value & opt_all mode_conv []
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Journal mode: writeback, ordered, or journaled (repeatable; \
                   default: all three).")
  in
  let no_torn_arg =
    Arg.(value & flag & info [ "no-torn" ] ~doc:"Disable torn-tail write states.")
  in
  let target_arg =
    Arg.(value & opt float 100.0
         & info [ "target" ] ~docv:"T" ~doc:"Adequacy target per crash cell.")
  in
  let theta_arg =
    Arg.(value & opt float 10.0 & info [ "theta" ] ~docv:"THETA" ~doc:"Adequacy tolerance.")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE"
             ~doc:"Write the coverage (crash cells included) as a snapshot file.")
  in
  let run obs workloads bound modes no_torn faults target theta save ledger points =
    run obs workloads bound modes (not no_torn) faults target theta save ledger points
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:"Enumerate bounded crash states of scripted workloads, replay recovery, \
             and report post-crash outcome coverage.")
    Term.(
      const run $ Opts.obs_term $ workloads_arg $ bound_arg $ modes_arg $ no_torn_arg
      $ Opts.faults $ target_arg $ theta_arg $ save_arg $ Opts.ledger_term
      $ Opts.configs_term)

let main =
  Cmd.group
    (Cmd.info "iocov" ~version:"1.0.0"
       ~doc:"Input/output coverage for file system testing (HotStorage '23 reproduction).")
    [ suite_cmd; trace_cmd; analyze_cmd; report_cmd; compare_cmd; tcd_cmd;
      adequacy_cmd; bugstudy_cmd; differential_cmd; faults_cmd; configs_cmd;
      syz_cmd; fuzz_cmd; crash_cmd; metrics_cmd; runs_cmd; serve_cmd; ingest_cmd;
      query_cmd ]

let () = exit (Cmd.eval main)
