(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's per-experiment index), the
   ablation tables for the design choices, and Bechamel performance
   numbers for the IOCov pipeline itself.

     dune exec bench/main.exe                 # everything, default scale
     dune exec bench/main.exe -- --scale 55   # paper-magnitude run
     dune exec bench/main.exe -- --only fig2  # one experiment
     dune exec bench/main.exe -- --no-perf    # skip Bechamel timing *)

open Iocov_syscall
module Runner = Iocov_suites.Runner
module Coverage = Iocov_core.Coverage
module Snapshot = Iocov_core.Snapshot
module Report = Iocov_core.Report
module Tcd = Iocov_core.Tcd
module Arg_class = Iocov_core.Arg_class
module Partition = Iocov_core.Partition
module Ascii = Iocov_util.Ascii
module Log2 = Iocov_util.Log2
module Prng = Iocov_util.Prng
module Event = Iocov_trace.Event
module Filter = Iocov_trace.Filter
module Replay = Iocov_par.Replay
module Source = Iocov_pipe.Source
module Stage = Iocov_pipe.Stage
module Sink = Iocov_pipe.Sink
module Driver = Iocov_pipe.Driver

(* Benches describe runs declaratively and fail loudly on a bad pipeline. *)
let pipe_run ?config ?stages ?sinks source =
  match Driver.run ?config ?stages ?sinks source with
  | Ok run -> run.Driver.product
  | Error msg -> failwith ("bench pipeline: " ^ msg)

let scale = ref 55.0
let seed = ref 42
let only = ref []
let perf = ref true
let metrics_json = ref ""
let trace_events = ref 1_000_000

let usage = "bench/main.exe [--scale S] [--seed N] [--only ID]* [--no-perf] [--metrics-json F]"

let () =
  Arg.parse
    [ ("--scale", Arg.Set_float scale, "xfstests workload scale (default 55.0, ~paper magnitude)");
      ("--seed", Arg.Set_int seed, "PRNG seed (default 42)");
      ("--only", Arg.String (fun s -> only := s :: !only),
       "run one experiment (bugstudy|fig2|table1|fig3|fig4|fig5|syscalls|differential|\
        tcd-ablation|partition-ablation|variant-ablation|remaining|ltp|reduction|fuzzer|\
        perf|robustness|obs|format|serve|crash)");
      ("--format-bench", Arg.Unit (fun () -> only := "format" :: !only),
       "shorthand for --only format (the v3-compactness and scanner-equivalence gate; \
        exits non-zero on failure)");
      ("--serve-bench", Arg.Unit (fun () -> only := "serve" :: !only),
       "shorthand for --only serve (E16, multi-tenant mixed ingest/query workload; \
        exits non-zero if a tenant digest diverges from offline analyze)");
      ("--config-bench", Arg.Unit (fun () -> only := "config" :: !only),
       "shorthand for --only config (E18, config lattice: the off-default errno \
        surface gate)");
      ("--crash-bench", Arg.Unit (fun () -> only := "crash" :: !only),
       "shorthand for --only crash (E17, crash-state enumeration throughput and \
        outcome-cell coverage vs bound; exits non-zero on an oracle violation or \
        coverage that shrinks as the bound grows)");
      ("--events", Arg.Set_int trace_events,
       "synthetic trace size for --only robustness (capped at 500000) and --only serve \
        (default 1000000)");
      ("--no-perf", Arg.Clear perf, "skip the Bechamel performance benches");
      ("--metrics-json", Arg.Set_string metrics_json,
       "after the experiments, write the self-observability registry (metrics + span \
        profile) to this JSON file") ]
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    usage

let wanted id = !only = [] || List.mem id !only

let heading id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "[%s] %s\n" id title;
  Printf.printf "================================================================\n%!"

(* The evaluation pair, shared by E2-E6 and the ablations (computed once). *)
let suite_runs =
  lazy
    (Printf.printf "running CrashMonkey simulator (full seq-1 grid)...\n%!";
     let cm = Runner.run ~seed:!seed ~scale:1.0 Runner.Crashmonkey in
     Printf.printf "  %s events in %.1fs, %d oracle failures\n%!"
       (Ascii.si_count cm.Runner.events_total) cm.Runner.elapsed_s
       (List.length cm.Runner.failures);
     Printf.printf "running xfstests simulator (1014 tests, scale %.1f)...\n%!" !scale;
     let xf = Runner.run ~seed:!seed ~scale:!scale Runner.Xfstests in
     Printf.printf "  %s events in %.1fs, %d oracle failures\n%!"
       (Ascii.si_count xf.Runner.events_total) xf.Runner.elapsed_s
       (List.length xf.Runner.failures);
     (cm, xf))

let names = ("CrashMonkey", "xfstests")

(* --- E1: the Section 2 bug study --- *)

let e1_bugstudy () =
  heading "E1" "Bug study statistics (Section 2)";
  print_endline (Iocov_bugstudy.Stats.render (Iocov_bugstudy.Stats.of_dataset ()));
  print_endline "\nTrigger syscalls across the 70 bugs:";
  List.iter
    (fun (base, n) -> Printf.printf "  %-10s %d\n" (Model.base_name base) n)
    (Iocov_bugstudy.Stats.trigger_frequency Iocov_bugstudy.Dataset.all)

(* --- E2-E6: the evaluation figures --- *)

let e2_figure2 () =
  heading "E2" "Figure 2: input coverage of open flags";
  let cm, xf = Lazy.force suite_runs in
  let name_a, name_b = names in
  print_endline
    (Report.figure2 ~name_a ~cov_a:cm.Runner.coverage ~name_b ~cov_b:xf.Runner.coverage)

let e3_table1 () =
  heading "E3" "Table 1: open flag combinations";
  let cm, xf = Lazy.force suite_runs in
  let name_a, name_b = names in
  print_endline
    (Report.table1 ~name_a ~cov_a:cm.Runner.coverage ~name_b ~cov_b:xf.Runner.coverage);
  Printf.printf "\npaper: CM 9.3/2.8/22.1/65.4/0.5/0; XF 6.1/28.2/18.2/46.8/0.5/0.4\n";
  (* bit-combination extension: exact set coverage *)
  let sets_cm = Coverage.open_flag_sets cm.Runner.coverage in
  let sets_xf = Coverage.open_flag_sets xf.Runner.coverage in
  Printf.printf "\nbit-combination extension (exact flag sets exercised): %s %d, %s %d\n"
    name_a
    (Iocov_core.Combos.distinct_sets sets_cm)
    name_b
    (Iocov_core.Combos.distinct_sets sets_xf);
  Printf.printf "flag pairs never tested together: %s %d, %s %d (of %d pairs)\n" name_a
    (List.length (Iocov_core.Combos.untested_pairs sets_cm))
    name_b
    (List.length (Iocov_core.Combos.untested_pairs sets_xf))
    (21 * 20 / 2)

let e4_figure3 () =
  heading "E4" "Figure 3: input coverage of write sizes";
  let cm, xf = Lazy.force suite_runs in
  let name_a, name_b = names in
  print_endline
    (Report.figure3 ~name_a ~cov_a:cm.Runner.coverage ~name_b ~cov_b:xf.Runner.coverage)

let e5_figure4 () =
  heading "E5" "Figure 4: output coverage of open";
  let cm, xf = Lazy.force suite_runs in
  let name_a, name_b = names in
  print_endline
    (Report.figure4 ~name_a ~cov_a:cm.Runner.coverage ~name_b ~cov_b:xf.Runner.coverage)

let e6_figure5 () =
  heading "E6" "Figure 5: Test Coverage Deviation for open flags";
  let cm, xf = Lazy.force suite_runs in
  let name_a, name_b = names in
  print_endline
    (Report.figure5 ~name_a ~cov_a:cm.Runner.coverage ~name_b ~cov_b:xf.Runner.coverage
       ~targets:(Tcd.log_targets ~lo_log10:0.0 ~hi_log10:7.0 ~per_decade:1));
  print_endline "paper: crossover at T ~= 5,237 (CrashMonkey better below, xfstests above)"

(* --- E7: the syscall model inventory --- *)

let e7_syscalls () =
  heading "E7" "Setup sanity: 27 syscalls, 11 bases, 14 tracked arguments";
  let rows =
    List.map
      (fun base ->
        [ Model.base_name base;
          String.concat " " (List.map Model.variant_name (Model.variants_of_base base));
          String.concat " " (List.map Arg_class.name (Arg_class.args_of_base base));
          string_of_int (List.length (Model.errno_domain base)) ])
      Model.all_bases
  in
  print_endline
    (Ascii.table ~headers:[ "base"; "variants"; "tracked arguments"; "manual errnos" ] rows);
  Printf.printf "totals: %d variants, %d bases, %d tracked arguments\n"
    (List.length Model.all_variants) (List.length Model.all_bases)
    (List.length Arg_class.all)

(* --- E8: differential testing (the Figure 1 causal demo) --- *)

let e8_differential () =
  heading "E8" "Differential tester: injected bugs vs probe strategies";
  let reports = Iocov_bugstudy.Differential.campaign () in
  print_endline (Iocov_bugstudy.Differential.render reports);
  Printf.printf "detection rate: code-coverage-style %.0f%%, IOCov-guided %.0f%%\n"
    (100.0
     *. Iocov_bugstudy.Differential.detection_rate reports
          Iocov_bugstudy.Differential.Code_coverage_style)
    (100.0
     *. Iocov_bugstudy.Differential.detection_rate reports
          Iocov_bugstudy.Differential.Iocov_guided);
  (* the same faults through the two real suite simulators *)
  print_endline "\ninjected-fault detection by the simulated suites (reduced scale):";
  let rows =
    List.map
      (fun fault ->
        let cm = Runner.run ~seed:!seed ~scale:0.05 ~faults:[ fault ] Runner.Crashmonkey in
        let xf = Runner.run ~seed:!seed ~scale:0.05 ~faults:[ fault ] Runner.Xfstests in
        [ Iocov_vfs.Fault.to_string fault;
          (if Runner.detects cm then "detected" else "missed");
          (if Runner.detects xf then "detected" else "missed") ])
      Iocov_vfs.Fault.all
  in
  print_endline
    (Ascii.table ~headers:[ "injected fault"; "CrashMonkey"; "xfstests" ] rows)

(* --- ablations --- *)

let tcd_ablation () =
  heading "A1" "Ablation: log-domain TCD (paper) vs linear RMSD";
  let cm, xf = Lazy.force suite_runs in
  let freqs r =
    Array.of_list
      (List.map snd (Coverage.input_series r.Runner.coverage Arg_class.Open_flags_arg))
  in
  let f_cm = freqs cm and f_xf = freqs xf in
  let rows =
    List.map
      (fun target ->
        let t = Array.make (Array.length f_cm) target in
        [ Printf.sprintf "%.0f" target;
          Printf.sprintf "%.3f" (Tcd.tcd ~frequencies:f_cm ~target:t);
          Printf.sprintf "%.3f" (Tcd.tcd ~frequencies:f_xf ~target:t);
          Printf.sprintf "%.0f" (Tcd.linear_rmsd ~frequencies:f_cm ~target:t);
          Printf.sprintf "%.0f" (Tcd.linear_rmsd ~frequencies:f_xf ~target:t) ])
      [ 10.0; 1000.0; 100_000.0 ]
  in
  print_endline
    (Ascii.table
       ~headers:[ "target"; "TCD CM"; "TCD XF"; "linear CM"; "linear XF" ]
       rows);
  print_endline
    "In the linear domain xfstests' high frequencies dominate the deviation at\n\
     every target, erasing the under-/over-testing trade-off the paper's\n\
     log-domain metric exposes (no crossover exists in the linear column).";
  match
    Tcd.crossover ~f1:f_cm ~f2:f_xf ~lo:1.0 ~hi:1e7
  with
  | Some t -> Printf.printf "log-domain crossover: T ~= %.0f; linear domain: none\n" t
  | None -> print_endline "log-domain crossover: none in range"

let partition_ablation () =
  heading "A2" "Ablation: power-of-two partitions vs fixed-width buckets";
  let cm, xf = Lazy.force suite_runs in
  (* re-bucket the observed write sizes under a fixed-width scheme with
     the same number of partitions (34 buckets over [0, 258 MiB]) *)
  let max_size = 258 * 1024 * 1024 in
  let buckets = 34 in
  let width = (max_size / buckets) + 1 in
  let fixed_covered cov =
    let series = Coverage.input_series cov Arg_class.Write_count in
    let covered = Hashtbl.create 34 in
    List.iter
      (fun (part, freq) ->
        if freq > 0 then
          match part with
          | Partition.P_bucket b ->
            (* re-bucket each observed size class by its representative
               (the bucket's lower bound) under the fixed-width scheme *)
            let lo = min max_size (Log2.bucket_lo b) in
            if lo >= 0 then Hashtbl.replace covered (lo / width) ()
          | _ -> ())
      series;
    Hashtbl.length covered
  in
  let pow2_covered cov =
    List.length
      (List.filter (fun (_, n) -> n > 0) (Coverage.input_series cov Arg_class.Write_count))
  in
  let rows =
    List.map
      (fun (name, r) ->
        [ name;
          Printf.sprintf "%d/34" (pow2_covered r.Runner.coverage);
          Printf.sprintf "%d/34" (fixed_covered r.Runner.coverage) ])
      [ ("CrashMonkey", cm); ("xfstests", xf) ]
  in
  print_endline
    (Ascii.table ~headers:[ "suite"; "pow2 buckets covered"; "fixed-width covered" ] rows);
  print_endline
    "Fixed-width buckets at file-system scale (~7.6 MiB per bucket here)\n\
     collapse every realistic write below 7 MiB into bucket 0: the rich\n\
     small-size structure that distinguishes the suites becomes invisible,\n\
     and only rare giant writes reach other buckets.  Powers of two (the\n\
     paper's choice) resolve exactly the region where file systems branch\n\
     on size."

let variant_ablation () =
  heading "A3" "Ablation: syscall variant merging on vs off";
  (* rerun xfstests at a reduced scale with two accumulators: one normal,
     one that drops every non-primary variant before observing *)
  let merged = Coverage.create () in
  let primary_only = Coverage.create () in
  let filter = Iocov_trace.Filter.mount_point Iocov_suites.Xfstests.mount in
  let is_primary call =
    match Model.variant_of_call call with
    | Model.Sys_open | Model.Sys_read | Model.Sys_write | Model.Sys_lseek
    | Model.Sys_truncate | Model.Sys_mkdir | Model.Sys_chmod | Model.Sys_close
    | Model.Sys_chdir | Model.Sys_setxattr | Model.Sys_getxattr -> true
    | _ -> false
  in
  let on_record e =
    if Iocov_trace.Filter.keeps filter e then
      match e.Iocov_trace.Event.payload with
      | Iocov_trace.Event.Tracked call ->
        let outcome = e.Iocov_trace.Event.outcome in
        Coverage.observe merged call outcome;
        if is_primary call then Coverage.observe primary_only call outcome
      | Iocov_trace.Event.Aux _ -> ()
  in
  ignore (Runner.emit ~seed:!seed ~scale:0.2 ~on_record Runner.Xfstests : string list * int);
  let rows =
    List.filter_map
      (fun arg ->
        let covered cov =
          List.length (List.filter (fun (_, n) -> n > 0) (Coverage.input_series cov arg))
        in
        let m = covered merged and p = covered primary_only in
        if m <> p then
          Some
            [ Arg_class.name arg;
              Printf.sprintf "%d/%d" m (List.length (Partition.domain arg));
              Printf.sprintf "%d/%d" p (List.length (Partition.domain arg)) ]
        else None)
      Arg_class.all
  in
  print_endline
    (Ascii.table
       ~headers:[ "argument"; "variants merged (IOCov)"; "base syscall only" ]
       rows);
  print_endline
    "Without the variant handler, work done through pread64/pwrite64/openat/...\n\
     is invisible: the tool under-reports coverage for every argument above,\n\
     flagging partitions as untested that the suite does exercise."

(* --- S1: the figures the paper omitted for space --- *)

let s1_remaining_figures () =
  heading "S1"
    "Input coverage of the remaining tracked arguments (omitted in the paper for space)";
  let cm, xf = Lazy.force suite_runs in
  let name_a, name_b = names in
  let cov_a = cm.Runner.coverage and cov_b = xf.Runner.coverage in
  List.iter
    (fun arg ->
      print_endline (Report.numeric_figure ~arg ~name_a ~cov_a ~name_b ~cov_b))
    [ Arg_class.Read_count; Arg_class.Lseek_offset; Arg_class.Truncate_length;
      Arg_class.Setxattr_size ];
  (* the categorical and bitmap arguments as frequency tables *)
  List.iter
    (fun arg ->
      let rows =
        List.map
          (fun part ->
            [ Partition.label part;
              Ascii.si_count (Coverage.input_count cov_a arg part);
              Ascii.si_count (Coverage.input_count cov_b arg part) ])
          (Partition.domain arg)
      in
      print_endline
        (Ascii.table
           ~title:(Printf.sprintf "Input coverage of %s" (Arg_class.name arg))
           ~headers:[ "partition"; name_a; name_b ]
           rows))
    [ Arg_class.Lseek_whence; Arg_class.Setxattr_flags; Arg_class.Chmod_mode ];
  (* output coverage beyond open *)
  List.iter
    (fun base ->
      print_endline (Report.output_figure ~base ~name_a ~cov_a ~name_b ~cov_b))
    [ Model.Write; Model.Setxattr ]

(* --- S2: a third tester (LTP) through the same lens --- *)

let s2_ltp () =
  heading "S2" "Extension: LTP through IOCov (errno-driven testing profile)";
  let _, xf = Lazy.force suite_runs in
  Printf.printf "running LTP simulator...\n%!";
  let ltp = Runner.run ~seed:!seed ~scale:!scale Runner.Ltp in
  Printf.printf "  %s events in %.1fs, %d oracle failures\n%!"
    (Ascii.si_count ltp.Runner.events_total) ltp.Runner.elapsed_s
    (List.length ltp.Runner.failures);
  let rows =
    List.map
      (fun base ->
        let ratio cov f = Printf.sprintf "%.0f%%" (100.0 *. f cov base) in
        [ Model.base_name base;
          ratio ltp.Runner.coverage Coverage.input_coverage_ratio_of_base;
          ratio xf.Runner.coverage Coverage.input_coverage_ratio_of_base;
          ratio ltp.Runner.coverage Coverage.output_coverage_ratio;
          ratio xf.Runner.coverage Coverage.output_coverage_ratio ])
      Model.all_bases
  in
  print_endline
    (Ascii.table
       ~title:
         (Printf.sprintf "coverage ratios at %s (LTP) vs %s (xfstests) events"
            (Ascii.si_count ltp.Runner.events_total)
            (Ascii.si_count xf.Runner.events_total))
       ~headers:[ "syscall"; "LTP input"; "XF input"; "LTP output"; "XF output" ]
       rows);
  print_endline
    (Report.output_figure ~base:Model.Open ~name_a:"LTP" ~cov_a:ltp.Runner.coverage
       ~name_b:"xfstests" ~cov_b:xf.Runner.coverage);
  print_endline
    "LTP's errno-driven cases rival xfstests' OUTPUT coverage at a vanishing\n\
     fraction of the execution volume, while its INPUT size coverage stays\n\
     narrow — two testers, two complementary gaps, one pair of metrics."

(* --- S3: coverage-preserving suite reduction --- *)

let s3_reduction () =
  heading "S3" "Extension: coverage-preserving test-suite reduction (greedy set cover)";
  let module Reduction = Iocov_core.Reduction in
  let items = ref [] in
  let filter = Iocov_trace.Filter.mount_point Iocov_suites.Xfstests.mount in
  Printf.printf "running xfstests with per-test coverage attribution...\n%!";
  (* each test boundary opens a fresh coverage; records go to the
     latest one *)
  let on_test name = items := { Reduction.name; coverage = Coverage.create () } :: !items in
  let on_record e =
    match (!items, e.Iocov_trace.Event.payload) with
    | { Reduction.coverage; _ } :: _, Iocov_trace.Event.Tracked call
      when Iocov_trace.Filter.keeps filter e ->
      Coverage.observe coverage call e.Iocov_trace.Event.outcome
    | _ -> ()
  in
  ignore
    (Runner.emit ~seed:!seed ~scale:0.2 ~on_test ~on_record Runner.Xfstests
      : string list * int);
  let items = List.rev !items in
  let selection = Reduction.greedy items in
  Printf.printf
    "%d of %d xfstests tests already reach every one of the %d partitions the\n\
     whole suite covers (domain: %d partitions).  The remaining %d tests add\n\
     only frequency — the paper's over-testing, made explicit.\n\n"
    (List.length selection.Reduction.chosen)
    (List.length items) selection.Reduction.total_covered selection.Reduction.universe
    (List.length items - List.length selection.Reduction.chosen);
  Printf.printf "first ten picks (by marginal coverage gain):\n  %s\n"
    (String.concat " "
       (List.filteri (fun i _ -> i < 10) selection.Reduction.chosen))

(* --- E10: fuzzer feedback comparison (paper future work:
   "evaluate fuzzing systems") --- *)

let e10_fuzzer () =
  heading "E10" "Fuzzing feedback: path-style vs IOCov-guided (future work)";
  let module Fuzzer = Iocov_suites.Fuzzer in
  let budget = max 500 (int_of_float (400.0 *. !scale)) in
  Printf.printf "one mutation engine, two feedback signals, %d executions each...\n%!" budget;
  let outcome, partition = Fuzzer.compare_feedbacks ~seed:!seed ~budget () in
  let rows =
    List.filter_map
      (fun ((e, a), (_, b)) ->
        if e mod (budget / 8) < 50 || e = budget then
          Some [ Ascii.si_count e; string_of_int a; string_of_int b ]
        else None)
      (List.combine outcome.Fuzzer.growth partition.Fuzzer.growth)
  in
  print_endline
    (Ascii.table
       ~headers:[ "executions"; "outcome-novelty"; "partition-novelty (IOCov)" ]
       rows);
  Printf.printf
    "final: outcome-novelty %d partitions (corpus %d); IOCov-guided %d (corpus %d)\n"
    (Fuzzer.covered_partitions outcome.Fuzzer.coverage)
    outcome.Fuzzer.corpus_size
    (Fuzzer.covered_partitions partition.Fuzzer.coverage)
    partition.Fuzzer.corpus_size;
  print_endline
    "Fuzzing guided by the paper's input/output-coverage metric retains the\n\
     boundary stepping stones that path-style novelty discards, and covers\n\
     strictly more of the partitioned input space for the same budget —\n\
     the related-work critique of path-coverage fuzzers, measured."

(* --- shared by E9/E13/E16: synthetic traces, wall clocks, JSON output --- *)

(* A mixed synthetic trace shaped like a suite run: mostly data-path
   calls under the mount, a tail of out-of-mount noise the filter must
   reject, and a sprinkling of error outcomes.  Deterministic in the
   seed, so every run of a bench replays the identical event list. *)
let synth_events n =
  let rng = Prng.create ~seed:(!seed + 101) in
  let rdonly = Open_flags.of_flags Open_flags.[ O_RDONLY ] in
  let creat_rw = Open_flags.of_flags Open_flags.[ O_RDWR; O_CREAT ] in
  let append_w = Open_flags.of_flags Open_flags.[ O_WRONLY; O_APPEND ] in
  let mk seq =
    let inside = Prng.chance rng 0.8 in
    let path =
      if inside then
        Printf.sprintf "/mnt/test/d%d/f%d" (Prng.int rng 40) (Prng.int rng 4000)
      else Printf.sprintf "/var/tmp/noise%d" (Prng.int rng 1000)
    in
    let fd = 3 + Prng.int rng 60 in
    let call, outcome =
      match Prng.int rng 8 with
      | 0 ->
        let flags = Prng.choose rng [| rdonly; creat_rw; append_w |] in
        (Model.open_ ~flags ~mode:0o644 path, Model.Ret fd)
      | 1 -> (Model.open_ ~flags:rdonly ~mode:0 path, Model.Err Errno.ENOENT)
      | 2 ->
        let count = Prng.pow2_size rng ~max_log2:20 in
        (Model.read ~fd ~count (), Model.Ret count)
      | 3 | 4 ->
        let count = Prng.pow2_size rng ~max_log2:22 in
        let variant = if Prng.bool rng then Model.Sys_write else Model.Sys_pwrite64 in
        let offset = if variant = Model.Sys_pwrite64 then Some (Prng.int rng 100_000) else None in
        (Model.write ~variant ?offset ~fd ~count (), Model.Ret count)
      | 5 ->
        let whence = Prng.choose rng Whence.[| SEEK_SET; SEEK_CUR; SEEK_END |] in
        (Model.lseek ~fd ~offset:(Prng.int rng 1_000_000) ~whence, Model.Ret 0)
      | 6 ->
        ( Model.truncate ~target:(Model.Path path) ~length:(Prng.pow2_size rng ~max_log2:24) (),
          Model.Ret 0 )
      | _ -> (Model.chmod ~target:(Model.Path path) ~mode:(Prng.int rng 0o7777) (), Model.Ret 0)
    in
    {
      Event.seq;
      timestamp_ns = seq * 173;
      pid = 1000 + Prng.int rng 8;
      comm = "bench";
      payload = Event.Tracked call;
      outcome;
      path_hint = Some path;
    }
  in
  List.init n mk

(* The replay-side counterpart: a trace with the string locality of a
   real suite run, where a few thousand files under the mount are
   reopened and rewritten all run long.  Nearly every path is a
   string-table reference, so this measures the decoder's sustained
   rate rather than its interning throughput — the shape the ROADMAP's
   events/s target is stated against. *)
let synth_hot_events n =
  let rng = Prng.create ~seed:(!seed + 103) in
  let rdonly = Open_flags.of_flags Open_flags.[ O_RDONLY ] in
  let mk seq =
    let path = Printf.sprintf "/mnt/test/d%d/f%d" (Prng.int rng 8) (Prng.int rng 500) in
    let fd = 3 + Prng.int rng 60 in
    let call, outcome =
      match Prng.int rng 8 with
      | 0 -> (Model.open_ ~flags:rdonly ~mode:0o644 path, Model.Ret fd)
      | 1 -> (Model.open_ ~flags:rdonly ~mode:0 path, Model.Err Errno.ENOENT)
      | 2 -> (Model.read ~fd ~count:(Prng.pow2_size rng ~max_log2:20) (), Model.Ret 4096)
      | 3 | 4 ->
        ( Model.write ~variant:Model.Sys_write ~fd ~count:(Prng.pow2_size rng ~max_log2:22) (),
          Model.Ret 100 )
      | 5 ->
        (Model.lseek ~fd ~offset:(Prng.int rng 1_000_000) ~whence:Whence.SEEK_SET, Model.Ret 0)
      | 6 ->
        ( Model.truncate ~target:(Model.Path path) ~length:(Prng.pow2_size rng ~max_log2:24) (),
          Model.Ret 0 )
      | _ -> (Model.chmod ~target:(Model.Path path) ~mode:(Prng.int rng 0o7777) (), Model.Ret 0)
    in
    {
      Event.seq;
      timestamp_ns = seq * 173;
      pid = 1000 + Prng.int rng 8;
      comm = "bench";
      payload = Event.Tracked call;
      outcome;
      path_hint = Some path;
    }
  in
  List.init n mk

let timed_wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path body =
  Out_channel.with_open_text path (fun oc -> output_string oc body);
  Printf.printf "machine-readable results written to %s\n" path

(* --- E9: performance of the pipeline itself --- *)

let perf_benches () =
  heading "E9" "Pipeline performance (Bechamel, monotonic clock)";
  let open Bechamel in
  let fs = Iocov_vfs.Fs.create () in
  ignore (Iocov_vfs.Fs.exec fs (Model.mkdir ~mode:0o755 "/mnt"));
  ignore (Iocov_vfs.Fs.exec fs (Model.mkdir ~mode:0o755 "/mnt/test"));
  ignore
    (Iocov_vfs.Fs.exec fs
       (Model.open_ ~mode:0o644
          ~flags:(Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT ])
          "/mnt/test/bench"));
  let traced_fs = Iocov_vfs.Fs.create () in
  let tracer = Iocov_trace.Tracer.create traced_fs in
  let coverage = Coverage.create () in
  let filter = Iocov_trace.Filter.mount_point "/mnt/test" in
  Iocov_trace.Tracer.on_event tracer
    (Iocov_trace.Filter.sink filter (fun e ->
         match e.Iocov_trace.Event.payload with
         | Iocov_trace.Event.Tracked call ->
           Coverage.observe coverage call e.Iocov_trace.Event.outcome
         | Iocov_trace.Event.Aux _ -> ()));
  ignore (Iocov_trace.Tracer.exec tracer (Model.mkdir ~mode:0o755 "/mnt"));
  ignore (Iocov_trace.Tracer.exec tracer (Model.mkdir ~mode:0o755 "/mnt/test"));
  ignore
    (Iocov_trace.Tracer.exec tracer
       (Model.open_ ~mode:0o644
          ~flags:(Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT ])
          "/mnt/test/bench"));
  (* fixed-offset write: repeated appends would grow the file without
     bound and measure extent-list growth instead of the steady state *)
  let write_call = Model.write ~variant:Model.Sys_pwrite64 ~offset:0 ~fd:3 ~count:4096 () in
  let pattern = "^/mnt/test(/|$)" in
  let regex = Iocov_regex.Engine.compile_exn pattern in
  let sample_line =
    "[1622] pid=1000 comm=\"xfstests\" open(path=\"/mnt/test/a\", flags=O_RDONLY, \
     mode=0o0) -> ok:3 hint=\"/mnt/test/a\""
  in
  let freqs = Array.init 21 (fun i -> i * 997) in
  let tests =
    [ Test.make ~name:"vfs: write 4KiB (bare)" (Staged.stage (fun () ->
          ignore (Iocov_vfs.Fs.exec fs write_call)));
      Test.make ~name:"vfs: write 4KiB (traced+IOCov)" (Staged.stage (fun () ->
          ignore (Iocov_trace.Tracer.exec tracer write_call)));
      Test.make ~name:"analyzer: Coverage.observe" (Staged.stage (fun () ->
          Coverage.observe coverage write_call (Model.Ret 4096)));
      Test.make ~name:"trace: parse one record (text)" (Staged.stage (fun () ->
          ignore (Iocov_trace.Format_io.of_line sample_line)));
      Test.make ~name:"trace: parse one record (text, reference)" (Staged.stage (fun () ->
          ignore (Iocov_trace.Format_io.of_line_reference sample_line)));
      Test.make ~name:"filter: regex search on a hint" (Staged.stage (fun () ->
          ignore (Iocov_regex.Engine.search regex "/mnt/test/dir/file")));
      Test.make ~name:"filter: mount-point test on a hint" (Staged.stage (fun () ->
          ignore (Iocov_trace.Filter.matches_hint filter "/mnt/test/dir/file")));
      Test.make ~name:"metric: TCD over 21 partitions" (Staged.stage (fun () ->
          ignore (Tcd.tcd_uniform ~frequencies:freqs ~target:5237.0))) ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let measured =
    List.map
      (fun test ->
        let results = Benchmark.all cfg [ instance ] test in
        let name = Test.Elt.name (List.hd (Test.elements test)) in
        let analyzed = Analyze.all ols instance results in
        let est =
          Hashtbl.fold
            (fun _ v acc ->
              match Analyze.OLS.estimates v with
              | Some [ e ] -> e
              | _ -> acc)
            analyzed 0.0
        in
        (name, est))
      tests
  in
  print_endline
    (Ascii.table ~headers:[ "operation"; "cost" ]
       (List.map (fun (name, est) -> [ name; Printf.sprintf "%.0f ns/op" est ]) measured));
  print_endline
    "The traced+IOCov write includes the full pipeline: VFS execution, event\n\
     construction, mount-point filtering, and coverage accumulation — the\n\
     'low-overhead tracing' requirement of Section 3.";
  (* replay throughput, expressed as the declarative pipeline it is *)
  let replay_n = 200_000 in
  let events = synth_events replay_n in
  let filter = Filter.mount_point "/mnt/test" in
  let product, dt =
    timed_wall (fun () ->
        pipe_run ~stages:[ Stage.filter filter ] (Source.events events))
  in
  let events_per_s = float_of_int replay_n /. dt in
  Printf.printf "\nsequential replay: %s events in %.2fs (%s events/s, %s kept)\n"
    (Ascii.si_count replay_n) dt
    (Ascii.si_count (int_of_float events_per_s))
    (Ascii.si_count product.Sink.kept);
  (* per-stage cost: each compiled batch transform in isolation over
     the same trace, batched as the replay engine sees it; the filter
     row is the batched [Filter.keep_all] rate *)
  let batches =
    let rec go acc = function
      | [] -> List.rev acc
      | evs ->
        let rec take k got rest =
          if k = 0 then (List.rev got, rest)
          else
            match rest with
            | [] -> (List.rev got, [])
            | e :: tl -> take (k - 1) (e :: got) tl
        in
        let head, tail = take Replay.default_batch [] evs in
        go (head :: acc) tail
    in
    go [] events
  in
  let time_stage stage =
    let transform =
      match Stage.compile [ stage ] with
      | Some f, None -> Filter.keep_all f
      | None, Some t -> t
      | _ -> fun evs -> evs
    in
    let (), st_dt =
      timed_wall (fun () -> List.iter (fun b -> ignore (transform b)) batches)
    in
    (Stage.name stage, st_dt, float_of_int replay_n /. st_dt)
  in
  let stage_rows =
    List.map time_stage
      [ Stage.filter filter;
        Stage.map ~name:"map-identity" Option.some;
        Stage.meter "bench" ]
  in
  print_endline "per-stage pipeline cost (compiled batch transforms):";
  List.iter
    (fun (name, st_dt, rate) ->
      Printf.printf "  %-14s %.3fs (%s events/s)\n" name st_dt
        (Ascii.si_count (int_of_float rate)))
    stage_rows;
  (* the filter fast path: literal-prefix pre-check vs the plain
     backtracking scan, over a path corpus shaped like the trace's *)
  let corpus =
    Array.init 4096 (fun i ->
        if i mod 5 < 4 then Printf.sprintf "/mnt/test/d%d/f%d" (i mod 40) i
        else Printf.sprintf "/var/tmp/noise%d" i)
  in
  let reps = 500 in
  let bench_ns f =
    let (), dt =
      timed_wall (fun () ->
          for _ = 1 to reps do
            Array.iter (fun p -> ignore (f p)) corpus
          done)
    in
    dt *. 1e9 /. float_of_int (reps * Array.length corpus)
  in
  let fast_ns = bench_ns (fun p -> Iocov_regex.Engine.search regex p) in
  let scan_ns = bench_ns (fun p -> Iocov_regex.Engine.search_scan regex p) in
  Printf.printf "filter search: fast path %.0f ns, plain scan %.0f ns (%.1fx)\n" fast_ns
    scan_ns (scan_ns /. fast_ns);
  let body =
    Printf.sprintf
      "{\n  \"schema\": \"iocov-bench-pipeline/5\",\n  \"seed\": %d,\n  \"benches\": [\n%s\n  \
       ],\n  \"sequential_replay\": { \"events\": %d, \"elapsed_s\": %.4f, \"events_per_s\": \
       %.0f },\n  \"pipeline_stages\": [\n%s\n  ],\n  \"filter_search\": { \"pattern\": \"%s\", \
       \"fast_path_ns_per_search\": %.1f, \"scan_ns_per_search\": %.1f, \
       \"fast_path_speedup\": %.2f }\n}\n"
      !seed
      (String.concat ",\n"
         (List.map
            (fun (name, est) ->
              Printf.sprintf "    { \"name\": \"%s\", \"ns_per_op\": %.1f }"
                (json_escape name) est)
            measured))
      replay_n dt events_per_s
      (String.concat ",\n"
         (List.map
            (fun (name, st_dt, rate) ->
              Printf.sprintf
                "    { \"stage\": \"%s\", \"elapsed_s\": %.4f, \"events_per_s\": %.0f }"
                (json_escape name) st_dt rate)
            stage_rows))
      (json_escape pattern) fast_ns scan_ns (scan_ns /. fast_ns)
  in
  write_json "BENCH_pipeline.json" body

(* --- E13: fault-tolerant ingestion — what robustness costs --- *)

let e13_robustness () =
  heading "E13" "Fault tolerance: CRC framing, lenient ingest, and checkpoint overhead";
  let n = min !trace_events 500_000 in
  Printf.printf "generating a %s-event synthetic trace...\n%!" (Ascii.si_count n);
  let events = synth_events n in
  let filter = Filter.mount_point "/mnt/test" in
  let with_trace ?(events = events) ?chapter ?frame f =
    let path = Filename.temp_file "iocov_bench" ".trace" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let oc = open_out_bin path in
        let w = Iocov_trace.Binary_io.writer ?chapter ?frame oc in
        List.iter (Iocov_trace.Binary_io.sink w) events;
        Iocov_trace.Binary_io.flush w;
        close_out oc;
        f path)
  in
  let run ?ingest ?checkpoint path =
    let sinks =
      match checkpoint with
      | Some (ckpt, every) -> [ Sink.checkpoint ~path:ckpt ~every ]
      | None -> []
    in
    timed_wall (fun () ->
        pipe_run
          ~config:(Driver.config ?ingest ())
          ~stages:[ Stage.filter filter ] ~sinks (Source.file path))
  in
  let rate dt = float_of_int n /. dt in
  with_trace @@ fun v3_path ->
  (* one-record frames and 1024-record chapters: the smallest blast
     radius a flip can have, for the degraded-mode row *)
  with_trace ~chapter:1024 ~frame:1 @@ fun frame1_path ->
  with_trace ~events:(synth_hot_events n) @@ fun hot_path ->
  let v3_size = (Unix.stat v3_path).Unix.st_size in
  let frame1_size = (Unix.stat frame1_path).Unix.st_size in
  ignore (run v3_path) (* warm-up *);
  let _, v3_dt = run v3_path in
  let _, v3_lenient_dt =
    run ~ingest:(Replay.Lenient Iocov_util.Anomaly.Unlimited) v3_path
  in
  (* raw batch decode, no replay machinery: the format's own ceiling.
     Best of three, so one scheduler hiccup doesn't misreport the
     sustained rate of a sub-100ms measurement. *)
  let drain_wall path =
    let once () =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match Iocov_trace.Binary_io.open_stream ic with
          | Error msg -> failwith ("v3 drain: " ^ msg)
          | Ok st ->
            let dense = Coverage.create () in
            let (), dt =
              timed_wall (fun () ->
                  let continue = ref true in
                  while !continue do
                    match
                      Iocov_trace.Binary_io.drain_batch_dense st ~dense ~max:8192 ()
                    with
                    | Ok d ->
                      if d.Iocov_trace.Binary_io.dr_produced = 0 then continue := false
                    | Error msg -> failwith ("v3 drain: " ^ msg)
                  done)
            in
            dt)
    in
    let best = ref (once ()) in
    for _ = 1 to 2 do
      let dt = once () in
      if dt < !best then best := dt
    done;
    !best
  in
  let v3_drain_dt = drain_wall v3_path in
  (* writer throughput: encode + frame + emit the same events to disk,
     best of three — the buffered single-envelope emit path *)
  let writer_wall () =
    let once () =
      let path = Filename.temp_file "iocov_bench" ".trace" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let oc = open_out_bin path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              let w = Iocov_trace.Binary_io.writer oc in
              let (), dt =
                timed_wall (fun () ->
                    List.iter (Iocov_trace.Binary_io.sink w) events;
                    Iocov_trace.Binary_io.flush w)
              in
              dt))
    in
    let best = ref (once ()) in
    for _ = 1 to 2 do
      let dt = once () in
      if dt < !best then best := dt
    done;
    !best
  in
  let v3_writer_dt = writer_wall () in
  (* the hot-locality trace: zero-copy decode and full fused replay at
     suite-run string locality — the ROADMAP ≥10M events/s shape *)
  let hot_drain_dt = drain_wall hot_path in
  ignore (run hot_path) (* warm-up *);
  let _, hot_fused_dt = run hot_path in
  let v3_ckpt_path = Filename.temp_file "iocov_bench" ".ckpt" in
  let (_, v3_ckpt_dt) =
    Fun.protect
      ~finally:(fun () -> try Sys.remove v3_ckpt_path with Sys_error _ -> ())
      (fun () ->
        run ~checkpoint:(v3_ckpt_path, max 1 (n / 10)) v3_path)
  in
  (* flip one byte per ~1000 frames and measure degraded-mode replay *)
  let corrupt, corrupt_dt, skipped =
    let b =
      let ic = open_in_bin frame1_path in
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      close_in ic;
      b
    in
    let rng = Prng.create ~seed:(!seed + 13) in
    let flips = max 1 (n / 1000) in
    for _ = 1 to flips do
      let off = 8 + Prng.int rng (Bytes.length b - 8) in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40))
    done;
    let path = Filename.temp_file "iocov_bench" ".trace" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let oc = open_out_bin path in
        output_bytes oc b;
        close_out oc;
        let o, dt = run ~ingest:(Replay.Lenient Iocov_util.Anomaly.Unlimited) path in
        (flips, dt, o.Sink.completeness.Iocov_util.Anomaly.records_skipped))
  in
  Printf.printf "  trace size:     %s B (256-record frames), %s B (1-record frames)\n"
    (Ascii.si_count v3_size) (Ascii.si_count frame1_size);
  Printf.printf "  v3 fused:       %.3fs (%s events/s, strict)\n" v3_dt
    (Ascii.si_count (int_of_float (rate v3_dt)));
  Printf.printf "  v3 lenient:     %.3fs (%s events/s, clean trace)\n" v3_lenient_dt
    (Ascii.si_count (int_of_float (rate v3_lenient_dt)));
  Printf.printf "  v3 checkpointed:%.3fs (%s events/s, 10 checkpoints)\n" v3_ckpt_dt
    (Ascii.si_count (int_of_float (rate v3_ckpt_dt)));
  Printf.printf "  v3 degraded:    %.3fs (%d flips, %d records skipped, 1-record frames)\n"
    corrupt_dt corrupt skipped;
  Printf.printf "  v3 drain:       %.3fs (%s events/s, batch decode only)\n"
    v3_drain_dt
    (Ascii.si_count (int_of_float (rate v3_drain_dt)));
  Printf.printf "  v3 writer:      %.3fs (%s events/s, encode + frame + emit)\n"
    v3_writer_dt
    (Ascii.si_count (int_of_float (rate v3_writer_dt)));
  Printf.printf "  v3 drain hot:   %.3fs (%s events/s, batch decode, hot-locality trace)\n"
    hot_drain_dt
    (Ascii.si_count (int_of_float (rate hot_drain_dt)));
  Printf.printf "  v3 fused hot:   %.3fs (%s events/s, full replay, hot-locality trace)\n%!"
    hot_fused_dt
    (Ascii.si_count (int_of_float (rate hot_fused_dt)));
  let body =
    Printf.sprintf
      "{\n  \"schema\": \"iocov-bench-robustness/5\",\n  \"seed\": %d,\n  \
       \"trace_events\": %d,\n  \"bytes_v3\": %d,\n  \"bytes_v3_frame1\": %d,\n  \
       \"v3_fused\": { \"elapsed_s\": %.4f, \"events_per_s\": %.0f },\n  \
       \"v3_lenient_clean\": { \"elapsed_s\": %.4f, \"events_per_s\": %.0f },\n  \
       \"v3_checkpointed\": { \"elapsed_s\": %.4f, \"events_per_s\": %.0f },\n  \
       \"v3_lenient_corrupt\": { \"elapsed_s\": %.4f, \"flips\": %d, \
       \"records_skipped\": %d },\n  \
       \"v3_drain\": { \"elapsed_s\": %.4f, \"events_per_s\": %.0f },\n  \
       \"v3_writer\": { \"elapsed_s\": %.4f, \"events_per_s\": %.0f },\n  \
       \"v3_drain_hot\": { \"elapsed_s\": %.4f, \"events_per_s\": %.0f },\n  \
       \"v3_fused_hot\": { \"elapsed_s\": %.4f, \"events_per_s\": %.0f }\n}\n"
      !seed n v3_size frame1_size
      v3_dt (rate v3_dt) v3_lenient_dt (rate v3_lenient_dt)
      v3_ckpt_dt (rate v3_ckpt_dt) corrupt_dt corrupt skipped
      v3_drain_dt (rate v3_drain_dt)
      v3_writer_dt (rate v3_writer_dt)
      hot_drain_dt (rate hot_drain_dt) hot_fused_dt (rate hot_fused_dt)
  in
  write_json "BENCH_robustness.json" body

(* --- the format gate: quick pass/fail smoke for CI --- *)

(* v3 bytes of the gate's 20,000-record trace at seed 42 when the bound
   was set (29.06 B/record; the retired v1 format took 639,963).  An
   encoding change that grows the trace fails the gate.  Other seeds
   draw other traces, so the bound applies at seed 42 only. *)
let format_max_v3_bytes = 581_164

let format_bench () =
  heading "FMT" "Format gate: v3 compactness, cross-format and scanner equivalence";
  let n = 20_000 in
  let events = synth_events n in
  let filter = Filter.mount_point "/mnt/test" in
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        incr failures;
        Printf.printf "  FAIL: %s\n" m)
      fmt
  in
  let with_file write f =
    let path = Filename.temp_file "iocov_fmt" ".trace" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        write path;
        f path)
  in
  let write_binary path =
    let oc = open_out_bin path in
    let w = Iocov_trace.Binary_io.writer oc in
    List.iter (Iocov_trace.Binary_io.sink w) events;
    Iocov_trace.Binary_io.flush w;
    close_out oc
  in
  let write_text path =
    Out_channel.with_open_text path (fun oc ->
        List.iter (Iocov_trace.Format_io.sink_channel oc) events)
  in
  with_file write_binary @@ fun v3 ->
  with_file write_text @@ fun txt ->
  let size p = (Unix.stat p).Unix.st_size in
  let s3 = size v3 and st = size txt in
  Printf.printf "  bytes: text %d, v3 %d (%.2f B/record, bound %d)\n" st s3
    (float_of_int s3 /. float_of_int n)
    format_max_v3_bytes;
  if !seed = 42 && s3 > format_max_v3_bytes then
    fail "v3 (%d B) exceeds its bound (%d B)" s3 format_max_v3_bytes;
  (* cross-format differential: both carriers yield the same snapshot *)
  let snap path =
    Snapshot.to_string
      (pipe_run ~stages:[ Stage.filter filter ] (Source.file path)).Sink.coverage
  in
  if snap v3 <> snap txt then fail "v3 snapshot diverges from text";
  (* scanner differential: fast and reference agree on every line *)
  let diverged = ref 0 in
  List.iter
    (fun e ->
      let line = Iocov_trace.Format_io.to_line e in
      match
        (Iocov_trace.Format_io.of_line line, Iocov_trace.Format_io.of_line_reference line)
      with
      | Ok x, Ok y
        when Iocov_trace.Format_io.to_line x = Iocov_trace.Format_io.to_line y ->
        ()
      | Error _, Error _ -> ()
      | _ -> incr diverged)
    events;
  if !diverged > 0 then fail "scanner diverges from reference on %d/%d lines" !diverged n;
  (* informational rates *)
  let lines = List.map Iocov_trace.Format_io.to_line events in
  let parse_ns f =
    let (), dt = timed_wall (fun () -> List.iter (fun l -> ignore (f l)) lines) in
    1e9 *. dt /. float_of_int n
  in
  Printf.printf "  text parse: fast %.0f ns/rec, reference %.0f ns/rec\n"
    (parse_ns (fun l -> Iocov_trace.Format_io.of_line l))
    (parse_ns (fun l -> Iocov_trace.Format_io.of_line_reference l));
  let ic = open_in_bin v3 in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match Iocov_trace.Binary_io.open_stream ic with
      | Error msg -> fail "v3 open_stream: %s" msg
      | Ok st ->
        let dense = Coverage.create () in
        let (), dt =
          timed_wall (fun () ->
              let continue = ref true in
              while !continue do
                match Iocov_trace.Binary_io.drain_batch_dense st ~dense ~max:8192 () with
                | Ok d ->
                  if d.Iocov_trace.Binary_io.dr_produced = 0 then continue := false
                | Error msg ->
                  fail "v3 drain: %s" msg;
                  continue := false
              done)
        in
        Printf.printf "  v3 drain: %s events/s\n"
          (Ascii.si_count (int_of_float (float_of_int n /. dt))));
  if !failures = 0 then Printf.printf "format gate: PASS\n%!"
  else begin
    Printf.printf "format gate: %d failure(s)\n%!" !failures;
    exit 1
  end

(* --- E14: the flight recorder — what watching a run costs --- *)

let e14_obs () =
  heading "E14" "Flight recorder: progress + ledger + timeline overhead on replay";
  let module Progress = Iocov_pipe.Progress in
  let module Ledger = Iocov_pipe.Ledger in
  let module Trace_event = Iocov_obs.Trace_event in
  let n = 1_000_000 in
  Printf.printf "generating a %s-event synthetic trace...\n%!" (Ascii.si_count n);
  let events = synth_events n in
  let filter = Filter.mount_point "/mnt/test" in
  let replay ?progress () =
    pipe_run
      ~config:(Driver.config ?progress ())
      ~stages:[ Stage.filter filter ]
      (Source.events events)
  in
  (* the CLI's default instrumentation: a progress snapshot every 10k
     events plus one ledger append per run *)
  let emitted_bytes = ref 0 in
  let progress =
    { Progress.every = Progress.default_every;
      format = Progress.Text;
      emit = (fun line -> emitted_bytes := !emitted_bytes + String.length line);
      budget = None }
  in
  let ledger_dir = Filename.temp_file "iocov_bench" ".ledger" in
  Sys.remove ledger_dir;
  let run_base () = ignore (replay ()) in
  let run_inst () =
    let product = replay ~progress () in
    let r =
      Ledger.make ~subcommand:"bench" ~label:"synthetic" ~flags:[] ~jobs:1
        ~counters:"dense" ~events:n ~kept:product.Sink.kept ~lost:0
        ~wall_s:0.0 ~stages:[] product.Sink.coverage
    in
    match Ledger.append ~dir:ledger_dir r with
    | Ok _ -> ()
    | Error msg -> failwith ("ledger append: " ^ msg)
  in
  let run_trace () = ignore (replay ~progress ())
  and timeline_events = ref 0
  and timeline_dropped = ref 0 in
  (* Interleaved min-of-9 with a GC barrier before each sample: the
     three configurations ride the same heap and scheduler drift, so a
     slow phase of the machine penalizes all of them alike rather than
     whichever block it landed on.  Min-of-k then discards the noise. *)
  let rounds = 9 in
  let base_dt = ref infinity and inst_dt = ref infinity and trace_dt = ref infinity in
  let sample best f =
    Gc.major ();
    let _, dt = timed_wall f in
    best := Float.min !best dt
  in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove (Ledger.path ~dir:ledger_dir) with Sys_error _ -> ());
      try Sys.rmdir ledger_dir with Sys_error _ -> ())
    (fun () ->
      run_base () (* warm-up *);
      for _ = 1 to rounds do
        sample base_dt run_base;
        sample inst_dt run_inst;
        Trace_event.start ();
        sample trace_dt run_trace;
        Trace_event.stop ();
        timeline_events := List.length (Trace_event.events ());
        timeline_dropped := Trace_event.dropped ();
        Trace_event.clear ()
      done);
  let base_dt = !base_dt and inst_dt = !inst_dt and trace_dt = !trace_dt in
  let timeline_events = !timeline_events and timeline_dropped = !timeline_dropped in
  let rate dt = float_of_int n /. dt in
  let pct dt = 100.0 *. (dt -. base_dt) /. base_dt in
  Printf.printf "  baseline replay:        %.3fs (%s events/s)\n" base_dt
    (Ascii.si_count (int_of_float (rate base_dt)));
  Printf.printf "  + progress + ledger:    %.3fs (%+.2f%%)\n" inst_dt (pct inst_dt);
  Printf.printf "  + timeline recording:   %.3fs (%+.2f%%, %d events, %d dropped)\n%!"
    trace_dt (pct trace_dt) timeline_events timeline_dropped;
  let body =
    Printf.sprintf
      "{\n  \"schema\": \"iocov-bench-obs/1\",\n  \"seed\": %d,\n  \
       \"trace_events\": %d,\n  \"progress_every\": %d,\n  \
       \"baseline\": { \"elapsed_s\": %.4f, \"events_per_s\": %.0f },\n  \
       \"progress_ledger\": { \"elapsed_s\": %.4f, \"events_per_s\": %.0f, \
       \"overhead_pct\": %.2f },\n  \
       \"timeline\": { \"elapsed_s\": %.4f, \"events_per_s\": %.0f, \
       \"overhead_pct\": %.2f, \"timeline_events\": %d, \"timeline_dropped\": %d }\n}\n"
      !seed n Iocov_pipe.Progress.default_every base_dt (rate base_dt) inst_dt
      (rate inst_dt) (pct inst_dt) trace_dt (rate trace_dt) (pct trace_dt)
      timeline_events timeline_dropped
  in
  write_json "BENCH_obs.json" body

(* --- E16: the multi-tenant coverage service under a mixed workload --- *)

(* A YCSB-style mixed workload for `iocov serve`'s hub: N tenants
   ingesting distinct v3 traces concurrently while a query client
   interleaves digest/coverage/TCD reads against their epoch
   snapshots.  Three things are measured, two of them gated:

   - aggregate ingest throughput, gated within 2x of a single-stream
     fused replay of one trace (the epoch discipline's whole budget);
   - per-tenant digests, gated byte-identical to an offline
     [iocov analyze] of the same trace (the differential oracle);
   - query latency under ingest load (p50/p99) and the cost of one
     epoch publish (an O(cells) coverage copy), reported. *)
let serve_bench () =
  heading "E16" "Serve: multi-tenant mixed ingest/query workload";
  let module Hub = Iocov_serve.Hub in
  let tenants = 8 in
  let per_tenant = max 20_000 (min 250_000 (!trace_events / tenants)) in
  let total = tenants * per_tenant in
  let tenant_id i = Printf.sprintf "tenant%02d" i in
  Printf.printf "generating %d tenant traces x %s events...\n%!" tenants
    (Ascii.si_count per_tenant);
  (* distinct deterministic trace per tenant: rotate the harness seed *)
  let tenant_events =
    let base = !seed in
    let evs =
      Array.init tenants (fun i ->
          seed := base + (7 * i);
          synth_events per_tenant)
    in
    seed := base;
    evs
  in
  let write_trace events =
    let path = Filename.temp_file "iocov_bench" ".trace" in
    let oc = open_out_bin path in
    let w = Iocov_trace.Binary_io.writer oc in
    List.iter (Iocov_trace.Binary_io.sink w) events;
    Iocov_trace.Binary_io.flush w;
    close_out oc;
    path
  in
  let paths = Array.map write_trace tenant_events in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
  @@ fun () ->
  let filter = Filter.mount_point "/mnt/test" in
  (* offline truth: what `iocov analyze` would print for each trace *)
  let offline_digest path =
    Iocov_pipe.Ledger.digest
      (pipe_run ~stages:[ Stage.filter filter ] (Source.file path)).Sink.coverage
  in
  let offline = Array.map offline_digest paths in
  (* baseline: one fused single-stream replay, warm *)
  let replay path =
    timed_wall (fun () ->
        ignore (pipe_run ~stages:[ Stage.filter filter ] (Source.file path)))
  in
  ignore (replay paths.(0));
  let (), single_dt = replay paths.(0) in
  let single_rate = float_of_int per_tenant /. single_dt in
  Printf.printf "  single stream:  %.3fs (%s events/s, fused replay)\n%!" single_dt
    (Ascii.si_count (int_of_float single_rate));
  (* the mixed run: one ingest thread per tenant, one query client *)
  let hub = Hub.create ~mount:"/mnt/test" () in
  let remaining = Atomic.make tenants in
  let ingest_errors = ref [] in
  let err_lock = Mutex.create () in
  let ingest i () =
    (try
       let ic = open_in_bin paths.(i) in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () ->
           match Iocov_trace.Binary_io.open_stream ic with
           | Error msg -> failwith msg
           | Ok st ->
             let s = Hub.open_session hub ~tenant:(tenant_id i) () in
             Fun.protect
               ~finally:(fun () -> Hub.close_session s)
               (fun () ->
                 match Hub.ingest_stream s st with
                 | Ok () -> ()
                 | Error msg -> failwith msg))
     with e ->
       Mutex.lock err_lock;
       ingest_errors := Printf.sprintf "%s: %s" (tenant_id i) (Printexc.to_string e) :: !ingest_errors;
       Mutex.unlock err_lock);
    Atomic.decr remaining
  in
  let latencies = Hashtbl.create 4 in
  let lat_lock = Mutex.create () in
  let record kind dt =
    Mutex.lock lat_lock;
    (match Hashtbl.find_opt latencies kind with
     | Some r -> r := dt :: !r
     | None -> Hashtbl.add latencies kind (ref [ dt ]));
    Mutex.unlock lat_lock
  in
  let query_errs = ref 0 in
  let query_client () =
    let k = ref 0 in
    while Atomic.get remaining > 0 do
      let tenant = tenant_id (!k mod tenants) in
      let kind, q =
        match !k mod 3 with
        | 0 -> ("digest", Hub.Digest)
        | 1 -> ("coverage", Hub.Coverage)
        | _ -> ("tcd", Hub.Tcd "open.flags")
      in
      let t0 = Unix.gettimeofday () in
      (match Hub.query hub ~tenant q with
       | Ok _ -> record kind (Unix.gettimeofday () -. t0)
       | Error _ -> incr query_errs (* tenant not opened yet: not a latency *));
      incr k;
      Thread.delay 0.002
    done
  in
  let (), mixed_dt =
    timed_wall (fun () ->
        let workers = List.init tenants (fun i -> Thread.create (ingest i) ()) in
        let client = Thread.create query_client () in
        List.iter Thread.join workers;
        Thread.join client)
  in
  if !ingest_errors <> [] then begin
    List.iter (Printf.printf "  ingest FAILED: %s\n") !ingest_errors;
    exit 1
  end;
  let mixed_rate = float_of_int total /. mixed_dt in
  let slowdown = single_rate /. mixed_rate in
  Printf.printf "  mixed (%d tenants): %.3fs (%s events/s aggregate, %.2fx single)\n%!"
    tenants mixed_dt
    (Ascii.si_count (int_of_float mixed_rate))
    slowdown;
  (* the differential gate: every tenant's epoch digest must be byte-
     identical to the offline analyze of the same trace *)
  let per_tenant_rows =
    Array.to_list
      (Array.mapi
         (fun i off ->
           let served =
             match Hub.digest hub ~tenant:(tenant_id i) with
             | Some d -> d
             | None -> "<missing>"
           in
           (tenant_id i, served, off, served = off))
         offline)
  in
  let all_match = List.for_all (fun (_, _, _, m) -> m) per_tenant_rows in
  List.iter
    (fun (t, served, off, m) ->
      if not m then
        Printf.printf "  DIGEST MISMATCH %s: serve %s vs offline %s\n" t served off)
    per_tenant_rows;
  Printf.printf "  digests: %s (%d tenants vs offline analyze)\n"
    (if all_match then "identical" else "MISMATCH") tenants;
  (* query latency percentiles, in microseconds *)
  let percentile p xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    if Array.length a = 0 then 0.0
    else a.(min (Array.length a - 1)
              (int_of_float ((p *. float_of_int (Array.length a - 1)) +. 0.5)))
  in
  let kinds =
    List.filter_map
      (fun kind ->
        match Hashtbl.find_opt latencies kind with
        | None -> None
        | Some r ->
          let xs = !r in
          Some
            ( kind,
              List.length xs,
              1e6 *. percentile 0.5 xs,
              1e6 *. percentile 0.99 xs ))
      [ "digest"; "coverage"; "tcd" ]
  in
  List.iter
    (fun (kind, count, p50, p99) ->
      Printf.printf "  query %-8s  %5d ok   p50 %8.1f us   p99 %8.1f us\n" kind
        count p50 p99)
    kinds;
  (* publish overhead: one epoch is an O(cells) coverage copy *)
  let snapshot_us =
    let dense = Coverage.create () in
    List.iter
      (fun e ->
        match e.Event.payload with
        | Event.Tracked call -> Coverage.observe dense call e.Event.outcome
        | _ -> ())
      tenant_events.(0);
    let reps = 1000 in
    let (), dt =
      timed_wall (fun () ->
          for _ = 1 to reps do
            ignore (Coverage.copy dense)
          done)
    in
    1e6 *. dt /. float_of_int reps
  in
  let publishes, generation =
    List.fold_left
      (fun (p, g) i ->
        match Hub.stats hub ~tenant:(tenant_id i) with
        | Some st -> (p + st.Hub.st_publishes, g + st.Hub.st_generation)
        | None -> (p, g))
      (0, 0)
      (List.init tenants Fun.id)
  in
  Printf.printf "  publish: %.1f us/snapshot, %d epochs published for %d commits\n%!"
    snapshot_us publishes generation;
  let within_budget = slowdown <= 2.0 in
  if not within_budget then
    Printf.printf "  THROUGHPUT GATE: aggregate is %.2fx slower than single-stream (budget 2x)\n"
      slowdown;
  let body =
    Printf.sprintf
      "{\n  \"schema\": \"iocov-bench-serve/1\",\n  \"seed\": %d,\n  \
       \"tenants\": %d,\n  \"events_per_tenant\": %d,\n  \"total_events\": %d,\n  \
       \"single_stream\": { \"elapsed_s\": %.4f, \"events_per_s\": %.0f },\n  \
       \"mixed\": { \"elapsed_s\": %.4f, \"aggregate_events_per_s\": %.0f, \
       \"slowdown_vs_single\": %.3f, \"within_2x\": %b },\n  \
       \"publish\": { \"snapshot_us\": %.2f, \"publishes\": %d, \"commits\": %d },\n  \
       \"queries\": { \"errors\": %d, \"kinds\": {\n%s\n  } },\n  \
       \"digest_match\": %b,\n  \"per_tenant\": [\n%s\n  ]\n}\n"
      !seed tenants per_tenant total single_dt single_rate mixed_dt mixed_rate
      slowdown within_budget snapshot_us publishes generation !query_errs
      (String.concat ",\n"
         (List.map
            (fun (kind, count, p50, p99) ->
              Printf.sprintf
                "    \"%s\": { \"count\": %d, \"p50_us\": %.1f, \"p99_us\": %.1f }"
                kind count p50 p99)
            kinds))
      all_match
      (String.concat ",\n"
         (List.map
            (fun (t, served, off, m) ->
              Printf.sprintf
                "    { \"tenant\": \"%s\", \"digest\": \"%s\", \
                 \"offline_digest\": \"%s\", \"match\": %b }"
                (json_escape t) (json_escape served) (json_escape off) m)
            per_tenant_rows))
  in
  write_json "BENCH_serve.json" body;
  if not (all_match && within_budget) then begin
    Printf.printf "serve gate: FAIL\n%!";
    exit 1
  end;
  Printf.printf "serve gate: PASS\n%!"

(* --- E17: crash-state enumeration --- *)

let crash_bench () =
  heading "E17" "Crash-state enumeration: throughput, dedup, coverage vs bound";
  let module Engine = Iocov_crash.Engine in
  let module Vc = Iocov_vfs.Config in
  let bounds = [ 0; 2; 4 ] in
  let modes = Vc.all_journal_modes in
  let workloads = Engine.scenarios @ Iocov_suites.Crashmonkey.crash_scenarios in
  let rows = ref [] in
  List.iter
    (fun mode ->
      List.iter
        (fun bound ->
          let config = Vc.with_journal_mode mode Vc.default in
          let (reports, outcomes), dt =
            timed_wall (fun () ->
                let outcomes = Hashtbl.create 8 in
                let reports =
                  List.map
                    (fun sc ->
                      let r = Engine.run_scenario ~window:bound ~config sc in
                      List.iter
                        (fun (o, n) ->
                          if n > 0 then Hashtbl.replace outcomes o ())
                        r.Engine.rp_tally;
                      r)
                    workloads
                in
                (reports, Hashtbl.length outcomes))
          in
          let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
          let raw = sum (fun r -> r.Engine.rp_raw_states) in
          let images = sum (fun r -> r.Engine.rp_states) in
          let classified = sum (fun r -> r.Engine.rp_classified) in
          let violations = sum (fun r -> List.length r.Engine.rp_violations) in
          rows :=
            (Vc.journal_mode_to_string mode, bound, raw, images,
             float_of_int raw /. float_of_int (max 1 images),
             float_of_int raw /. dt, classified, outcomes, violations, dt)
            :: !rows)
        bounds)
    modes;
  let rows = List.rev !rows in
  print_endline
    (Ascii.table ~title:"crash-state enumeration sweep"
       ~headers:
         [ "mode"; "bound"; "states"; "images"; "dedup"; "states/s"; "cells";
           "outcomes"; "violations" ]
       (List.map
          (fun (m, b, raw, img, dd, rate, cls, oc, viol, _) ->
            [ m; string_of_int b; string_of_int raw; string_of_int img;
              Printf.sprintf "%.2f" dd; Printf.sprintf "%.0f" rate;
              string_of_int cls; Printf.sprintf "%d/5" oc; string_of_int viol ])
          rows));
  (* the gate: no oracle violations without faults, and raising the bound
     never loses states or outcome cells *)
  let clean = List.for_all (fun (_, _, _, _, _, _, _, _, v, _) -> v = 0) rows in
  let monotone =
    List.for_all
      (fun mode ->
        let m = Vc.journal_mode_to_string mode in
        let seq =
          List.filter_map
            (fun (m', b, raw, _, _, _, _, oc, _, _) ->
              if m' = m then Some (b, raw, oc) else None)
            rows
        in
        let sorted = List.sort compare seq in
        let rec ok = function
          | (_, r1, o1) :: ((_, r2, o2) :: _ as rest) ->
            r1 <= r2 && o1 <= o2 && ok rest
          | _ -> true
        in
        ok sorted)
      modes
  in
  let body =
    Printf.sprintf
      "{\n  \"schema\": \"iocov-bench-crash/1\",\n  \"workloads\": %d,\n  \
       \"bounds\": [%s],\n  \"rows\": [\n%s\n  ],\n  \"clean\": %b,\n  \
       \"monotone\": %b\n}\n"
      (List.length workloads)
      (String.concat ", " (List.map string_of_int bounds))
      (String.concat ",\n"
         (List.map
            (fun (m, b, raw, img, dd, rate, cls, oc, viol, dt) ->
              Printf.sprintf
                "    { \"mode\": \"%s\", \"bound\": %d, \"states\": %d, \
                 \"images\": %d, \"dedup\": %.2f, \"states_per_s\": %.0f, \
                 \"classified_cells\": %d, \"outcome_cells\": %d, \
                 \"violations\": %d, \"elapsed_s\": %.4f }"
                m b raw img dd rate cls oc viol dt)
            rows))
      clean monotone
  in
  write_json "BENCH_crash.json" body;
  if not (clean && monotone) then begin
    Printf.printf "crash gate: FAIL (clean=%b monotone=%b)\n%!" clean monotone;
    exit 1
  end;
  Printf.printf "crash gate: PASS\n%!"

(* --- E18: the config lattice — the off-default errno surface --- *)

let config_bench () =
  heading "E18" "Config lattice: off-default errno cells";
  let module Vc = Iocov_vfs.Config in
  Printf.printf "lattice: %d points (digest %s)\n%!" Vc.lattice_count Vc.lattice_digest;
  (* sweep every suite across the full lattice and collect errno output
     cells dark under the default point but lit under some other — the
     config-dependent error surface a single-config campaign cannot
     reach *)
  let points = Array.to_list Vc.lattice in
  let sweep_scale = 0.3 in
  let per_suite =
    List.map
      (fun suite ->
        let rows, dt =
          timed_wall (fun () ->
              Runner.run_lattice ~seed:!seed ~scale:sweep_scale ~points suite)
        in
        let named =
          List.map
            (fun ((pt : Vc.point), (r : Runner.result)) ->
              (pt.Vc.pt_name, r.Runner.coverage))
            rows
        in
        let cells = Report.off_baseline_errno_cells named in
        Printf.printf "  %-12s %2d off-default errno cells (%d-point sweep, %.2fs)\n%!"
          (Runner.suite_name suite) (List.length cells) (List.length points) dt;
        (suite, cells, dt))
      [ Runner.Crashmonkey; Runner.Xfstests; Runner.Ltp ]
  in
  let union =
    List.sort_uniq compare (List.concat_map (fun (_, cells, _) -> cells) per_suite)
  in
  List.iter
    (fun id -> Printf.printf "    %s\n" (Report.cell_label Iocov_core.Plan.cells.(id)))
    union;
  let offdef = List.length union in
  Printf.printf "  union: %d distinct errno cells reachable only off-default\n%!" offdef;
  let surface_ok = offdef >= 5 in
  let body =
    Printf.sprintf
      "{\n  \"schema\": \"iocov-bench-config/2\",\n  \"seed\": %d,\n  \
       \"lattice_points\": %d,\n  \"lattice_digest\": \"%s\",\n  \
       \"sweep_scale\": %.2f,\n  \"suites\": [\n%s\n  ],\n  \
       \"off_default_errno_cells\": [%s],\n  \
       \"off_default_errno_count\": %d,\n  \"surface_ok\": %b\n}\n"
      !seed Vc.lattice_count Vc.lattice_digest sweep_scale
      (String.concat ",\n"
         (List.map
            (fun (suite, cells, dt) ->
              Printf.sprintf
                "    { \"suite\": \"%s\", \"off_default_cells\": %d, \
                 \"elapsed_s\": %.2f }"
                (Runner.suite_name suite) (List.length cells) dt)
            per_suite))
      (String.concat ", "
         (List.map
            (fun id ->
              Printf.sprintf "\"%s\"" (Report.cell_label Iocov_core.Plan.cells.(id)))
            union))
      offdef surface_ok
  in
  write_json "BENCH_config.json" body;
  if not surface_ok then begin
    Printf.printf "config gate: FAIL (surface_ok=%b)\n%!" surface_ok;
    exit 1
  end;
  Printf.printf "config gate: PASS\n%!"

let () =
  if wanted "bugstudy" then e1_bugstudy ();
  if wanted "fig2" then e2_figure2 ();
  if wanted "table1" then e3_table1 ();
  if wanted "fig3" then e4_figure3 ();
  if wanted "fig4" then e5_figure4 ();
  if wanted "fig5" then e6_figure5 ();
  if wanted "syscalls" then e7_syscalls ();
  if wanted "differential" then e8_differential ();
  if wanted "tcd-ablation" then tcd_ablation ();
  if wanted "partition-ablation" then partition_ablation ();
  if wanted "variant-ablation" then variant_ablation ();
  if wanted "remaining" then s1_remaining_figures ();
  if wanted "ltp" then s2_ltp ();
  if wanted "reduction" then s3_reduction ();
  if wanted "fuzzer" then e10_fuzzer ();
  if !perf && wanted "perf" then perf_benches ();
  if wanted "robustness" then e13_robustness ();
  if wanted "format" then format_bench ();
  if wanted "obs" then e14_obs ();
  if wanted "serve" then serve_bench ();
  if wanted "crash" then crash_bench ();
  if wanted "config" then config_bench ();
  if !metrics_json <> "" then begin
    let report =
      Iocov_obs.Export.registry_report
        ~spans:(Iocov_obs.Span.roots ())
        Iocov_obs.Metrics.default
    in
    Out_channel.with_open_text !metrics_json (fun oc -> output_string oc report);
    Printf.printf "observability registry written to %s\n" !metrics_json
  end;
  print_newline ()
