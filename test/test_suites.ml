(* Tests for the simulated test suites: determinism, clean oracles on a
   correct file system, paper-shape assertions, scaling, and fault
   detection behaviour. *)

open Iocov_syscall
module Runner = Iocov_suites.Runner
module Coverage = Iocov_core.Coverage
module Arg_class = Iocov_core.Arg_class
module Partition = Iocov_core.Partition
module Combos = Iocov_core.Combos
module Fault = Iocov_vfs.Fault
module Log2 = Iocov_util.Log2

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Small-scale runs shared by the shape tests (computed once). *)
let cm = lazy (Runner.run ~seed:5 ~scale:0.05 Runner.Crashmonkey)
let xf = lazy (Runner.run ~seed:5 ~scale:0.05 Runner.Xfstests)

let flag_count cov flag =
  Coverage.input_count cov Arg_class.Open_flags_arg (Partition.P_flag flag)

let test_cm_oracle_clean () =
  let r = Lazy.force cm in
  Alcotest.(check (list string)) "no failures on a correct fs" [] r.Runner.failures

let test_xf_oracle_clean () =
  let r = Lazy.force xf in
  Alcotest.(check (list string)) "no failures on a correct fs" [] r.Runner.failures;
  (* seeds whose xattr loops leave the inode too full for the probes
     that follow: those probes must expect ENOSPC, not success *)
  List.iter
    (fun seed ->
      let r = Runner.run ~seed ~scale:0.2 Runner.Xfstests in
      Alcotest.(check (list string))
        (Printf.sprintf "no failures at seed %d, scale 0.2" seed)
        [] r.Runner.failures)
    [ 2; 37 ]

let test_cm_deterministic () =
  let a = Runner.run ~seed:9 ~scale:0.02 Runner.Crashmonkey in
  let b = Runner.run ~seed:9 ~scale:0.02 Runner.Crashmonkey in
  check_int "same events" a.Runner.events_total b.Runner.events_total;
  check_bool "same coverage" true
    (Coverage.input_series a.Runner.coverage Arg_class.Open_flags_arg
     = Coverage.input_series b.Runner.coverage Arg_class.Open_flags_arg)

let test_xf_deterministic () =
  let a = Runner.run ~seed:9 ~scale:0.02 Runner.Xfstests in
  let b = Runner.run ~seed:9 ~scale:0.02 Runner.Xfstests in
  check_int "same events" a.Runner.events_total b.Runner.events_total;
  check_bool "same coverage" true
    (Coverage.output_series a.Runner.coverage Model.Open
     = Coverage.output_series b.Runner.coverage Model.Open)

let test_seed_changes_streams () =
  let a = Runner.run ~seed:1 ~scale:0.02 Runner.Xfstests in
  let b = Runner.run ~seed:2 ~scale:0.02 Runner.Xfstests in
  check_bool "different seeds differ somewhere" true
    (a.Runner.events_total <> b.Runner.events_total
     || Coverage.input_series a.Runner.coverage Arg_class.Write_count
        <> Coverage.input_series b.Runner.coverage Arg_class.Write_count)

let test_scale_grows_events () =
  let small = Runner.run ~seed:3 ~scale:0.02 Runner.Xfstests in
  let bigger = Runner.run ~seed:3 ~scale:0.08 Runner.Xfstests in
  check_bool "events grow with scale" true
    (bigger.Runner.events_total > small.Runner.events_total)

let test_cm_runs_300_seq1 () =
  let r = Lazy.force cm in
  check_bool "at least the 300 seq-1 workloads" true (r.Runner.workloads >= 300)

let test_xf_runs_1014_tests () =
  let r = Lazy.force xf in
  check_int "706 generic + 308 ext4" 1014 r.Runner.workloads

let test_filter_drops_noise () =
  let r = Lazy.force xf in
  check_bool "some records filtered" true (r.Runner.events_kept < r.Runner.events_total);
  check_bool "most records kept" true (r.Runner.events_kept * 2 > r.Runner.events_total)

(* --- paper-shape assertions (Figures 2-4, Table 1) --- *)

let test_rdonly_most_popular_both () =
  List.iter
    (fun r ->
      let cov = (Lazy.force r).Runner.coverage in
      let rdonly = flag_count cov Open_flags.O_RDONLY in
      List.iter
        (fun f ->
          check_bool
            (Printf.sprintf "O_RDONLY >= %s" (Open_flags.flag_name f))
            true
            (rdonly >= flag_count cov f))
        Open_flags.all)
    [ cm; xf ]

let test_untested_flags_exist () =
  (* O_LARGEFILE, O_ASYNC, O_RSYNC stay untested by both — the paper's
     "some flags are not tested at all" *)
  List.iter
    (fun r ->
      let cov = (Lazy.force r).Runner.coverage in
      List.iter
        (fun f ->
          check_int (Open_flags.flag_name f ^ " untested") 0 (flag_count cov f))
        Open_flags.[ O_LARGEFILE; O_ASYNC; O_RSYNC ])
    [ cm; xf ]

let test_xfstests_covers_more_flags () =
  let cov_cm = (Lazy.force cm).Runner.coverage in
  let cov_xf = (Lazy.force xf).Runner.coverage in
  let covered cov =
    List.length
      (List.filter (fun f -> flag_count cov f > 0) Open_flags.all)
  in
  check_bool "xfstests covers more distinct flags" true (covered cov_xf > covered cov_cm)

let test_table1_shapes () =
  let pct cov = Combos.percent_by_flag_count ~max_n:6 (Coverage.open_flag_sets cov) in
  let cm_row = pct (Lazy.force cm).Runner.coverage in
  let xf_row = pct (Lazy.force xf).Runner.coverage in
  let nth = List.nth in
  (* four-flag combinations dominate for both suites *)
  check_bool "CM 4-flag dominant" true
    (nth cm_row 3 > nth cm_row 0 && nth cm_row 3 > nth cm_row 1 && nth cm_row 3 > nth cm_row 2);
  check_bool "XF 4-flag dominant" true
    (nth xf_row 3 > nth xf_row 0 && nth xf_row 3 > nth xf_row 1 && nth xf_row 3 > nth xf_row 2);
  (* second place: 3 flags for CrashMonkey, 2 flags for xfstests *)
  check_bool "CM second is 3 flags" true (nth cm_row 2 > nth cm_row 1);
  check_bool "XF second is 2 flags" true (nth xf_row 1 > nth xf_row 2);
  (* nobody combines more than 6 flags, and xfstests does reach 5 and 6 *)
  check_bool "XF has 5-flag tail" true (nth xf_row 4 > 0.0);
  check_bool "XF has 6-flag tail" true (nth xf_row 5 > 0.0);
  check_bool "CM stops at 5" true (nth cm_row 5 = 0.0)

let test_write_sizes_shape () =
  let cov_cm = (Lazy.force cm).Runner.coverage in
  let cov_xf = (Lazy.force xf).Runner.coverage in
  let count cov b = Coverage.input_count cov Arg_class.Write_count (Partition.P_bucket b) in
  (* zero-size writes: tested by xfstests, never by CrashMonkey *)
  check_bool "XF writes size 0" true (count cov_xf Log2.Zero > 0);
  check_int "CM never writes size 0" 0 (count cov_cm Log2.Zero);
  (* no write above 258 MiB despite 64-bit sizes *)
  List.iter
    (fun k ->
      check_int (Printf.sprintf "bucket 2^%d empty (CM)" k) 0 (count cov_cm (Log2.Pow2 k));
      check_int (Printf.sprintf "bucket 2^%d empty (XF)" k) 0 (count cov_xf (Log2.Pow2 k)))
    [ 29; 30; 31; 32 ];
  (* the 258 MiB maximum lands in bucket 28 for xfstests only *)
  check_bool "XF max write at 2^28" true (count cov_xf (Log2.Pow2 28) > 0);
  check_int "CM stops far lower" 0 (count cov_cm (Log2.Pow2 28));
  (* CrashMonkey misses many sizes xfstests covers *)
  let covered cov =
    List.length
      (List.filter (fun (_, n) -> n > 0) (Coverage.input_series cov Arg_class.Write_count))
  in
  check_bool "XF covers more size buckets" true (covered cov_xf > covered cov_cm)

let test_output_coverage_shape () =
  let cov_cm = (Lazy.force cm).Runner.coverage in
  let cov_xf = (Lazy.force xf).Runner.coverage in
  let err cov e = Coverage.output_count cov Model.Open (Partition.O_err e) in
  let distinct_errs cov =
    List.length
      (List.filter
         (fun (o, n) -> Partition.output_is_error o && n > 0)
         (Coverage.output_series cov Model.Open))
  in
  (* xfstests covers more error cases than CrashMonkey ... *)
  check_bool "XF covers more open errnos" true (distinct_errs cov_xf > distinct_errs cov_cm);
  (* ... except ENOTDIR *)
  check_bool "CM covers open ENOTDIR" true (err cov_cm Errno.ENOTDIR > 0);
  check_int "XF does not" 0 (err cov_xf Errno.ENOTDIR);
  (* and many codes remain untested by both *)
  List.iter
    (fun e ->
      check_int (Errno.to_string e ^ " untested (CM)") 0 (err cov_cm e);
      check_int (Errno.to_string e ^ " untested (XF)") 0 (err cov_xf e))
    Errno.[ E2BIG; EXDEV; ENOMEM ]

let test_xfstests_variant_coverage () =
  let cov = (Lazy.force xf).Runner.coverage in
  (* the suite exercises open variants, p-variants, vectored IO, and the
     at-variants of mkdir/chmod *)
  List.iter
    (fun v ->
      check_bool (Model.variant_name v ^ " exercised") true (Coverage.variant_calls cov v > 0))
    Model.[ Sys_openat; Sys_openat2; Sys_creat; Sys_pread64; Sys_pwrite64; Sys_readv;
            Sys_writev; Sys_mkdirat; Sys_fchmod; Sys_fchmodat; Sys_fchdir; Sys_lsetxattr;
            Sys_fsetxattr; Sys_lgetxattr; Sys_fgetxattr; Sys_ftruncate ]

let test_cm_seq2_workloads () =
  (* seq-2 bound: extra workloads run, crash oracles stay clean *)
  let failures, stats =
    Iocov_suites.Crashmonkey.emit ~seed:6 ~scale:0.02 ~seq2:40 ~on_record:ignore ()
  in
  Alcotest.(check (list string)) "seq-2 oracles clean" [] failures;
  check_bool "extra workloads counted" true (stats.Iocov_suites.Crashmonkey.workloads_run >= 340);
  check_bool "extra crashes simulated" true
    (stats.Iocov_suites.Crashmonkey.crashes_simulated >= 340)

(* --- LTP (extension suite) --- *)

let ltp = lazy (Runner.run ~seed:5 ~scale:1.0 Runner.Ltp)

let test_ltp_oracle_clean () =
  Alcotest.(check (list string)) "no failures on a correct fs" [] (Lazy.force ltp).Runner.failures

let test_ltp_deterministic () =
  let a = Runner.run ~seed:4 Runner.Ltp and b = Runner.run ~seed:4 Runner.Ltp in
  check_int "same events" a.Runner.events_total b.Runner.events_total;
  check_bool "same open outputs" true
    (Coverage.output_series a.Runner.coverage Model.Open
     = Coverage.output_series b.Runner.coverage Model.Open)

let test_ltp_errno_rich_profile () =
  (* LTP's signature: broad error-code coverage from a tiny event count *)
  let r = Lazy.force ltp in
  check_bool "small volume" true (r.Runner.events_total < 10_000);
  let distinct_errs =
    List.length
      (List.filter
         (fun (o, n) -> n > 0 && Partition.output_is_error o)
         (Coverage.output_series r.Runner.coverage Model.Open))
  in
  check_bool "covers >= 15 open errnos" true (distinct_errs >= 15)

let test_ltp_narrow_input_sizes () =
  (* ... while write-size input coverage stays narrow *)
  let r = Lazy.force ltp in
  let covered =
    List.length
      (List.filter (fun (_, n) -> n > 0)
         (Coverage.input_series r.Runner.coverage Arg_class.Write_count))
  in
  check_bool "few size buckets" true (covered <= 12)

let test_ltp_plain_flag_style () =
  (* LTP never builds the 4+-flag combinations the other suites use *)
  let r = Lazy.force ltp in
  check_bool "at most 3 flags combined" true
    (Iocov_core.Combos.max_flags_combined (Coverage.open_flag_sets r.Runner.coverage) <= 3)

let test_ltp_detects_in_coverage_faults () =
  let r =
    Runner.run ~seed:5 ~faults:[ Fault.Getxattr_empty_enodata ] Runner.Ltp
  in
  (* the empty-value case is outside LTP's probes: stored size 0 never set *)
  ignore r;
  let r2 = Runner.run ~seed:5 ~faults:[ Fault.Truncate_efbig_unchecked ] Runner.Ltp in
  check_bool "EFBIG boundary case caught" true (Runner.detects r2);
  let r3 = Runner.run ~seed:5 ~faults:[ Fault.Seek_hole_off_by_one ] Runner.Ltp in
  check_bool "SEEK_HOLE boundary caught" true (Runner.detects r3)

(* --- fault detection by the suites --- *)

let test_xfstests_catches_seeded_regressions () =
  (* faults inside xfstests' input coverage are caught ... *)
  List.iter
    (fun fault ->
      let r = Runner.run ~seed:5 ~scale:0.02 ~faults:[ fault ] Runner.Xfstests in
      check_bool (Fault.to_string fault ^ " detected") true (Runner.detects r))
    [ Fault.Write_zero_advances_offset; Fault.Truncate_efbig_unchecked;
      Fault.Getxattr_empty_enodata ]

let test_xfstests_misses_fig1_bug () =
  (* ... but Figure 1's max-size xattr bug sits in a partition value the
     suite never exercises, exactly as in the paper *)
  let r = Runner.run ~seed:5 ~scale:0.02 ~faults:[ Fault.Xattr_ibody_overflow ] Runner.Xfstests in
  check_bool "missed despite full code coverage" false (Runner.detects r)

let test_xfstests_misses_largefile_bug () =
  (* O_LARGEFILE is an untested flag, so the fault behind it is invisible *)
  let r = Runner.run ~seed:5 ~scale:0.02 ~faults:[ Fault.Largefile_eoverflow ] Runner.Xfstests in
  check_bool "missed: untested input partition" false (Runner.detects r)

let test_crashmonkey_catches_fsync_bug () =
  let r = Runner.run ~seed:5 ~scale:0.05 ~faults:[ Fault.Fsync_skips_data ] Runner.Crashmonkey in
  check_bool "crash-consistency bug caught" true (Runner.detects r)

let test_crashmonkey_misses_boundary_bugs () =
  (* CrashMonkey's narrow input coverage misses the input-boundary bugs *)
  List.iter
    (fun fault ->
      let r = Runner.run ~seed:5 ~scale:0.02 ~faults:[ fault ] Runner.Crashmonkey in
      check_bool (Fault.to_string fault ^ " missed") false (Runner.detects r))
    [ Fault.Xattr_ibody_overflow; Fault.Largefile_eoverflow; Fault.Write_zero_advances_offset ]

let suites =
  [ ( "suites.basics",
      [ Alcotest.test_case "CrashMonkey oracle clean" `Slow test_cm_oracle_clean;
        Alcotest.test_case "xfstests oracle clean" `Slow test_xf_oracle_clean;
        Alcotest.test_case "CrashMonkey deterministic" `Slow test_cm_deterministic;
        Alcotest.test_case "xfstests deterministic" `Slow test_xf_deterministic;
        Alcotest.test_case "seed sensitivity" `Slow test_seed_changes_streams;
        Alcotest.test_case "scale grows events" `Slow test_scale_grows_events;
        Alcotest.test_case "CrashMonkey 300 seq-1 workloads" `Slow test_cm_runs_300_seq1;
        Alcotest.test_case "xfstests 1014 tests" `Slow test_xf_runs_1014_tests;
        Alcotest.test_case "filter drops out-of-mount noise" `Slow test_filter_drops_noise;
        Alcotest.test_case "CrashMonkey seq-2 workloads" `Slow test_cm_seq2_workloads ] );
    ( "suites.paper_shapes",
      [ Alcotest.test_case "O_RDONLY most popular (Fig 2)" `Slow test_rdonly_most_popular_both;
        Alcotest.test_case "untested flags exist (Fig 2)" `Slow test_untested_flags_exist;
        Alcotest.test_case "xfstests covers more flags (Fig 2)" `Slow
          test_xfstests_covers_more_flags;
        Alcotest.test_case "flag combinations (Table 1)" `Slow test_table1_shapes;
        Alcotest.test_case "write sizes (Fig 3)" `Slow test_write_sizes_shape;
        Alcotest.test_case "open outputs (Fig 4)" `Slow test_output_coverage_shape;
        Alcotest.test_case "variant coverage" `Slow test_xfstests_variant_coverage ] );
    ( "suites.ltp",
      [ Alcotest.test_case "oracle clean" `Quick test_ltp_oracle_clean;
        Alcotest.test_case "deterministic" `Quick test_ltp_deterministic;
        Alcotest.test_case "errno-rich profile" `Quick test_ltp_errno_rich_profile;
        Alcotest.test_case "narrow input sizes" `Quick test_ltp_narrow_input_sizes;
        Alcotest.test_case "plain flag style" `Quick test_ltp_plain_flag_style;
        Alcotest.test_case "catches boundary faults in its probes" `Quick
          test_ltp_detects_in_coverage_faults ] );
    ( "suites.fault_detection",
      [ Alcotest.test_case "xfstests catches in-coverage faults" `Slow
          test_xfstests_catches_seeded_regressions;
        Alcotest.test_case "xfstests misses the Fig-1 xattr bug" `Slow
          test_xfstests_misses_fig1_bug;
        Alcotest.test_case "xfstests misses the O_LARGEFILE bug" `Slow
          test_xfstests_misses_largefile_bug;
        Alcotest.test_case "CrashMonkey catches the fsync bug" `Slow
          test_crashmonkey_catches_fsync_bug;
        Alcotest.test_case "CrashMonkey misses boundary bugs" `Slow
          test_crashmonkey_misses_boundary_bugs ] ) ]
