(* Tests for the future-work extensions: coverage snapshots, the
   Syzkaller program adapter, the feedback-comparison fuzzer and
   test-suite reduction. *)

open Iocov_syscall
module Coverage = Iocov_core.Coverage
module Snapshot = Iocov_core.Snapshot
module Partition = Iocov_core.Partition
module Arg_class = Iocov_core.Arg_class
module Syzlang = Iocov_trace.Syzlang
module Fuzzer = Iocov_suites.Fuzzer
module Runner = Iocov_suites.Runner

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Snapshot --- *)

let sample_coverage () =
  let cov = Coverage.create () in
  Coverage.observe cov
    (Model.open_ ~mode:0o644 ~flags:(Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT ]) "/a")
    (Model.Ret 3);
  Coverage.observe cov (Model.write ~fd:3 ~count:4096 ()) (Model.Ret 4096);
  Coverage.observe cov (Model.write ~fd:3 ~count:0 ()) (Model.Ret 0);
  Coverage.observe cov (Model.lseek ~fd:3 ~offset:(-1) ~whence:Whence.SEEK_CUR)
    (Model.Err Errno.EINVAL);
  Coverage.observe cov (Model.open_ ~flags:0 "/missing") (Model.Err Errno.ENOENT);
  Coverage.observe cov
    (Model.setxattr ~target:(Model.Path "/a") ~name:"user.k" ~size:65536 ())
    (Model.Err Errno.ENOSPC);
  cov

let test_snapshot_string_roundtrip () =
  let cov = sample_coverage () in
  match Snapshot.of_string (Snapshot.to_string cov) with
  | Ok cov' -> check_bool "roundtrip equal" true (Snapshot.equal cov cov')
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_snapshot_file_roundtrip () =
  let cov = sample_coverage () in
  let path = Filename.temp_file "iocov_snap" ".cov" in
  Snapshot.save_file path cov;
  let result = Snapshot.load_file path in
  Sys.remove path;
  match result with
  | Ok cov' -> check_bool "file roundtrip" true (Snapshot.equal cov cov')
  | Error msg -> Alcotest.failf "load failed: %s" msg

let test_snapshot_suite_roundtrip () =
  (* a real suite's coverage — thousands of counters — survives *)
  let r = Runner.run ~seed:3 ~scale:0.02 Runner.Crashmonkey in
  match Snapshot.of_string (Snapshot.to_string r.Runner.coverage) with
  | Ok cov' -> check_bool "suite coverage roundtrip" true (Snapshot.equal r.Runner.coverage cov')
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_snapshot_rejects_garbage () =
  List.iter
    (fun s ->
      match Snapshot.of_string s with
      | Ok _ -> Alcotest.failf "expected failure for %S" s
      | Error _ -> ())
    [ ""; "not a snapshot"; "iocov-coverage v1\nbogus line here";
      "iocov-coverage v1\ninput open.flags O_NOPE 3";
      "iocov-coverage v1\ninput nope.arg O_RDONLY 3";
      "iocov-coverage v1\noutput open NOTANERRNO 3";
      "iocov-coverage v1\ncalls -4" ]

(* Well-formed lines naming a cell the plan has no counter for: a
   bucket past 2^62, a partition of another argument's class.  No run
   can observe them, so a snapshot holding one is refused by line and
   by name. *)
let test_snapshot_refuses_out_of_plan_cells () =
  List.iter
    (fun (line, cell) ->
      match Snapshot.of_string ("iocov-coverage v1\n" ^ line ^ "\n") with
      | Ok _ -> Alcotest.failf "expected %S to be refused" line
      | Error msg ->
        check_bool (Printf.sprintf "%S names line 2 and %s" msg cell) true
          (String.starts_with ~prefix:"line 2: " msg
           && String.starts_with ~prefix:cell (String.sub msg 8 (String.length msg - 8))))
    [ ("input write.count 2^70 1", "input write.count 2^70");
      ("input read.count O_CREAT 1", "input read.count O_CREAT");
      ("output read OK:2^63 1", "output read OK:2^63") ];
  check_bool "add_input refuses an out-of-plan cell" true
    (match
       Coverage.add_input (Coverage.create ()) Arg_class.Write_count
         (Partition.P_bucket (Iocov_util.Log2.Pow2 70)) 1
     with
     | () -> false
     | exception Invalid_argument _ -> true)

let test_snapshot_empty_coverage () =
  match Snapshot.of_string (Snapshot.to_string (Coverage.create ())) with
  | Ok cov' -> check_int "empty stays empty" 0 (Coverage.calls_observed cov')
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_snapshot_merge_after_load () =
  let a = sample_coverage () in
  let b = Result.get_ok (Snapshot.of_string (Snapshot.to_string a)) in
  Coverage.merge_into ~dst:b a;
  check_int "merged doubles calls" (2 * Coverage.calls_observed a) (Coverage.calls_observed b)

let test_partition_label_roundtrip () =
  (* every partition in every domain round-trips through its label *)
  List.iter
    (fun arg ->
      List.iter
        (fun part ->
          match Partition.of_label (Partition.label part) with
          | Some part' ->
            check_bool (Partition.label part ^ " roundtrip") true (Partition.equal part part')
          | None -> Alcotest.failf "no parse for %s" (Partition.label part))
        (Partition.domain arg))
    Arg_class.all

let test_output_token_roundtrip () =
  List.iter
    (fun base ->
      List.iter
        (fun out ->
          match Partition.output_of_token (Partition.output_token out) with
          | Some out' ->
            check_bool
              (Partition.output_token out ^ " roundtrip")
              true
              (Partition.equal_output out out')
          | None -> Alcotest.failf "no parse for %s" (Partition.output_token out))
        (Partition.output_domain base))
    Model.all_bases

(* --- Syzlang --- *)

let sample_program =
  {|# a fuzzed program
r0 = openat(0xffffffffffffff9c, &(0x7f0000000000)='./file0\x00', 0x42, 0x1ff)
pwrite64(r0, &(0x7f0000000040)="deadbeef", 0x4, 0x0)
r1 = socket(0x2, 0x1, 0x0)
sendto(r1, &(0x7f0000000080)="00", 0x1, 0x0, nil, 0x0)
lseek(r0, 0x10, 0x1)
readv(r0, &(0x7f0000000100)=[{&(0x7f0000000200)=""/100, 0x64}, {&(0x7f0000000300)=""/10, 0xa}], 0x2)
mkdir(&(0x7f0000000400)='./dir0\x00', 0x1c0)
truncate(&(0x7f0000000500)='./file0\x00', 0x10000)
setxattr(&(0x7f0000000000)='./file0\x00', &(0x7f0000000600)='user.x\x00', &(0x7f0000000640)="aa", 0x1, 0x1)
fgetxattr(r0, &(0x7f0000000600)='user.x\x00', &(0x7f0000000680)=""/64, 0x40)
close(r0)|}

let parsed = lazy (Result.get_ok (Syzlang.parse_program sample_program))

let test_syz_counts () =
  let p = Lazy.force parsed in
  check_int "supported calls" 9 (List.length p.Syzlang.calls);
  check_int "skipped foreign syscalls" 2 (List.length p.Syzlang.skipped)

let test_syz_open_decoding () =
  match (Lazy.force parsed).Syzlang.calls with
  | Model.Open_call { variant; path; flags; mode } :: _ ->
    check_bool "variant" true (variant = Model.Sys_openat);
    Alcotest.(check string) "path" "./file0" path;
    (* 0x42 = O_RDWR | O_CREAT *)
    check_bool "O_RDWR" true (Open_flags.has flags Open_flags.O_RDWR);
    check_bool "O_CREAT" true (Open_flags.has flags Open_flags.O_CREAT);
    check_int "mode 0x1ff = 0o777" 0o777 mode
  | _ -> Alcotest.fail "first call is not the openat"

let test_syz_fd_binding () =
  (* the fd bound to r0 flows to later calls; r1 (socket) gets its own *)
  let p = Lazy.force parsed in
  let fds =
    List.filter_map
      (function
        | Model.Write_call { fd; _ } | Model.Read_call { fd; _ } | Model.Lseek_call { fd; _ }
        | Model.Close_call { fd } -> Some fd
        | Model.Getxattr_call { target = Model.Fd fd; _ } -> Some fd
        | _ -> None)
      p.Syzlang.calls
  in
  check_bool "all r0 uses share one descriptor" true
    (List.length (List.sort_uniq compare fds) = 1)

let test_syz_pwrite_fields () =
  let p = Lazy.force parsed in
  match List.nth p.Syzlang.calls 1 with
  | Model.Write_call { variant; count; offset; _ } ->
    check_bool "pwrite64" true (variant = Model.Sys_pwrite64);
    check_int "count from blob" 4 count;
    check_bool "offset" true (offset = Some 0)
  | _ -> Alcotest.fail "expected the pwrite64"

let test_syz_iovec_sum () =
  let p = Lazy.force parsed in
  match List.find_opt (function Model.Read_call { variant = Model.Sys_readv; _ } -> true | _ -> false) p.Syzlang.calls with
  | Some (Model.Read_call { count; _ }) -> check_int "0x64 + 0xa" 110 count
  | _ -> Alcotest.fail "expected the readv"

let test_syz_whence_and_xattr () =
  let p = Lazy.force parsed in
  (match List.find_opt (function Model.Lseek_call _ -> true | _ -> false) p.Syzlang.calls with
   | Some (Model.Lseek_call { whence; offset; _ }) ->
     check_bool "whence 1 = SEEK_CUR" true (whence = Whence.SEEK_CUR);
     check_int "offset" 16 offset
   | _ -> Alcotest.fail "expected the lseek");
  match List.find_opt (function Model.Setxattr_call _ -> true | _ -> false) p.Syzlang.calls with
  | Some (Model.Setxattr_call { name; size; flags; _ }) ->
    Alcotest.(check string) "attr name" "user.x" name;
    check_int "size" 1 size;
    check_bool "XATTR_CREATE" true (flags = Xattr_flag.XATTR_CREATE)
  | _ -> Alcotest.fail "expected the setxattr"

let test_syz_at_fdcwd_wraps () =
  (* 0xffffffffffffff9c must not break integer parsing *)
  match Syzlang.parse_program "r0 = openat(0xffffffffffffff9c, &(0x7f0000000000)='./x\\x00', 0x0, 0x0)" with
  | Ok p -> check_int "one call" 1 (List.length p.Syzlang.calls)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_syz_errors_are_located () =
  match Syzlang.parse_program "openat(0x0, &(0x7f0000000000)='./x\\x00', 0x0)" with
  | Ok _ -> Alcotest.fail "expected arity failure"
  | Error msg -> check_bool "mentions line" true (String.length msg > 0)

(* the road `iocov syz` takes: the driver over a syzlang source *)
let test_syz_program_coverage () =
  match Iocov_pipe.Driver.run (Iocov_pipe.Source.syz sample_program) with
  | Ok r ->
    let product = r.Iocov_pipe.Driver.product in
    let cov = product.Iocov_pipe.Sink.coverage in
    check_int "calls observed" 9 product.Iocov_pipe.Sink.events;
    check_int "input side fed" 9 (Coverage.calls_observed cov);
    check_bool "O_CREAT partition covered" true
      (Coverage.input_count cov Arg_class.Open_flags_arg (Partition.P_flag Open_flags.O_CREAT)
       > 0);
    (* no outcomes in a program log: output side stays empty *)
    check_int "no output coverage" 0
      (List.length (Coverage.output_histogram cov Model.Open))
  | Error msg -> Alcotest.failf "syz run failed: %s" msg

let test_syz_empty_and_comments () =
  match Syzlang.parse_program "# nothing\n\n# here\n" with
  | Ok p -> check_int "no calls" 0 (List.length p.Syzlang.calls)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

(* --- Fuzzer --- *)

let test_fuzzer_deterministic () =
  let a = Fuzzer.run ~seed:5 ~budget:300 ~feedback:Fuzzer.Partition_novelty () in
  let b = Fuzzer.run ~seed:5 ~budget:300 ~feedback:Fuzzer.Partition_novelty () in
  check_int "same corpus" a.Fuzzer.corpus_size b.Fuzzer.corpus_size;
  check_bool "same growth curve" true (a.Fuzzer.growth = b.Fuzzer.growth)

let test_fuzzer_growth_monotone () =
  let r = Fuzzer.run ~seed:6 ~budget:500 ~feedback:Fuzzer.Outcome_novelty () in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check_bool "coverage never shrinks" true (monotone r.Fuzzer.growth);
  check_int "executions recorded" 500 r.Fuzzer.executions

let test_fuzzer_partition_feedback_wins () =
  (* the paper's related-work claim, measured: partition-novelty feedback
     covers at least as many partitions as outcome-novelty under the same
     budget, and strictly more on this seed.  The exact corpus sizes and
     partition counts are pinned: a change to how either feedback keys
     its observations moves them. *)
  let outcome, partition = Fuzzer.compare_feedbacks ~seed:77 ~budget:1500 () in
  let c r = Fuzzer.covered_partitions r.Fuzzer.coverage in
  check_bool "guided covers strictly more" true (c partition > c outcome);
  check_int "outcome-novelty corpus" 23 outcome.Fuzzer.corpus_size;
  check_int "outcome-novelty partitions" 138 (c outcome);
  check_int "partition-novelty corpus" 120 partition.Fuzzer.corpus_size;
  check_int "partition-novelty partitions" 165 (c partition)

let test_fuzzer_budget () =
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Fuzzer.run: budget must be non-negative") (fun () ->
      ignore (Fuzzer.run ~budget:(-1) ~feedback:Fuzzer.Partition_novelty ()));
  let r = Fuzzer.run ~budget:0 ~feedback:Fuzzer.Outcome_novelty () in
  check_int "zero budget runs nothing" 0 r.Fuzzer.executions;
  check_int "seed corpus only" 4 r.Fuzzer.corpus_size;
  check_bool "no growth samples" true (r.Fuzzer.growth = [])

(* The bit-set feedbacks against the string-keyed ones they replaced:
   on random observation streams from test_dense's widest generators,
   cut into programs of one to four observations, both answer the same
   for every program.  A feedback that stopped marking at the first new
   id would call a later program new when the string keys do not. *)
let rec split_at k = function
  | x :: rest when k > 0 ->
    let front, back = split_at (k - 1) rest in
    (x :: front, back)
  | l -> ([], l)

let novelty_matches_string_keys =
  QCheck.Test.make ~count:200 ~name:"bit-set novelty = string-key novelty"
    QCheck.(pair (int_bound 1_000_000) (int_bound 300))
    (fun (seed, n) ->
      let pairs = Test_dense.gen_pairs ~seed n in
      List.for_all
        (fun feedback ->
          let rng = Iocov_util.Prng.create ~seed:(seed + 1) in
          let novelty = Fuzzer.novelty feedback in
          let oracle = Partition_oracle.Novelty.create feedback in
          let rec go i pairs =
            let k = 1 + Iocov_util.Prng.int rng 4 in
            match split_at k pairs with
            | [], _ -> true
            | program, rest ->
              let got = Fuzzer.interesting novelty program in
              let want = Partition_oracle.Novelty.interesting oracle program in
              if got <> want then
                QCheck.Test.fail_reportf "%s, program %d: bit set says %b, string keys %b"
                  (Fuzzer.feedback_name feedback) i got want
              else go (i + 1) rest
          in
          go 0 pairs)
        [ Fuzzer.Outcome_novelty; Fuzzer.Partition_novelty ])

let test_fuzzer_corpus_grows () =
  let r = Fuzzer.run ~seed:8 ~budget:400 ~feedback:Fuzzer.Partition_novelty () in
  check_bool "corpus beyond the seeds" true (r.Fuzzer.corpus_size > 4)

let test_fuzzer_finds_injected_fault () =
  (* with a boundary fault planted, the guided fuzzer's differential
     check reports deviations: the seed corpus's setxattr/getxattr pairs
     mutate into the zero-size value that trips the bug *)
  let r =
    Fuzzer.run ~seed:9 ~budget:800 ~faults:[ Iocov_vfs.Fault.Getxattr_empty_enodata ]
      ~feedback:Fuzzer.Partition_novelty ()
  in
  check_bool "deviations observed" true (r.Fuzzer.crashes > 0)

let test_fuzzer_no_crashes_without_faults () =
  let r = Fuzzer.run ~seed:10 ~budget:200 ~feedback:Fuzzer.Partition_novelty () in
  check_int "no faults, no crashes" 0 r.Fuzzer.crashes

(* --- Reduction --- *)

module Reduction = Iocov_core.Reduction

let cov_of calls =
  let cov = Coverage.create () in
  List.iter (fun (call, outcome) -> Coverage.observe cov call outcome) calls;
  cov

let test_reduction_drops_redundant () =
  (* two identical tests plus one unique: the greedy cover picks two *)
  let a = cov_of [ (Model.write ~fd:3 ~count:4096 (), Model.Ret 4096) ] in
  let a' = cov_of [ (Model.write ~fd:3 ~count:4096 (), Model.Ret 4096) ] in
  let b = cov_of [ (Model.write ~fd:3 ~count:0 (), Model.Ret 0) ] in
  let sel =
    Reduction.greedy
      [ { Reduction.name = "t1"; coverage = a };
        { Reduction.name = "t1-clone"; coverage = a' };
        { Reduction.name = "t2"; coverage = b } ]
  in
  check_int "two tests suffice" 2 (List.length sel.Reduction.chosen);
  check_bool "unique test kept" true (List.mem "t2" sel.Reduction.chosen);
  check_bool "one of the twins kept" true
    (List.mem "t1" sel.Reduction.chosen <> List.mem "t1-clone" sel.Reduction.chosen)

let test_reduction_preserves_coverage () =
  let mk n =
    cov_of
      [ (Model.write ~fd:3 ~count:(1 lsl n) (), Model.Ret (1 lsl n));
        (Model.read ~fd:3 ~count:(1 lsl n) (), Model.Ret (1 lsl n)) ]
  in
  let items =
    List.init 6 (fun i -> { Reduction.name = Printf.sprintf "t%d" i; coverage = mk i })
  in
  let sel = Reduction.greedy items in
  check_int "selection covers everything" sel.Reduction.total_covered sel.Reduction.covered;
  (* every test contributes a distinct bucket, so none can be dropped *)
  check_int "no test is redundant here" 6 (List.length sel.Reduction.chosen)

let test_reduction_greedy_order () =
  (* the big test is picked first *)
  let big =
    cov_of
      [ (Model.write ~fd:3 ~count:1 (), Model.Ret 1);
        (Model.write ~fd:3 ~count:16 (), Model.Ret 16);
        (Model.write ~fd:3 ~count:256 (), Model.Ret 256) ]
  in
  let small = cov_of [ (Model.write ~fd:3 ~count:1 (), Model.Ret 1) ] in
  let sel =
    Reduction.greedy
      [ { Reduction.name = "small"; coverage = small };
        { Reduction.name = "big"; coverage = big } ]
  in
  (match sel.Reduction.chosen with
   | "big" :: _ -> ()
   | other -> Alcotest.failf "expected big first, got %s" (String.concat "," other));
  check_int "small is subsumed" 1 (List.length sel.Reduction.chosen)

let test_reduction_empty () =
  let sel = Reduction.greedy [] in
  check_int "nothing chosen" 0 (List.length sel.Reduction.chosen);
  check_int "nothing covered" 0 sel.Reduction.total_covered

let test_reduction_same_names () =
  (* two tests may share a name (CrashMonkey repeats workload names):
     picking one must not drop the other *)
  let small = cov_of [ (Model.write ~fd:3 ~count:8 (), Model.Ret 8) ] in
  let big = cov_of [ (Model.write ~fd:3 ~count:65536 (), Model.Err Errno.ENOSPC) ] in
  let sel =
    Reduction.greedy
      [ { Reduction.name = "t"; coverage = small }; { Reduction.name = "t"; coverage = big } ]
  in
  check_bool "both chosen" true (sel.Reduction.chosen = [ "t"; "t" ]);
  check_int "all covered" 3 sel.Reduction.covered;
  check_int "suite covers three" 3 sel.Reduction.total_covered

(* Reduction over plan cell ids against the string-keyed greedy it
   replaced, on per-test coverages drawn from test_dense's generators.
   Names are distinct, the only case where dropping by name was
   sound. *)
let reduction_matches_string_keys =
  QCheck.Test.make ~count:200 ~name:"cell-id greedy = string-key greedy"
    QCheck.(triple (int_bound 1_000_000) (int_bound 12) (int_bound 8))
    (fun (seed, tests, calls) ->
      let items =
        List.init tests (fun i ->
            let n = 1 + ((seed + i) mod (calls + 1)) in
            { Reduction.name = Printf.sprintf "t%d" i;
              coverage = cov_of (Test_dense.gen_pairs ~seed:(seed + i) n) })
      in
      let sel = Reduction.greedy items in
      let chosen, covered, total_covered = Partition_oracle.greedy items in
      if sel.Reduction.chosen <> chosen then
        QCheck.Test.fail_reportf "chosen %s, string keys %s"
          (String.concat " " sel.Reduction.chosen) (String.concat " " chosen)
      else sel.Reduction.covered = covered && sel.Reduction.total_covered = total_covered)

let test_reduction_deterministic () =
  let items =
    List.init 5 (fun i ->
        { Reduction.name = Printf.sprintf "t%d" i;
          coverage = cov_of [ (Model.write ~fd:3 ~count:(i * 100) (), Model.Ret (i * 100)) ] })
  in
  let a = Reduction.greedy items and b = Reduction.greedy items in
  check_bool "same picks" true (a.Reduction.chosen = b.Reduction.chosen)

let suites =
  [ ( "ext.snapshot",
      [ Alcotest.test_case "string roundtrip" `Quick test_snapshot_string_roundtrip;
        Alcotest.test_case "file roundtrip" `Quick test_snapshot_file_roundtrip;
        Alcotest.test_case "suite coverage roundtrip" `Slow test_snapshot_suite_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_snapshot_rejects_garbage;
        Alcotest.test_case "refuses out-of-plan cells" `Quick
          test_snapshot_refuses_out_of_plan_cells;
        Alcotest.test_case "empty coverage" `Quick test_snapshot_empty_coverage;
        Alcotest.test_case "merge after load" `Quick test_snapshot_merge_after_load;
        Alcotest.test_case "partition label roundtrip" `Quick test_partition_label_roundtrip;
        Alcotest.test_case "output token roundtrip" `Quick test_output_token_roundtrip ] );
    ( "ext.syzlang",
      [ Alcotest.test_case "call and skip counts" `Quick test_syz_counts;
        Alcotest.test_case "openat decoding" `Quick test_syz_open_decoding;
        Alcotest.test_case "register binding" `Quick test_syz_fd_binding;
        Alcotest.test_case "pwrite fields" `Quick test_syz_pwrite_fields;
        Alcotest.test_case "iovec length sum" `Quick test_syz_iovec_sum;
        Alcotest.test_case "whence and xattr decoding" `Quick test_syz_whence_and_xattr;
        Alcotest.test_case "AT_FDCWD wraps" `Quick test_syz_at_fdcwd_wraps;
        Alcotest.test_case "errors located" `Quick test_syz_errors_are_located;
        Alcotest.test_case "program via the driver" `Quick test_syz_program_coverage;
        Alcotest.test_case "comments and blanks" `Quick test_syz_empty_and_comments ] );
    ( "ext.fuzzer",
      [ Alcotest.test_case "deterministic" `Quick test_fuzzer_deterministic;
        Alcotest.test_case "growth monotone" `Quick test_fuzzer_growth_monotone;
        Alcotest.test_case "partition feedback wins" `Slow test_fuzzer_partition_feedback_wins;
        Alcotest.test_case "budget" `Quick test_fuzzer_budget;
        QCheck_alcotest.to_alcotest novelty_matches_string_keys;
        Alcotest.test_case "corpus grows" `Quick test_fuzzer_corpus_grows;
        Alcotest.test_case "finds an injected fault" `Slow test_fuzzer_finds_injected_fault;
        Alcotest.test_case "no false crashes" `Quick test_fuzzer_no_crashes_without_faults ] );
    ( "ext.reduction",
      [ Alcotest.test_case "drops redundant tests" `Quick test_reduction_drops_redundant;
        Alcotest.test_case "preserves coverage" `Quick test_reduction_preserves_coverage;
        Alcotest.test_case "greedy order" `Quick test_reduction_greedy_order;
        Alcotest.test_case "empty input" `Quick test_reduction_empty;
        Alcotest.test_case "deterministic" `Quick test_reduction_deterministic;
        Alcotest.test_case "same-named tests" `Quick test_reduction_same_names;
        QCheck_alcotest.to_alcotest reduction_matches_string_keys ] ) ]
