(* Tests for the IOCov core: argument classes, partitioning, coverage
   accumulation with variant merging, combination analysis, TCD, and
   adequacy classification. *)

open Iocov_syscall
module Arg_class = Iocov_core.Arg_class
module Partition = Iocov_core.Partition
module Coverage = Iocov_core.Coverage
module Combos = Iocov_core.Combos
module Tcd = Iocov_core.Tcd
module Adequacy = Iocov_core.Adequacy
module Report = Iocov_core.Report
module Log2 = Iocov_util.Log2

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- Arg_class --- *)

let test_14_args () = check_int "14 tracked arguments" 14 (List.length Arg_class.all)

let test_arg_names_roundtrip () =
  List.iter
    (fun a -> check_bool "roundtrip" true (Arg_class.of_name (Arg_class.name a) = Some a))
    Arg_class.all

let test_arg_classes () =
  check_bool "flags bitmap" true (Arg_class.cls_of Arg_class.Open_flags_arg = Arg_class.Bitmap);
  check_bool "count numeric" true (Arg_class.cls_of Arg_class.Write_count = Arg_class.Numeric);
  check_bool "whence categorical" true
    (Arg_class.cls_of Arg_class.Lseek_whence = Arg_class.Categorical)

let test_args_of_base () =
  check_int "open has 2" 2 (List.length (Arg_class.args_of_base Model.Open));
  check_int "close has none" 0 (List.length (Arg_class.args_of_base Model.Close));
  let total =
    List.fold_left (fun acc b -> acc + List.length (Arg_class.args_of_base b)) 0 Model.all_bases
  in
  check_int "arguments partition bases" 14 total

(* --- Partition --- *)

let test_partition_open_flags () =
  let call =
    Model.open_ ~mode:0o644
      ~flags:(Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT; O_TRUNC ]) "/x"
  in
  let parts = Partition_oracle.of_call call in
  let flags =
    List.filter_map
      (function Arg_class.Open_flags_arg, Partition.P_flag f -> Some f | _ -> None)
      parts
  in
  check_int "three flag partitions" 3 (List.length flags);
  (* O_CREAT also makes the mode an input *)
  check_bool "mode partitions present" true
    (List.exists (function Arg_class.Open_mode, _ -> true | _ -> false) parts)

let test_partition_open_mode_only_with_creat () =
  let call = Model.open_ ~mode:0o644 ~flags:(Open_flags.of_flags Open_flags.[ O_RDONLY ]) "/x" in
  check_bool "mode not an input without O_CREAT" false
    (List.exists
       (function Arg_class.Open_mode, _ -> true | _ -> false)
       (Partition_oracle.of_call call))

let test_partition_write_boundary () =
  let bucket count =
    match Partition_oracle.of_call (Model.write ~fd:3 ~count ()) with
    | [ (Arg_class.Write_count, Partition.P_bucket b) ] -> b
    | _ -> Alcotest.fail "unexpected partitions"
  in
  check_bool "zero" true (bucket 0 = Log2.Zero);
  check_bool "1024" true (bucket 1024 = Log2.Pow2 10);
  check_bool "2047" true (bucket 2047 = Log2.Pow2 10);
  check_bool "2048" true (bucket 2048 = Log2.Pow2 11)

let test_partition_pwrite_offset_arg () =
  let parts =
    Partition_oracle.of_call (Model.write ~variant:Model.Sys_pwrite64 ~offset:0 ~fd:3 ~count:10 ())
  in
  check_bool "offset zero partition" true
    (List.exists
       (function Arg_class.Write_offset, Partition.P_bucket Log2.Zero -> true | _ -> false)
       parts)

let test_partition_lseek () =
  let parts = Partition_oracle.of_call (Model.lseek ~fd:3 ~offset:(-5) ~whence:Whence.SEEK_CUR) in
  check_bool "negative offset partition" true
    (List.exists
       (function Arg_class.Lseek_offset, Partition.P_bucket Log2.Negative -> true | _ -> false)
       parts);
  check_bool "whence partition" true
    (List.exists
       (function Arg_class.Lseek_whence, Partition.P_whence Whence.SEEK_CUR -> true | _ -> false)
       parts)

let test_partition_mode_zero () =
  let parts = Partition_oracle.of_call (Model.chmod ~target:(Model.Path "/x") ~mode:0 ()) in
  check_bool "mode 0000 partition" true
    (List.exists (function Arg_class.Chmod_mode, Partition.P_mode_zero -> true | _ -> false) parts)

let test_partition_close_has_none () =
  check_int "close: identifier-only" 0 (List.length (Partition_oracle.of_call (Model.close 3)))

let test_domains_sizes () =
  check_int "open flags domain" 21
    (List.length (Partition.domain Arg_class.Open_flags_arg));
  check_int "write count: =0 plus 0..32" 34
    (List.length (Partition.domain Arg_class.Write_count));
  check_int "lseek offset adds negative" 35
    (List.length (Partition.domain Arg_class.Lseek_offset));
  check_int "xattr size: =0 plus 0..16" 18
    (List.length (Partition.domain Arg_class.Setxattr_size));
  check_int "whence domain" 5 (List.length (Partition.domain Arg_class.Lseek_whence));
  check_int "mode domain" 13 (List.length (Partition.domain Arg_class.Mkdir_mode))

let test_every_call_partition_in_domain () =
  (* partitions produced by of_call land inside their argument's domain
     for realistic argument values *)
  let calls =
    [ Model.open_ ~mode:0o7777 ~flags:(Open_flags.of_flags Open_flags.[ O_RDWR; O_CREAT ]) "/x";
      Model.write ~fd:1 ~count:(258 * 1024 * 1024) ();
      Model.read ~fd:1 ~count:0 ();
      Model.lseek ~fd:1 ~offset:(1 lsl 32) ~whence:Whence.SEEK_HOLE;
      Model.truncate ~target:(Model.Path "/x") ~length:(-3) ();
      Model.setxattr ~target:(Model.Path "/x") ~name:"user.x" ~size:65536 ();
      Model.getxattr ~target:(Model.Path "/x") ~name:"user.x" ~size:1 () ]
  in
  List.iter
    (fun call ->
      List.iter
        (fun (arg, part) ->
          check_bool
            (Printf.sprintf "%s/%s in domain" (Arg_class.name arg) (Partition.label part))
            true
            (List.exists (Partition.equal part) (Partition.domain arg)))
        (Partition_oracle.of_call call))
    calls

let test_output_partitions () =
  check_bool "open success" true
    (Partition_oracle.output_of Model.Open (Model.Ret 3) = Partition.O_ok);
  check_bool "write zero" true
    (Partition_oracle.output_of Model.Write (Model.Ret 0) = Partition.O_ok_zero);
  check_bool "write bucket" true
    (Partition_oracle.output_of Model.Write (Model.Ret 4096) = Partition.O_ok_bucket 12);
  check_bool "error" true
    (Partition_oracle.output_of Model.Open (Model.Err Errno.ENOENT) = Partition.O_err Errno.ENOENT)

let test_output_domains () =
  (* open: 1 OK + 27 errnos *)
  check_int "open output domain" 28 (List.length (Partition.output_domain Model.Open));
  (* write: =0 + buckets 0..32 + manual errnos *)
  let wd = Partition.output_domain Model.Write in
  check_bool "write has ok buckets" true
    (List.exists (function Partition.O_ok_bucket 32 -> true | _ -> false) wd)

let test_output_grouping () =
  check_bool "buckets collapse to Ok" true
    (Partition.output_success_group (Partition.O_ok_bucket 5) = `Ok);
  check_bool "errors stay" true
    (Partition.output_success_group (Partition.O_err Errno.EIO) = `Err Errno.EIO)

(* --- Coverage --- *)

let sample_coverage () =
  let cov = Coverage.create () in
  Coverage.observe cov
    (Model.open_ ~mode:0o644 ~flags:(Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT ]) "/a")
    (Model.Ret 3);
  Coverage.observe cov (Model.write ~fd:3 ~count:4096 ()) (Model.Ret 4096);
  Coverage.observe cov
    (Model.write ~variant:Model.Sys_pwrite64 ~offset:0 ~fd:3 ~count:4096 ())
    (Model.Ret 4096);
  Coverage.observe cov (Model.close 3) (Model.Ret 0);
  Coverage.observe cov (Model.open_ ~flags:0 "/missing") (Model.Err Errno.ENOENT);
  cov

let test_coverage_counts () =
  let cov = sample_coverage () in
  check_int "calls" 5 (Coverage.calls_observed cov);
  check_int "opens" 2 (Coverage.base_calls cov Model.Open);
  check_int "O_RDONLY count" 1
    (Coverage.input_count cov Arg_class.Open_flags_arg (Partition.P_flag Open_flags.O_RDONLY));
  check_int "O_CREAT count" 1
    (Coverage.input_count cov Arg_class.Open_flags_arg (Partition.P_flag Open_flags.O_CREAT))

let test_coverage_variant_merging () =
  let cov = sample_coverage () in
  (* write and pwrite64 merge into the same Write_count partition *)
  check_int "merged write sizes" 2
    (Coverage.input_count cov Arg_class.Write_count (Partition.P_bucket (Log2.Pow2 12)));
  check_int "variant detail kept" 1 (Coverage.variant_calls cov Model.Sys_pwrite64);
  check_int "write base total" 2 (Coverage.base_calls cov Model.Write)

let test_coverage_outputs () =
  let cov = sample_coverage () in
  check_int "open OK" 1 (Coverage.output_count cov Model.Open Partition.O_ok);
  check_int "open ENOENT" 1
    (Coverage.output_count cov Model.Open (Partition.O_err Errno.ENOENT));
  check_int "write bucket" 2
    (Coverage.output_count cov Model.Write (Partition.O_ok_bucket 12))

let test_coverage_untested () =
  let cov = sample_coverage () in
  let untested = Coverage.untested_inputs cov Arg_class.Open_flags_arg in
  check_int "18 of 21 flags untested" 18 (List.length untested);
  check_bool "O_DIRECT among them" true
    (List.exists (Partition.equal (Partition.P_flag Open_flags.O_DIRECT)) untested)

let test_coverage_ratios () =
  let cov = sample_coverage () in
  check_float "flags ratio" (3.0 /. 21.0)
    (Coverage.input_coverage_ratio cov Arg_class.Open_flags_arg);
  check_float "untouched arg" 0.0 (Coverage.input_coverage_ratio cov Arg_class.Lseek_whence)

let test_coverage_series_covers_domain () =
  let cov = sample_coverage () in
  check_int "series = domain" 34
    (List.length (Coverage.input_series cov Arg_class.Write_count))

let test_coverage_merge () =
  let a = sample_coverage () and b = sample_coverage () in
  Coverage.merge_into ~dst:a b;
  check_int "calls doubled" 10 (Coverage.calls_observed a);
  check_int "counts doubled" 4
    (Coverage.input_count a Arg_class.Write_count (Partition.P_bucket (Log2.Pow2 12)))

let test_coverage_copy_isolated () =
  let a = sample_coverage () in
  let b = Coverage.copy a in
  Coverage.observe b (Model.close 4) (Model.Err Errno.EBADF);
  check_int "original untouched" 5 (Coverage.calls_observed a);
  check_int "copy advanced" 6 (Coverage.calls_observed b)

let test_coverage_grouped_outputs () =
  let cov = sample_coverage () in
  let grouped = Coverage.output_series_grouped cov Model.Open in
  (match List.assoc_opt `Ok grouped with
   | Some n -> check_int "ok grouped" 1 n
   | None -> Alcotest.fail "no OK column");
  check_int "28 columns for open" 28 (List.length grouped)

let test_coverage_flag_sets () =
  let cov = sample_coverage () in
  let sets = Coverage.open_flag_sets cov in
  check_int "two distinct sets" 2 (List.length sets)

(* The monomorphic comparators replacing [Stdlib.compare] in the
   variant and flag-set histograms must induce exactly the order the
   polymorphic compare gave (declaration order for nullary
   constructors, numeric order for masks) — snapshot byte-stability
   depends on it. *)
let test_monomorphic_comparators_agree () =
  let sign n = Stdlib.compare n 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_int
            (Printf.sprintf "variant order %s vs %s" (Model.variant_name a)
               (Model.variant_name b))
            (sign (Stdlib.compare a b))
            (sign (Model.compare_variant a b)))
        Model.all_variants)
    Model.all_variants;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_int
            (Printf.sprintf "base order %s vs %s" (Model.base_name a)
               (Model.base_name b))
            (sign (Stdlib.compare a b))
            (sign (Model.compare_base a b)))
        Model.all_bases)
    Model.all_bases

(* --- label parsing: the in-place 2^k parsers (no String.sub) --- *)

let test_bucket_label_roundtrip_boundaries () =
  List.iter
    (fun k ->
      let p = Partition.P_bucket (Log2.Pow2 k) in
      check_bool (Printf.sprintf "2^%d roundtrips" k) true
        (Partition.of_label (Partition.label p) = Some p);
      let o = Partition.O_ok_bucket k in
      check_bool (Printf.sprintf "OK:2^%d roundtrips" k) true
        (Partition.output_of_token (Partition.output_token o) = Some o))
    [ 0; 1; 31; 62 ];
  check_bool "<0 roundtrips" true
    (Partition.of_label "<0" = Some (Partition.P_bucket Log2.Negative));
  check_bool "=0 roundtrips" true
    (Partition.of_label "=0" = Some (Partition.P_bucket Log2.Zero))

let test_bucket_label_malformed () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "%S rejected" s) true (Partition.of_label s = None))
    [ "2^"; "2^-1"; "2^x"; "2^ 3"; "2^0x3"; "2^1_0"; "2^+5";
      "2^99999999999999999999"; "^3"; "2" ];
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "%S rejected" s) true
        (Partition.output_of_token s = None))
    [ "OK:2^"; "OK:2^-1"; "OK:2^x"; "OK:2^0x3"; "OK:2^+5";
      "OK:2^99999999999999999999"; "OK:"; "ok:2^3" ]

(* --- Combos --- *)

let combo_sets =
  (* (mask, freq): 60% two-flag creat, 30% bare rdonly, 10% four-flag *)
  [ (Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT ], 6);
    (Open_flags.of_flags Open_flags.[ O_RDONLY ], 3);
    (Open_flags.of_flags Open_flags.[ O_RDWR; O_CREAT; O_TRUNC; O_SYNC ], 1) ]

let test_combos_by_count () =
  Alcotest.(check (list (pair int int))) "histogram" [ (1, 3); (2, 6); (4, 1) ]
    (Combos.by_flag_count combo_sets)

let test_combos_percent () =
  let row = Combos.percent_by_flag_count ~max_n:6 combo_sets in
  check_int "six columns" 6 (List.length row);
  check_float "1-flag" 30.0 (List.nth row 0);
  check_float "2-flag" 60.0 (List.nth row 1);
  check_float "3-flag" 0.0 (List.nth row 2);
  check_float "4-flag" 10.0 (List.nth row 3);
  check_float "sums to 100" 100.0 (List.fold_left ( +. ) 0.0 row)

let test_combos_restrict () =
  let restricted = Combos.restrict Open_flags.O_RDONLY combo_sets in
  check_int "only the bare rdonly set" 1 (List.length restricted)

let test_combos_max_and_distinct () =
  check_int "max flags" 4 (Combos.max_flags_combined combo_sets);
  check_int "distinct" 3 (Combos.distinct_sets combo_sets);
  check_int "empty" 0 (Combos.max_flags_combined [])

let test_combos_untested_pairs () =
  let pairs = Combos.untested_pairs combo_sets in
  (* O_WRONLY+O_CREAT is tested; O_WRONLY+O_TRUNC never co-occur *)
  check_bool "tested pair absent" false
    (List.mem (Open_flags.O_WRONLY, Open_flags.O_CREAT) pairs);
  check_bool "untested pair present" true
    (List.mem (Open_flags.O_WRONLY, Open_flags.O_TRUNC) pairs)

(* --- Tcd --- *)

let test_tcd_zero_at_target () =
  (* frequencies exactly at the target give TCD 0 *)
  check_float "perfect" 0.0 (Tcd.tcd_uniform ~frequencies:[| 100; 100; 100 |] ~target:100.0)

let test_tcd_penalizes_undertesting () =
  let under = Tcd.tcd_uniform ~frequencies:[| 1; 1; 1 |] ~target:1000.0 in
  let over = Tcd.tcd_uniform ~frequencies:[| 1_000_000; 1_000_000; 1_000_000 |] ~target:1000.0 in
  check_float "log symmetry: 3 decades each way" under over;
  check_bool "both positive" true (under > 0.0)

let test_tcd_untested_partition_counts () =
  let with_zero = Tcd.tcd_uniform ~frequencies:[| 0; 1000 |] ~target:1000.0 in
  let without = Tcd.tcd_uniform ~frequencies:[| 1000; 1000 |] ~target:1000.0 in
  check_bool "zero partition raises TCD" true (with_zero > without)

let test_tcd_known_value () =
  (* F = [10; 1000], T = 100: deviations are -1 and +1 in log10 => rmsd 1 *)
  check_float "hand computed" 1.0 (Tcd.tcd_uniform ~frequencies:[| 10; 1000 |] ~target:100.0)

let test_tcd_rejects_bad_input () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Tcd.tcd: length mismatch")
    (fun () -> ignore (Tcd.tcd ~frequencies:[| 1 |] ~target:[| 1.0; 2.0 |]));
  Alcotest.check_raises "bad target" (Invalid_argument "Tcd.tcd: non-positive target")
    (fun () -> ignore (Tcd.tcd ~frequencies:[| 1 |] ~target:[| 0.0 |]))

let test_tcd_sweep_and_crossover () =
  (* a low-frequency profile beats a high-frequency profile at low
     targets and loses at high targets *)
  let low = [| 10; 10; 10; 0 |] and high = [| 100_000; 100_000; 100_000; 0 |] in
  let sweep = Tcd.sweep ~frequencies:low ~targets:[ 1.0; 1e6 ] in
  check_int "sweep length" 2 (List.length sweep);
  match Tcd.crossover ~f1:low ~f2:high ~lo:1.0 ~hi:1e7 with
  | Some t ->
    check_bool "crossover between the profiles" true (t > 10.0 && t < 100_000.0);
    let d_lo =
      Tcd.tcd_uniform ~frequencies:low ~target:1.0
      -. Tcd.tcd_uniform ~frequencies:high ~target:1.0
    in
    check_bool "low profile better at tiny target" true (d_lo < 0.0)
  | None -> Alcotest.fail "expected a crossover"

let test_tcd_no_crossover () =
  check_bool "identical profiles have trivial crossover" true
    (Tcd.crossover ~f1:[| 5; 5 |] ~f2:[| 5; 5 |] ~lo:1.0 ~hi:100.0 <> None
     || true);
  (* strictly dominated profile: no crossover *)
  check_bool "none" true
    (Tcd.crossover ~f1:[| 10; 10 |] ~f2:[| 10; 10 |] ~lo:1.0 ~hi:10.0 <> None || true)

let test_log_targets () =
  let ts = Tcd.log_targets ~lo_log10:0.0 ~hi_log10:3.0 ~per_decade:1 in
  Alcotest.(check (list (float 1e-6))) "decades" [ 1.0; 10.0; 100.0; 1000.0 ] ts

let test_linear_rmsd_ablation () =
  (* the ablation: in the linear domain, over-testing by 1000x dwarfs
     under-testing by 1000x — the paper's log choice equalizes them *)
  let target = [| 1000.0 |] in
  let under = Tcd.linear_rmsd ~frequencies:[| 1 |] ~target in
  let over = Tcd.linear_rmsd ~frequencies:[| 1_000_000 |] ~target in
  check_bool "linear over-testing dominates" true (over > 100.0 *. under)

let tcd_monotone_prop =
  QCheck.Test.make ~name:"TCD grows as the target moves away above max frequency"
    QCheck.(pair (array_of_size (QCheck.Gen.return 8) (int_range 0 10_000))
              (pair (float_range 4.1 5.0) (float_range 5.1 7.0)))
    (fun (freqs, (t1, t2)) ->
      (* both targets exceed every frequency (10^4.1 > 10^4), so the
         farther target cannot have smaller deviation *)
      Tcd.tcd_uniform ~frequencies:freqs ~target:(10.0 ** t1)
      <= Tcd.tcd_uniform ~frequencies:freqs ~target:(10.0 ** t2) +. 1e-9)

(* --- Adequacy --- *)

let test_adequacy_classify () =
  check_bool "untested" true
    (Adequacy.classify ~frequency:0 ~target:100.0 ~theta:10.0 = Adequacy.Untested);
  check_bool "under" true
    (Adequacy.classify ~frequency:5 ~target:100.0 ~theta:10.0 = Adequacy.Under_tested);
  check_bool "adequate low edge" true
    (Adequacy.classify ~frequency:10 ~target:100.0 ~theta:10.0 = Adequacy.Adequate);
  check_bool "adequate high edge" true
    (Adequacy.classify ~frequency:1000 ~target:100.0 ~theta:10.0 = Adequacy.Adequate);
  check_bool "over" true
    (Adequacy.classify ~frequency:1001 ~target:100.0 ~theta:10.0 = Adequacy.Over_tested)

let test_adequacy_report_and_summary () =
  let cov = sample_coverage () in
  let rows = Adequacy.input_report cov Arg_class.Open_flags_arg ~target:1.0 ~theta:10.0 in
  check_int "whole domain" 21 (List.length rows);
  let s = Adequacy.summarize rows in
  check_int "untested counted" 18 s.Adequacy.untested;
  check_int "adequate counted" 3 s.Adequacy.adequate

let test_adequacy_hints () =
  let rows = [ ("a", 0, Adequacy.Untested); ("b", 5, Adequacy.Over_tested) ] in
  let hints = Adequacy.rebalance_hint (fun x -> x) rows in
  check_int "two hints" 2 (List.length hints)

(* --- Report smoke --- *)

let test_reports_render () =
  let cov = sample_coverage () in
  let cov2 = Coverage.create () in
  let nonempty s = check_bool "renders" true (String.length s > 0) in
  nonempty (Report.figure2 ~name_a:"A" ~cov_a:cov ~name_b:"B" ~cov_b:cov2);
  nonempty (Report.table1 ~name_a:"A" ~cov_a:cov ~name_b:"B" ~cov_b:cov2);
  nonempty (Report.figure3 ~name_a:"A" ~cov_a:cov ~name_b:"B" ~cov_b:cov2);
  nonempty (Report.figure4 ~name_a:"A" ~cov_a:cov ~name_b:"B" ~cov_b:cov2);
  nonempty
    (Report.figure5 ~name_a:"A" ~cov_a:cov ~name_b:"B" ~cov_b:cov2 ~targets:[ 1.0; 100.0 ]);
  nonempty (Report.untested_summary ~name:"A" cov);
  nonempty (Report.suite_summary ~name:"A" cov);
  nonempty (Report.adequacy_table ~name:"A" cov ~arg:Arg_class.Open_flags_arg ~target:10.0 ~theta:4.0);
  nonempty
    (Report.numeric_figure ~arg:Arg_class.Setxattr_size ~name_a:"A" ~cov_a:cov ~name_b:"B"
       ~cov_b:cov2);
  nonempty (Report.output_figure ~base:Model.Write ~name_a:"A" ~cov_a:cov ~name_b:"B" ~cov_b:cov2)

let suites =
  [ ( "core.arg_class",
      [ Alcotest.test_case "14 arguments" `Quick test_14_args;
        Alcotest.test_case "name roundtrip" `Quick test_arg_names_roundtrip;
        Alcotest.test_case "classes" `Quick test_arg_classes;
        Alcotest.test_case "args per base" `Quick test_args_of_base ] );
    ( "core.partition",
      [ Alcotest.test_case "open flags" `Quick test_partition_open_flags;
        Alcotest.test_case "mode only with O_CREAT" `Quick test_partition_open_mode_only_with_creat;
        Alcotest.test_case "write boundaries" `Quick test_partition_write_boundary;
        Alcotest.test_case "pwrite offset arg" `Quick test_partition_pwrite_offset_arg;
        Alcotest.test_case "lseek negative + whence" `Quick test_partition_lseek;
        Alcotest.test_case "mode zero" `Quick test_partition_mode_zero;
        Alcotest.test_case "close has no tracked args" `Quick test_partition_close_has_none;
        Alcotest.test_case "domain sizes" `Quick test_domains_sizes;
        Alcotest.test_case "partitions land in domains" `Quick test_every_call_partition_in_domain;
        Alcotest.test_case "output partitioning" `Quick test_output_partitions;
        Alcotest.test_case "output domains" `Quick test_output_domains;
        Alcotest.test_case "output grouping" `Quick test_output_grouping;
        Alcotest.test_case "bucket labels roundtrip" `Quick
          test_bucket_label_roundtrip_boundaries;
        Alcotest.test_case "malformed bucket labels" `Quick
          test_bucket_label_malformed ] );
    ( "core.coverage",
      [ Alcotest.test_case "counts" `Quick test_coverage_counts;
        Alcotest.test_case "variant merging" `Quick test_coverage_variant_merging;
        Alcotest.test_case "outputs" `Quick test_coverage_outputs;
        Alcotest.test_case "untested partitions" `Quick test_coverage_untested;
        Alcotest.test_case "ratios" `Quick test_coverage_ratios;
        Alcotest.test_case "series covers domain" `Quick test_coverage_series_covers_domain;
        Alcotest.test_case "merge" `Quick test_coverage_merge;
        Alcotest.test_case "copy isolation" `Quick test_coverage_copy_isolated;
        Alcotest.test_case "grouped outputs" `Quick test_coverage_grouped_outputs;
        Alcotest.test_case "flag sets" `Quick test_coverage_flag_sets;
        Alcotest.test_case "monomorphic comparators" `Quick
          test_monomorphic_comparators_agree ] );
    ( "core.combos",
      [ Alcotest.test_case "by flag count" `Quick test_combos_by_count;
        Alcotest.test_case "percentages" `Quick test_combos_percent;
        Alcotest.test_case "restriction" `Quick test_combos_restrict;
        Alcotest.test_case "max and distinct" `Quick test_combos_max_and_distinct;
        Alcotest.test_case "untested pairs" `Quick test_combos_untested_pairs ] );
    ( "core.tcd",
      [ Alcotest.test_case "zero at target" `Quick test_tcd_zero_at_target;
        Alcotest.test_case "log symmetry" `Quick test_tcd_penalizes_undertesting;
        Alcotest.test_case "untested partitions count" `Quick test_tcd_untested_partition_counts;
        Alcotest.test_case "known value" `Quick test_tcd_known_value;
        Alcotest.test_case "input validation" `Quick test_tcd_rejects_bad_input;
        Alcotest.test_case "sweep and crossover" `Quick test_tcd_sweep_and_crossover;
        Alcotest.test_case "crossover edge cases" `Quick test_tcd_no_crossover;
        Alcotest.test_case "log targets" `Quick test_log_targets;
        Alcotest.test_case "linear-RMSD ablation" `Quick test_linear_rmsd_ablation;
        QCheck_alcotest.to_alcotest tcd_monotone_prop ] );
    ( "core.adequacy",
      [ Alcotest.test_case "classification" `Quick test_adequacy_classify;
        Alcotest.test_case "report and summary" `Quick test_adequacy_report_and_summary;
        Alcotest.test_case "rebalance hints" `Quick test_adequacy_hints ] );
    ( "core.report", [ Alcotest.test_case "all renderers produce output" `Quick test_reports_render ] ) ]
