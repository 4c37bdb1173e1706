(* Tests for the bug-study dataset (every Section 2 aggregate must match
   the paper exactly) and the differential tester. *)

module Bug = Iocov_bugstudy.Bug
module Dataset = Iocov_bugstudy.Dataset
module Stats = Iocov_bugstudy.Stats
module Diff = Iocov_bugstudy.Differential
module Fault = Iocov_vfs.Fault

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let stats = lazy (Stats.of_dataset ())

(* --- the paper's numbers, one test each --- *)

let test_total_70 () = check_int "70 bugs" 70 (Lazy.force stats).Stats.total
let test_ext4_51 () = check_int "51 Ext4" 51 (Lazy.force stats).Stats.ext4
let test_btrfs_19 () = check_int "19 BtrFS" 19 (Lazy.force stats).Stats.btrfs

let test_line_covered_missed_37 () =
  check_int "37/70 line-covered but missed (53%)" 37
    (Lazy.force stats).Stats.line_covered_missed

let test_func_covered_missed_43 () =
  check_int "43/70 func-covered but missed (61%)" 43
    (Lazy.force stats).Stats.func_covered_missed

let test_branch_covered_missed_20 () =
  check_int "20/70 branch-covered but missed (29%)" 20
    (Lazy.force stats).Stats.branch_covered_missed

let test_input_bugs_50 () =
  check_int "50/70 input bugs (71%)" 50 (Lazy.force stats).Stats.input_bugs

let test_output_bugs_41 () =
  check_int "41/70 output bugs (59%)" 41 (Lazy.force stats).Stats.output_bugs

let test_either_57 () =
  check_int "57/70 input- or output-related (81%)" 57
    (Lazy.force stats).Stats.input_or_output

let test_covered_missed_input_24 () =
  check_int "24/37 covered-missed input-triggerable (65%)" 24
    (Lazy.force stats).Stats.covered_missed_input_triggerable

let test_percentages () =
  let s = Lazy.force stats in
  let pct p w = int_of_float (Float.round (Stats.pct p w)) in
  check_int "53%" 53 (pct s.Stats.line_covered_missed s.Stats.total);
  check_int "61%" 61 (pct s.Stats.func_covered_missed s.Stats.total);
  check_int "29%" 29 (pct s.Stats.branch_covered_missed s.Stats.total);
  check_int "71%" 71 (pct s.Stats.input_bugs s.Stats.total);
  check_int "59%" 59 (pct s.Stats.output_bugs s.Stats.total);
  check_int "81%" 81 (pct s.Stats.input_or_output s.Stats.total);
  check_int "65%" 65 (pct s.Stats.covered_missed_input_triggerable s.Stats.line_covered_missed)

(* --- structural sanity --- *)

let test_records_valid () =
  List.iter
    (fun b ->
      check_bool (b.Bug.id ^ " coverage nesting and detectability") true (Bug.valid b))
    Dataset.all

let test_ids_unique () =
  let ids = List.map (fun b -> b.Bug.id) Dataset.all in
  check_int "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_titles_nonempty_and_prefixed () =
  List.iter
    (fun b ->
      let prefix = match b.Bug.fs with Bug.Ext4 -> "ext4:" | Bug.Btrfs -> "btrfs:" in
      check_bool (b.Bug.id ^ " title prefixed") true
        (String.length b.Bug.title > String.length prefix
         && String.sub b.Bug.title 0 (String.length prefix) = prefix))
    Dataset.all

let test_by_fs_partition () =
  check_int "by_fs covers all" 70
    (List.length (Dataset.by_fs Bug.Ext4) + List.length (Dataset.by_fs Bug.Btrfs))

let test_find () =
  (match Dataset.find "ext4-2022-010" with
   | Some b -> check_bool "Fig 1 record found" true (b.Bug.fault = Some Fault.Xattr_ibody_overflow)
   | None -> Alcotest.fail "missing the Figure 1 record");
  check_bool "unknown id" true (Dataset.find "nope" = None)

let test_injectable_faults_unique () =
  let faults = List.filter_map (fun b -> b.Bug.fault) Dataset.injectable in
  check_int "each fault maps to one record" (List.length faults)
    (List.length (List.sort_uniq Fault.compare faults));
  check_int "12 injectable archetypes" (List.length Fault.all) (List.length faults)

let test_classification_labels () =
  let count label =
    List.length (List.filter (fun b -> Bug.classification b = label) Dataset.all)
  in
  check_int "both" 34 (count "both");
  check_int "input-only" 16 (count "input");
  check_int "output-only" 7 (count "output");
  check_int "neither" 13 (count "neither")

let test_trigger_frequency () =
  let freqs = Stats.trigger_frequency Dataset.all in
  check_int "all 11 bases listed" 11 (List.length freqs);
  let get base = List.assoc base freqs in
  check_bool "write is the top trigger" true
    (List.for_all (fun (_, n) -> n <= get Iocov_syscall.Model.Write) freqs)

let test_render_mentions_every_stat () =
  let table = Stats.render (Lazy.force stats) in
  List.iter
    (fun needle ->
      let found =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length table && (String.sub table i n = needle || go (i + 1))
        in
        go 0
      in
      check_bool ("table mentions " ^ needle) true found)
    [ "37/70"; "43/70"; "20/70"; "50/70"; "41/70"; "57/70"; "24/37" ]

(* --- differential tester --- *)

let test_guided_detects_every_fault () =
  List.iter
    (fun fault ->
      let r = Diff.hunt ~strategy:Diff.Iocov_guided fault in
      check_bool (Fault.to_string fault ^ " detected by guided probes") true r.Diff.detected)
    Fault.all

let test_code_style_misses_every_fault () =
  List.iter
    (fun fault ->
      let r = Diff.hunt ~budget:16 ~strategy:Diff.Code_coverage_style fault in
      check_bool (Fault.to_string fault ^ " missed by code-style probes") false r.Diff.detected)
    Fault.all

let test_budget_respected () =
  let r = Diff.hunt ~budget:3 ~strategy:Diff.Code_coverage_style Fault.Xattr_ibody_overflow in
  check_bool "at most 3 probes" true (r.Diff.probes_run <= 3)

let test_negative_budget_refused () =
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Differential.hunt: budget must be non-negative") (fun () ->
      ignore
        (Diff.hunt ~budget:(-2) ~strategy:Diff.Code_coverage_style Fault.Xattr_ibody_overflow));
  let r = Diff.hunt ~budget:0 ~strategy:Diff.Iocov_guided Fault.Xattr_ibody_overflow in
  check_int "zero budget runs no probe" 0 r.Diff.probes_run

let test_detection_reports_probe_index () =
  let r = Diff.hunt ~strategy:Diff.Iocov_guided Fault.Write_zero_advances_offset in
  (match r.Diff.first_detection with
   | Some i -> check_bool "index within run" true (i < r.Diff.probes_run)
   | None -> Alcotest.fail "expected detection index")

let test_campaign_covers_matrix () =
  let reports = Diff.campaign ~budget:16 () in
  check_int "every fault x both strategies" (2 * List.length Fault.all) (List.length reports);
  Alcotest.(check (float 1e-9)) "guided rate 100%" 1.0
    (Diff.detection_rate reports Diff.Iocov_guided)

let test_no_false_positives () =
  (* hunting with no fault planted can never detect anything: both file
     systems are identical *)
  let probes_equal strategy =
    (* run the hunt machinery against a fault that... we simulate by
       checking a correct-vs-correct pair through the public API: every
       guided probe must behave identically on two fresh correct file
       systems, which we verify via determinism of hunt on a fault whose
       probes never reach its trigger *)
    let r = Diff.hunt ~budget:2 ~strategy Fault.Fsync_skips_data in
    (* the first two guided probes don't touch fsync; code-style probes
       never do *)
    r.Diff.detected = false
  in
  check_bool "guided prefix clean" true (probes_equal Diff.Iocov_guided);
  check_bool "code-style clean" true (probes_equal Diff.Code_coverage_style)

let test_render_campaign () =
  let reports = Diff.campaign ~budget:4 () in
  check_bool "renders" true (String.length (Diff.render reports) > 0)

let suites =
  [ ( "bugstudy.aggregates",
      [ Alcotest.test_case "70 bugs" `Quick test_total_70;
        Alcotest.test_case "51 Ext4" `Quick test_ext4_51;
        Alcotest.test_case "19 BtrFS" `Quick test_btrfs_19;
        Alcotest.test_case "37 line-covered missed" `Quick test_line_covered_missed_37;
        Alcotest.test_case "43 func-covered missed" `Quick test_func_covered_missed_43;
        Alcotest.test_case "20 branch-covered missed" `Quick test_branch_covered_missed_20;
        Alcotest.test_case "50 input bugs" `Quick test_input_bugs_50;
        Alcotest.test_case "41 output bugs" `Quick test_output_bugs_41;
        Alcotest.test_case "57 input-or-output" `Quick test_either_57;
        Alcotest.test_case "24/37 input-triggerable" `Quick test_covered_missed_input_24;
        Alcotest.test_case "rounded percentages" `Quick test_percentages ] );
    ( "bugstudy.structure",
      [ Alcotest.test_case "records valid" `Quick test_records_valid;
        Alcotest.test_case "ids unique" `Quick test_ids_unique;
        Alcotest.test_case "titles prefixed" `Quick test_titles_nonempty_and_prefixed;
        Alcotest.test_case "fs partition" `Quick test_by_fs_partition;
        Alcotest.test_case "find" `Quick test_find;
        Alcotest.test_case "injectable mapping" `Quick test_injectable_faults_unique;
        Alcotest.test_case "classification counts" `Quick test_classification_labels;
        Alcotest.test_case "trigger frequency" `Quick test_trigger_frequency;
        Alcotest.test_case "render mentions every stat" `Quick test_render_mentions_every_stat
      ] );
    ( "bugstudy.differential",
      [ Alcotest.test_case "guided detects every fault" `Slow test_guided_detects_every_fault;
        Alcotest.test_case "code-style misses every fault" `Slow
          test_code_style_misses_every_fault;
        Alcotest.test_case "budget respected" `Quick test_budget_respected;
        Alcotest.test_case "negative budget refused" `Quick test_negative_budget_refused;
        Alcotest.test_case "detection index" `Quick test_detection_reports_probe_index;
        Alcotest.test_case "campaign matrix" `Slow test_campaign_covers_matrix;
        Alcotest.test_case "no false positives" `Quick test_no_false_positives;
        Alcotest.test_case "render" `Quick test_render_campaign ] ) ]
