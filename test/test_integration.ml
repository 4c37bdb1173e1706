(* End-to-end pipeline tests: suite -> raw trace file -> parse -> filter
   -> coverage must equal the live-sink coverage, and the CLI-level flows
   compose. *)

module Runner = Iocov_suites.Runner
module Coverage = Iocov_core.Coverage
module Arg_class = Iocov_core.Arg_class
module Event = Iocov_trace.Event
module Format_io = Iocov_trace.Format_io
module Filter = Iocov_trace.Filter
module Tcd = Iocov_core.Tcd

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_offline_equals_online () =
  (* run CrashMonkey into a raw file sink while keeping the live stream;
     re-analyzing the file through the same filter must reproduce the
     live stream's coverage exactly *)
  let path = Filename.temp_file "iocov_integration" ".trace" in
  let oc = open_out path in
  let stream = ref [] in
  let on_record e =
    stream := e :: !stream;
    Format_io.sink_channel oc e
  in
  let _failures, _stats = Iocov_suites.Crashmonkey.emit ~seed:21 ~scale:0.02 ~on_record () in
  close_out oc;
  let filter = Filter.mount_point Iocov_suites.Crashmonkey.mount in
  let live, _ = Test_par.sequential_coverage filter (List.rev !stream) in
  let offline = Coverage.create () in
  let ic = open_in path in
  let result =
    Trace_reader.fold_text ic ~init:() ~f:(fun () e ->
        if Filter.keeps filter e then
          match e.Event.payload with
          | Event.Tracked call -> Coverage.observe offline call e.Event.outcome
          | Event.Aux _ -> ())
  in
  close_in ic;
  Sys.remove path;
  (match result with Ok () -> () | Error msg -> Alcotest.failf "parse: %s" msg);
  check_bool "offline analysis reproduces live coverage" true
    (Test_par.matches_oracle live offline)

let test_wrong_mount_filters_everything () =
  let path = Filename.temp_file "iocov_integration" ".trace" in
  let oc = open_out path in
  let _ =
    Iocov_suites.Crashmonkey.emit ~seed:22 ~scale:0.02 ~on_record:(Format_io.sink_channel oc) ()
  in
  close_out oc;
  let filter = Filter.mount_point "/somewhere/else" in
  let ic = open_in path in
  let kept =
    Result.get_ok
      (Trace_reader.fold_text ic ~init:0 ~f:(fun acc e ->
           if Filter.keeps filter e then acc + 1 else acc))
  in
  close_in ic;
  Sys.remove path;
  check_int "nothing kept under the wrong mount" 0 kept

let test_trace_contains_aux_records () =
  let path = Filename.temp_file "iocov_integration" ".trace" in
  let oc = open_out path in
  let _ =
    Iocov_suites.Crashmonkey.emit ~seed:23 ~scale:0.02 ~on_record:(Format_io.sink_channel oc) ()
  in
  close_out oc;
  let ic = open_in path in
  let tracked, aux =
    Result.get_ok
      (Trace_reader.fold_text ic ~init:(0, 0) ~f:(fun (t, a) e ->
           if Event.is_tracked e then (t + 1, a) else (t, a + 1)))
  in
  close_in ic;
  Sys.remove path;
  check_bool "tracked records present" true (tracked > 0);
  check_bool "aux records present (fsync/sync/crash)" true (aux > 0)

let test_figure5_crossover_exists_end_to_end () =
  (* the paper's qualitative Figure 5 claim on real simulated coverage:
     CrashMonkey wins at small targets, xfstests at large ones *)
  let cm = Runner.run ~seed:5 ~scale:0.05 Runner.Crashmonkey in
  let xf = Runner.run ~seed:5 ~scale:0.05 Runner.Xfstests in
  let freqs r =
    Array.of_list
      (List.map snd (Coverage.input_series r.Runner.coverage Arg_class.Open_flags_arg))
  in
  let f_cm = freqs cm and f_xf = freqs xf in
  match Tcd.crossover ~f1:f_cm ~f2:f_xf ~lo:1.0 ~hi:1e7 with
  | Some t ->
    check_bool "crossover in a plausible range" true (t > 1.0 && t < 1e7);
    check_bool "CrashMonkey better below" true
      (Tcd.tcd_uniform ~frequencies:f_cm ~target:1.0
       < Tcd.tcd_uniform ~frequencies:f_xf ~target:1.0);
    check_bool "xfstests better above" true
      (Tcd.tcd_uniform ~frequencies:f_xf ~target:1e7
       < Tcd.tcd_uniform ~frequencies:f_cm ~target:1e7)
  | None -> Alcotest.fail "expected a TCD crossover"

let test_merged_coverage_is_union () =
  (* merging the two suites' coverage covers at least what each covers *)
  let cm = Runner.run ~seed:5 ~scale:0.02 Runner.Crashmonkey in
  let xf = Runner.run ~seed:5 ~scale:0.02 Runner.Xfstests in
  let merged = Coverage.copy cm.Runner.coverage in
  Coverage.merge_into ~dst:merged xf.Runner.coverage;
  List.iter
    (fun arg ->
      let untested_merged = List.length (Coverage.untested_inputs merged arg) in
      let untested_cm = List.length (Coverage.untested_inputs cm.Runner.coverage arg) in
      let untested_xf = List.length (Coverage.untested_inputs xf.Runner.coverage arg) in
      check_bool
        (Arg_class.name arg ^ " merged untested <= min of parts")
        true
        (untested_merged <= min untested_cm untested_xf))
    Arg_class.all

let suites =
  [ ( "integration",
      [ Alcotest.test_case "offline trace analysis equals live" `Slow test_offline_equals_online;
        Alcotest.test_case "wrong mount filters everything" `Slow
          test_wrong_mount_filters_everything;
        Alcotest.test_case "raw trace keeps aux records" `Slow test_trace_contains_aux_records;
        Alcotest.test_case "Figure 5 crossover end-to-end" `Slow
          test_figure5_crossover_exists_end_to_end;
        Alcotest.test_case "merged coverage is a union" `Slow test_merged_coverage_is_union ] ) ]
