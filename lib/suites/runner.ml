module Coverage = Iocov_core.Coverage
module Metrics = Iocov_obs.Metrics
module Span = Iocov_obs.Span
module Log = Iocov_obs.Log
module Replay = Iocov_par.Replay

type suite = Crashmonkey | Xfstests | Ltp

let suite_name = function
  | Crashmonkey -> "CrashMonkey"
  | Xfstests -> "xfstests"
  | Ltp -> "LTP"

let suite_of_name s =
  match String.lowercase_ascii s with
  | "crashmonkey" | "cm" -> Some Crashmonkey
  | "xfstests" | "xfs" -> Some Xfstests
  | "ltp" -> Some Ltp
  | _ -> None

type result = {
  suite : suite;
  coverage : Coverage.t;
  failures : string list;
  events_total : int;
  events_kept : int;
  workloads : int;
  elapsed_s : float;
}

let suite_counter name help suite =
  Metrics.counter Metrics.default name
    ~labels:[ ("suite", suite_name suite) ]
    ~help

let mount_of = function
  | Crashmonkey -> Crashmonkey.mount
  | Xfstests -> Xfstests.mount
  | Ltp -> Ltp.mount

let emit ?seed ?scale ?faults ?config ?on_test ~on_record = function
  | Crashmonkey ->
    let failures, stats = Crashmonkey.emit ?seed ?scale ?faults ?config ?on_test ~on_record () in
    (failures, stats.Crashmonkey.workloads_run)
  | Xfstests ->
    let failures, stats = Xfstests.emit ?seed ?scale ?faults ?config ?on_test ~on_record () in
    (failures, stats.Xfstests.tests_run)
  | Ltp ->
    let failures, stats = Ltp.emit ?seed ?scale ?faults ?config ?on_test ~on_record () in
    (failures, stats.Ltp.testcases_run)

let run ?(seed = 42) ?(scale = 1.0) ?(faults = []) ?progress ?config suite =
  Log.info "suite run starting"
    ~fields:
      [ ("suite", Log.str (suite_name suite));
        ("seed", Log.int seed);
        ("scale", Log.float scale);
        ("faults", Log.int (List.length faults)) ];
  (* The root span doubles as the run's wall clock: [elapsed_s] is the
     root's duration, so profile tree and result always agree. *)
  let (coverage, failures, events_total, events_kept, workloads), root =
    Span.timed ~name:("runner/" ^ suite_name suite) (fun () ->
        (* One pipeline for every run: the suite is a live source, the
           mount filter is a stage, and the replay engine accumulates and
           counts — the suite only emits.  The coverage is byte-identical
           to a direct observe by the determinism contract (DESIGN.md
           §13), differential-tested in test/test_pipe.ml. *)
        let failures = ref [] in
        let workloads = ref 0 in
        let feed on_record =
          let f, w = emit ~seed ~scale ~faults ?config ~on_record suite in
          failures := f;
          workloads := w
        in
        let config = Iocov_pipe.Driver.config ?progress () in
        match
          Iocov_pipe.Driver.run ~config
            ~stages:[ Iocov_pipe.Stage.mount (mount_of suite) ]
            ~sinks:[ Iocov_pipe.Sink.gauges ]
            (Iocov_pipe.Source.live ~label:(suite_name suite) feed)
        with
        | Error msg -> failwith ("Runner.run: " ^ msg)
        | Ok { product; _ } ->
          ( product.Iocov_pipe.Sink.coverage,
            !failures,
            product.Iocov_pipe.Sink.events,
            product.Iocov_pipe.Sink.kept,
            !workloads ))
  in
  Metrics.Counter.add
    (suite_counter "iocov_runner_workloads_total" "Workloads or tests executed." suite)
    workloads;
  Metrics.Counter.add
    (suite_counter "iocov_runner_oracle_failures_total" "Oracle violations flagged."
       suite)
    (List.length failures);
  Log.info "suite run finished"
    ~fields:
      [ ("suite", Log.str (suite_name suite));
        ("workloads", Log.int workloads);
        ("events_kept", Log.int events_kept);
        ("failures", Log.int (List.length failures)) ];
  {
    suite;
    coverage;
    failures;
    events_total;
    events_kept;
    workloads;
    elapsed_s = root.Span.duration_s;
  }

let run_both ?seed ?scale ?faults () =
  (run ?seed ?scale ?faults Crashmonkey, run ?seed ?scale ?faults Xfstests)

let detects r = r.failures <> []

(* The [default] lattice point maps to [config:None]: each suite keeps
   its own per-test geometry choice (xfstests' small-config archetypes,
   LTP's Small cases), so a lattice-of-one sweep is byte-identical to a
   plain run.  Any other point pins that point's config for the whole
   suite. *)
let config_of_point (point : Iocov_vfs.Config.point) =
  if Iocov_vfs.Config.equal point.Iocov_vfs.Config.pt_config Iocov_vfs.Config.default
  then None
  else Some point.Iocov_vfs.Config.pt_config

let run_lattice ?seed ?scale ?faults ?counters:(_ : Replay.counters option) ?progress
    ~points suite =
  List.map
    (fun (point : Iocov_vfs.Config.point) ->
      let config = config_of_point point in
      (point, run ?seed ?scale ?faults ?progress ?config suite))
    points
