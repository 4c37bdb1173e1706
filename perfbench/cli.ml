(* The iocov commands the workloads run, made through the same public
   calls bin/iocov.ml makes with its default flags.  Nothing is printed:
   the text a command would print is rendered and only its size kept. *)

module Runner = Iocov_suites.Runner
module Coverage = Iocov_core.Coverage
module Report = Iocov_core.Report
module Ledger = Iocov_pipe.Ledger
module Pipe = Iocov_pipe
module Sink = Iocov_pipe.Sink
module Replay = Iocov_par.Replay
module Vconfig = Iocov_vfs.Config
module Filter = Iocov_trace.Filter
module Binary_io = Iocov_trace.Binary_io
module Anomaly = Iocov_util.Anomaly
module Json = Iocov_util.Json
module Span = Iocov_obs.Span
module Clock = Iocov_obs.Clock

let scale = 1.0

let suite_mount = function
  | Runner.Xfstests -> Iocov_suites.Xfstests.mount
  | Runner.Crashmonkey -> Iocov_suites.Crashmonkey.mount
  | Runner.Ltp -> Iocov_suites.Ltp.mount

(* One suite run with the given hooks: (oracle failures, tests run). *)
let exec_suite ~seed ~scale ?config ?sink ?dispatch ~coverage suite =
  match suite with
  | Runner.Xfstests ->
    let f, st =
      Iocov_suites.Xfstests.run ~seed ~scale ?config ?sink ?dispatch ~coverage ()
    in
    (f, st.Iocov_suites.Xfstests.tests_run)
  | Runner.Crashmonkey ->
    let f, st =
      Iocov_suites.Crashmonkey.run ~seed ~scale ?config ?sink ?dispatch ~coverage ()
    in
    (f, st.Iocov_suites.Crashmonkey.workloads_run)
  | Runner.Ltp ->
    let f, st = Iocov_suites.Ltp.run ~seed ~scale ?config ?sink ?dispatch ~coverage () in
    (f, st.Iocov_suites.Ltp.testcases_run)

(* --- the run ledger, as the CLI's [ledger_append] writes it --- *)

let ledger_config (point : Vconfig.point) =
  (point.Vconfig.pt_name, Vconfig.digest point.Vconfig.pt_config)

let stages () =
  List.map (fun n -> (n.Span.name, n.Span.duration_s)) (Span.roots ())

let append ~ledger r =
  match Ledger.append ~dir:ledger r with
  | Ok r -> r
  | Error msg -> failwith ("ledger append: " ^ msg)

(* Write [count] numbered copies of [template] straight to a fresh
   ledger: one pass, where [count] appends would reload the file each
   time.  The ledger must read back whole. *)
let seed_ledger ~ledger ~count template =
  Measure.rm_rf ledger;
  Measure.mkdir_p ledger;
  Out_channel.with_open_text (Ledger.path ~dir:ledger) (fun oc ->
      for i = 1 to count do
        output_string oc
          (Json.to_string (Ledger.to_json { template with Ledger.r_id = Printf.sprintf "r%d" i }));
        output_char oc '\n'
      done);
  let loaded = Ledger.load ~dir:ledger in
  if List.length loaded.Ledger.records <> count || loaded.Ledger.bad_lines <> 0 then
    failwith
      (Printf.sprintf "seeded ledger reads back %d records and %d bad lines, not %d and 0"
         (List.length loaded.Ledger.records) loaded.Ledger.bad_lines count)

(* --- iocov suite SUITE [--configs SPEC] --- *)

(* What the CLI prints for the rows of one command. *)
let render_rows rows =
  let buf = Buffer.create 8192 in
  let add = Buffer.add_string buf in
  (match rows with
   | [ (_, (r : Runner.result)) ] ->
     let name = Runner.suite_name r.Runner.suite in
     add
       (Printf.sprintf "%s: %d workloads, %s traced records (%s within the mount), %.2fs\n"
          name r.Runner.workloads
          (Iocov_util.Ascii.si_count r.Runner.events_total)
          (Iocov_util.Ascii.si_count r.Runner.events_kept)
          r.Runner.elapsed_s);
     (match r.Runner.failures with
      | [] -> add "oracle: no violations\n"
      | failures ->
        add (Printf.sprintf "oracle: %d violations:\n" (List.length failures));
        List.iteri (fun i f -> if i < 25 then add (Printf.sprintf "  %s\n" f)) failures);
     add (Report.suite_summary ~name r.Runner.coverage);
     add "\n";
     add (Report.untested_summary ~name r.Runner.coverage)
   | rows ->
     List.iter
       (fun ((point : Vconfig.point), (r : Runner.result)) ->
         add
           (Printf.sprintf "config %-22s %d workloads, %s records kept, %d oracle \
                            violations, %.2fs\n"
              point.Vconfig.pt_name r.Runner.workloads
              (Iocov_util.Ascii.si_count r.Runner.events_kept)
              (List.length r.Runner.failures) r.Runner.elapsed_s))
       rows;
     add
       (Report.config_matrix ~target:1000.0 ~theta:10.0
          (List.map
             (fun ((point : Vconfig.point), (r : Runner.result)) ->
               (point.Vconfig.pt_name, r.Runner.coverage))
             rows)));
  Buffer.length buf

let suite_flags = [ ("scale", string_of_float scale) ]

(* The record [Ledger.make] builds, with the fingerprint passed in, so
   that the traced runs can take [Ledger.digest] and [Ledger.bitmap]
   under spans of their own. *)
let record ?seed ?config ~subcommand ~label ~flags ~events ~kept ~lost ~wall_s ~digest
    ~bitmap cov =
  {
    Ledger.r_id = "";
    r_time = Some (Clock.now ());
    r_subcommand = subcommand;
    r_label = label;
    r_tenant = None;
    r_flags = flags;
    r_seed = seed;
    r_jobs = 1;
    r_counters = "dense";
    r_events = events;
    r_kept = kept;
    r_lost = lost;
    r_wall_s = wall_s;
    r_stages = stages ();
    r_digest = digest;
    r_cells = Coverage.lit_cells cov;
    r_bitmap = bitmap;
    r_config = config;
  }

type suite_run = {
  rows : (Vconfig.point * Runner.result) list;
  records : Ledger.record list;  (* as appended, one per row *)
}

let suite ~ledger ~seed ~points suite =
  let rows =
    Runner.run_lattice ~seed ~scale ~faults:[] ~counters:Replay.Dense ~points suite
  in
  ignore (render_rows rows : int);
  let records =
    List.map
      (fun (point, (r : Runner.result)) ->
        append ~ledger
          (Ledger.make ~time:(Clock.now ()) ~seed ~config:(ledger_config point)
             ~subcommand:"suite" ~label:(Runner.suite_name suite) ~flags:suite_flags
             ~jobs:1 ~counters:"dense" ~events:r.Runner.events_total
             ~kept:r.Runner.events_kept ~lost:0 ~wall_s:r.Runner.elapsed_s
             ~stages:(stages ()) r.Runner.coverage))
      rows
  in
  { rows; records }

(* --- iocov analyze TRACE --mount MOUNT --- *)

let header =
  Sink.custom ~name:"header" (fun p ->
      Some
        (Printf.sprintf "%s: %d records kept, %d filtered out%s" p.Sink.label p.Sink.kept
           p.Sink.dropped
           (if p.Sink.shards > 1 then Printf.sprintf " (%d shards)" p.Sink.shards else "")))

let analyze_sinks = [ header; Sink.completeness; Sink.summary; Sink.untested ]

(* The sections [analyze_sinks] render for a product, as the driver
   renders them. *)
let render_sections product =
  List.fold_left
    (fun n sink ->
      match sink with
      | Sink.Render { emit; _ } -> (
        match emit product with Some text -> n + String.length text + 1 | None -> n)
      | Sink.Checkpoint _ -> n)
    0 analyze_sinks

let lost (c : Anomaly.completeness) = c.Anomaly.records_skipped + c.Anomaly.events_abandoned

let analyze_flags = [ ("ingest", "strict") ]

type analysis = { product : Sink.product; record : Ledger.record }

let analyze ~ledger ~mount path =
  let config = Pipe.Driver.config ~jobs:1 ~counters:Replay.Dense ~ingest:Replay.Strict () in
  let t0 = Clock.now () in
  match
    Pipe.Driver.run ~config
      ~stages:[ Pipe.Stage.filter (Filter.mount_point mount) ]
      ~sinks:analyze_sinks (Pipe.Source.file path)
  with
  | Error _ as e -> e
  | Ok { Pipe.Driver.product; _ } ->
    let record =
      append ~ledger
        (Ledger.make ~time:(Clock.now ()) ~subcommand:"analyze" ~label:product.Sink.label
           ~flags:analyze_flags ~jobs:1 ~counters:"dense" ~events:product.Sink.events
           ~kept:product.Sink.kept ~lost:(lost product.Sink.completeness)
           ~wall_s:(Clock.now () -. t0) ~stages:(stages ()) product.Sink.coverage)
    in
    Ok { product; record }

(* --- iocov trace SUITE --binary -o PATH --- *)

type trace = {
  path : string;
  records : int;  (* counted here, as the tracer sink receives them *)
  bytes : int;
  inline : Coverage.t;  (* the suite's own filter-and-observe coverage *)
}

let write_trace ~seed ~scale ?config suite path =
  let oc = open_out_bin path in
  let w = Binary_io.writer oc in
  let records = ref 0 in
  let sink ev =
    incr records;
    Binary_io.write_event w ev
  in
  let coverage = Coverage.create () in
  ignore (exec_suite ~seed ~scale ?config ~sink ~coverage suite : string list * int);
  Binary_io.flush w;
  close_out oc;
  { path; records = !records; bytes = Measure.file_size path; inline = coverage }

(* An offline replay of a stored trace under a mount filter
   ([iocov analyze --no-ledger]): its digest, or the decode error. *)
let replay_digest ~mount path =
  match
    Pipe.Driver.run ~stages:[ Pipe.Stage.mount mount ] (Pipe.Source.file path)
  with
  | Ok { Pipe.Driver.product; _ } -> Ok (Ledger.digest product.Sink.coverage)
  | Error _ as e -> e
