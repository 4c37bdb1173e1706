(* Shared command-line options.

   Every subcommand that runs a pipeline takes the same knobs — seed,
   scale, fault injection, lenient ingestion, checkpointing,
   log/metrics output.  They are defined once here so the flags parse,
   print, and document identically everywhere. *)

open Cmdliner
module Runner = Iocov_suites.Runner
module Replay = Iocov_par.Replay
module Fault = Iocov_vfs.Fault
module Obs = Iocov_obs

(* Bad user input is a diagnostic and exit 1, never a backtrace. *)
let die fmt = Printf.ksprintf (fun msg -> Printf.eprintf "error: %s\n" msg; exit 1) fmt

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let scale =
  Arg.(
    value
    & opt float 1.0
    & info [ "scale" ]
        ~docv:"SCALE"
        ~doc:"Workload scale factor; 1.0 is a quick shape-complete run, larger values \
              approach the paper's absolute frequencies.")

let fault_conv =
  let parse s =
    match Fault.of_string s with
    | Some f -> Ok f
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown fault %S (try: %s)" s
              (String.concat ", " (List.map Fault.to_string Fault.all))))
  in
  Arg.conv (parse, fun ppf f -> Format.pp_print_string ppf (Fault.to_string f))

let faults =
  Arg.(
    value & opt_all fault_conv []
    & info [ "fault" ] ~docv:"FAULT" ~doc:"Inject a fault into the tested file system \
                                           (repeatable); see $(b,iocov faults).")

let suite_conv =
  let parse s =
    match Runner.suite_of_name s with
    | Some suite -> Ok suite
    | None -> Error (`Msg (Printf.sprintf "unknown suite %S (crashmonkey|xfstests|ltp)" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Runner.suite_name s))

(* --- config lattice selection: --configs all|NAME,..|FILE --- *)

module Vconfig = Iocov_vfs.Config

let configs =
  Arg.(
    value
    & opt (some string) None
    & info [ "configs" ] ~docv:"SPEC"
        ~doc:"File-system configurations to sweep — the config-lattice dimension of \
              the coverage matrix.  $(docv) is $(b,all) (every built-in lattice \
              point), a comma-separated list of point names, or a lattice file \
              ($(b,NAME CONFIG) per line; $(b,iocov configs) prints a template).  \
              Default: the $(b,default) point only, byte-identical to a plain \
              single-config run.")

let configs_term =
  let combine spec =
    match spec with
    | None -> [ Vconfig.default_point ]
    | Some spec -> (
      let result =
        if Sys.file_exists spec && not (Sys.is_directory spec) then
          Vconfig.parse_lattice (In_channel.with_open_text spec In_channel.input_all)
        else Vconfig.points_of_spec spec
      in
      match result with
      | Ok [] -> die "--configs %s: no lattice points selected" spec
      | Ok points -> points
      | Error msg -> die "--configs: %s" msg)
  in
  Term.(const combine $ configs)

let config_diff =
  Arg.(
    value & flag
    & info [ "config-diff" ]
        ~doc:"With more than one $(b,--configs) point, print the differential view: \
              cells lit under each config but dark under the first (baseline) point, \
              and the errno output cells reachable only off-baseline.")

(* --- lenient ingestion: --lenient + --max-bad-records -> Replay.ingest --- *)

let lenient =
  Arg.(value & flag
       & info [ "lenient" ]
           ~doc:"Skip corrupt or unparsable records instead of failing — binary traces \
                 resync on the next intact frame — and report every loss in the \
                 completeness section.")

let max_bad =
  Arg.(value & opt string "none"
       & info [ "max-bad-records" ] ~docv:"N|P%"
           ~doc:"Error budget for $(b,--lenient): an absolute record count, a percentage \
                 of the trace (e.g. $(b,1%)), or $(b,none).")

let ingest_term =
  let combine lenient max_bad =
    if not lenient then Replay.Strict
    else
      match Iocov_util.Anomaly.budget_of_string max_bad with
      | Ok budget -> Replay.Lenient budget
      | Error msg -> die "--max-bad-records: %s" msg
  in
  Term.(const combine $ lenient $ max_bad)

(* --- checkpointing: --checkpoint + --checkpoint-every --- *)

let checkpoint =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Periodically write a resumable checkpoint (atomic) while replaying a \
                 binary trace.")

let checkpoint_every =
  Arg.(value & opt int 100_000
       & info [ "checkpoint-every" ] ~docv:"EVENTS"
           ~doc:"Events between checkpoints (default 100000).")

let checkpoint_term =
  let combine path every =
    match path with
    | None -> None
    | Some path ->
      if every <= 0 then die "--checkpoint-every must be positive"
      else Some (path, every)
  in
  Term.(const combine $ checkpoint $ checkpoint_every)

(* --- observability options, shared by every subcommand --- *)

let log_level_conv =
  let parse s =
    match Obs.Log.level_of_string s with
    | Some l -> Ok l
    | None ->
      Error (`Msg (Printf.sprintf "unknown log level %S (debug|info|warn|error)" s))
  in
  Arg.conv (parse, fun ppf l -> Format.pp_print_string ppf (Obs.Log.level_to_string l))

type obs = {
  metrics_out : string option;
  trace_out : string option;  (* flight-recorder timeline (Chrome JSON) *)
}

let obs_term =
  let log_level =
    Arg.(
      value
      & opt (some log_level_conv) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Structured-log verbosity: debug, info, warn (the default), or error.")
  in
  let log_json =
    Arg.(value & flag & info [ "log-json" ] ~doc:"Emit log lines as JSON objects.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"On exit, write the metrics registry to $(docv): Prometheus text, or the \
                combined JSON report when $(docv) ends in .json.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Record a flight-recorder timeline (span, batch, checkpoint, and \
                resync events) and write it to $(docv) as Chrome trace-event JSON on \
                exit — viewable in ui.perfetto.dev or chrome://tracing.")
  in
  let setup level json metrics_out trace_out =
    (match level with Some l -> Obs.Log.set_level l | None -> ());
    if json then Obs.Log.set_format Obs.Log.Json;
    { metrics_out; trace_out }
  in
  Term.(const setup $ log_level $ log_json $ metrics_out $ trace_out)

(* Run a subcommand body under the observability options; the registry
   and timeline dumps happen even when the body fails, so a crashed run
   still leaves its counters and its trace behind. *)
let with_obs obs f =
  (match obs.trace_out with Some _ -> Obs.Trace_event.start () | None -> ());
  Fun.protect f ~finally:(fun () ->
      (match obs.trace_out with
       | Some path ->
         Obs.Trace_event.stop ();
         Obs.Trace_event.write_file path
       | None -> ());
      match obs.metrics_out with
      | Some path ->
        Obs.Export.write_file ~path ~spans:(Obs.Span.roots ()) Obs.Metrics.default
      | None -> ())

(* --- live progress: --progress[=N|off] + --progress-format --- *)

let progress_format_conv =
  let parse = function
    | "text" -> Ok Iocov_pipe.Progress.Text
    | "jsonl" | "json" -> Ok Iocov_pipe.Progress.Jsonl
    | s -> Error (`Msg (Printf.sprintf "unknown progress format %S (text|jsonl)" s))
  in
  let print ppf f =
    Format.pp_print_string ppf
      (match f with Iocov_pipe.Progress.Text -> "text" | Iocov_pipe.Progress.Jsonl -> "jsonl")
  in
  Arg.conv (parse, print)

let progress_term =
  let progress =
    Arg.(
      value
      & opt ~vopt:(Some "on") (some string) None
      & info [ "progress" ] ~docv:"EVERY"
          ~doc:"Emit periodic progress snapshots to stderr: events/s (windowed and \
                cumulative), cells lit, adequacy, anomaly burn, checkpoint age, and an \
                ETA for bounded sources.  $(docv) is the event interval (default \
                10000), or $(b,off).")
  in
  let progress_format =
    Arg.(
      value
      & opt progress_format_conv Iocov_pipe.Progress.Text
      & info [ "progress-format" ] ~docv:"FORMAT"
          ~doc:"Progress snapshot format: $(b,text) (the default) or $(b,jsonl).")
  in
  let combine spec format =
    match spec with
    | None | Some "off" -> None
    | Some "on" -> Some (Iocov_pipe.Progress.default_every, format)
    | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Some (n, format)
      | _ -> die "--progress: expected a positive event interval or 'off', got %S" s)
  in
  Term.(const combine $ progress $ progress_format)

(* Build the driver's progress configuration from the parsed flag. *)
let progress_conf ?budget spec =
  Option.map
    (fun (every, format) ->
      { Iocov_pipe.Progress.every; format; emit = prerr_endline; budget })
    spec

(* --- the run ledger: --ledger DIR / --no-ledger --- *)

let ledger_term =
  let dir =
    Arg.(
      value
      & opt string Iocov_pipe.Ledger.default_dir
      & info [ "ledger" ] ~docv:"DIR"
          ~doc:"Directory of the persistent run ledger; every run appends one manifest \
                record to $(docv)/runs.jsonl (see $(b,iocov runs)).")
  in
  let off =
    Arg.(value & flag & info [ "no-ledger" ] ~doc:"Do not append this run to the ledger.")
  in
  let combine dir off = if off then None else Some dir in
  Term.(const combine $ dir $ off)
