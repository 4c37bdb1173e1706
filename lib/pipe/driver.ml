module Replay = Iocov_par.Replay
module Checkpoint = Iocov_par.Checkpoint
module Coverage = Iocov_core.Coverage
module Snapshot = Iocov_core.Snapshot
module Syzlang = Iocov_trace.Syzlang
module Anomaly = Iocov_util.Anomaly
module Metrics = Iocov_obs.Metrics
module Span = Iocov_obs.Span

let runs_total kind =
  Metrics.counter Metrics.default "iocov_pipe_runs_total"
    ~labels:[ ("source", kind) ]
    ~help:"Pipeline runs started, by source kind."

type config = {
  batch : int;
  ingest : Replay.ingest;
  limit : int option;
  resume : (string * Checkpoint.t) option;
  progress : Progress.conf option;
}

let default =
  {
    batch = Replay.default_batch;
    ingest = Replay.Strict;
    limit = None;
    resume = None;
    progress = None;
  }

let config ?(jobs = 1) ?(batch = default.batch) ?counters:(_ : Replay.counters option)
    ?(ingest = default.ingest) ?limit ?resume ?progress () =
  if jobs <> 1 then invalid_arg "Driver.config: jobs must be 1";
  { batch; ingest; limit; resume; progress }

type run = { product : Sink.product; sections : (string * string) list }

let product_of ~label ?(notes = []) (o : Replay.outcome) =
  {
    Sink.label;
    coverage = o.coverage;
    completeness = o.completeness;
    events = o.events;
    kept = o.kept;
    dropped = o.dropped;
    shards = 1;
    batches = o.batches;
    notes;
  }

(* At most one Checkpoint sink; split it from the Render sinks so the
   engine can act during the traversal while renders run after it. *)
let split_sinks sinks =
  let ckpts, renders =
    List.partition (function Sink.Checkpoint _ -> true | Sink.Render _ -> false) sinks
  in
  match ckpts with
  | [] -> Ok (None, renders)
  | [ Sink.Checkpoint { path; every } ] ->
    if every <= 0 then Error "checkpoint interval must be positive"
    else Ok (Some (path, every), renders)
  | _ -> Error "a pipeline takes at most one checkpoint sink"

let truncate limit events =
  match limit with
  | None -> events
  | Some n ->
    let rec take n acc = function
      | e :: tl when n > 0 -> take (n - 1) (e :: acc) tl
      | _ -> List.rev acc
    in
    take n [] events

(* A crash mid-write must leave the previous snapshot intact — and a
   failed write must not leave a [*.tmp] dropping next to it (same
   hygiene as [Checkpoint.save]). *)
let atomic_snapshot path cov =
  let tmp = path ^ ".tmp" in
  try
    Snapshot.save_file tmp cov;
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* Syzlang programs carry no return values and are tiny: feed input-only
   coverage directly, matching the engine's metering discipline (dense
   accumulates unmetered, credited once after conversion). *)
let run_syz ~label text =
  match Syzlang.parse_program text with
  | Error msg -> Error msg
  | Ok program ->
    let coverage =
      let d = Coverage.Dense.create () in
      List.iter (Coverage.Dense.observe_input_only d) program.Syzlang.calls;
      let cov = Coverage.Dense.to_reference ~metered:false d in
      Coverage.meter_counts cov;
      cov
    in
    let calls = List.length program.Syzlang.calls in
    let notes =
      List.map
        (fun (line, reason) -> Printf.sprintf "skipped line %d: %s" line reason)
        program.Syzlang.skipped
    in
    Ok
      {
        Sink.label;
        coverage;
        completeness = Anomaly.clean ~events_read:calls;
        events = calls;
        kept = calls;
        dropped = 0;
        shards = 1;
        batches = 0;
        notes;
      }

(* How often (in pushed events) the live feed consults its watch hook.
   A power of two, so the hot-path check is one [land].  Snapshot
   thresholds are therefore honoured at this granularity — invisible at
   the default [Progress.default_every] of 10,000. *)
let watch_stride = 64

let run_live ~cfg ~filter ~stage ~ckpt ~watch ~label feed =
  let s =
    Replay.session ~batch:cfg.batch ~ingest:cfg.ingest ?filter ?stage ()
  in
  let emit =
    match ckpt with
    | None -> Replay.sink s
    | Some (path, every) ->
      let seen = ref 0 in
      fun ev ->
        Replay.sink s ev;
        incr seen;
        if !seen mod every = 0 then atomic_snapshot path (Replay.progress s)
  in
  let emit =
    match watch with
    | None -> emit
    | Some w ->
      let pushed = ref 0 in
      (* [peek] flushes the session's partial batch, which is safe
         (and only happens) when a snapshot actually fires; one shared
         closure keeps the per-event path allocation-free.  The watch
         itself is only consulted every [watch_stride] events — its
         threshold check is cheap but not free, and at millions of
         events per second even two closure calls per event register
         on the replay bench. *)
      let peek () = Replay.progress_view s in
      fun ev ->
        emit ev;
        incr pushed;
        if !pushed land (watch_stride - 1) = 0 then w ~pushed:!pushed ~peek
  in
  let fed = try Ok (feed emit) with exn -> Error (Printexc.to_string exn) in
  match (Replay.complete s, fed) with
  | Error msg, _ | _, Error msg -> Error msg
  | Ok outcome, Ok () ->
    Option.iter (fun (path, _) -> atomic_snapshot path outcome.Replay.coverage) ckpt;
    Ok (product_of ~label outcome)

(* Bounded-source event count, for the progress tracker's ETA. *)
let source_total cfg source =
  match source with
  | Source.Events { events; _ } ->
    let n = List.length events in
    Some (match cfg.limit with Some l -> min l n | None -> n)
  | Source.Syz _ -> None
  | Source.File _ | Source.Channel _ | Source.Live _ -> cfg.limit

let execute ~cfg ~stages ~ckpt ~watch source =
  let filter, stage = Stage.compile stages in
  let reject_resume k =
    match cfg.resume with
    | Some _ -> Error (Printf.sprintf "--resume applies to file sources, not %s" k)
    | None -> Ok ()
  in
  let reject_ckpt k =
    match ckpt with
    | Some _ ->
      Error (Printf.sprintf "checkpoint sinks apply to file and live sources, not %s" k)
    | None -> Ok ()
  in
  let ( let* ) = Result.bind in
  match source with
  | Source.Syz { label; text } ->
    let* () = reject_resume "syzlang programs" in
    let* () = reject_ckpt "syzlang programs" in
    if stages <> [] then Error "stages do not apply to syzlang sources (input-only)"
    else run_syz ~label text
  | Source.Events { label; events } ->
    let* () = reject_resume "event lists" in
    let* () = reject_ckpt "event lists" in
    let events = truncate cfg.limit events in
    (try
       Ok
         (product_of ~label
            (Replay.analyze_events ~batch:cfg.batch ~ingest:cfg.ingest ?watch ?filter
               ?stage events))
     with Failure msg -> Error msg)
  | Source.Channel { label; ic } ->
    let* () = reject_resume "channels" in
    let* () = reject_ckpt "channels" in
    Result.map (product_of ~label)
      (Replay.analyze_channel ~batch:cfg.batch ~ingest:cfg.ingest ?watch ?limit:cfg.limit
         ?filter ?stage ic)
  | Source.File { path } ->
    let checkpoint =
      Option.map
        (fun (ckpt_path, ckpt_every) -> { Replay.ckpt_path; ckpt_every })
        ckpt
    in
    Result.map (product_of ~label:path)
      (Replay.analyze_file ~batch:cfg.batch ~ingest:cfg.ingest ?watch ?checkpoint
         ?resume:cfg.resume ?limit:cfg.limit ?filter ?stage path)
  | Source.Live { label; feed } ->
    let* () = reject_resume "live sources" in
    run_live ~cfg ~filter ~stage ~ckpt ~watch ~label feed

let run ?(config = default) ?(stages = []) ?(sinks = []) source =
  let kind = Source.kind source in
  Metrics.Counter.incr (runs_total kind);
  Span.with_ ~name:("pipe/" ^ kind) @@ fun () ->
  match split_sinks sinks with
  | Error _ as e -> e
  | Ok (ckpt, renders) ->
    let tracker =
      Option.map
        (fun conf -> Progress.tracker ?total:(source_total config source) conf)
        config.progress
    in
    let watch =
      Option.map
        (fun tr -> fun ~pushed ~peek -> Progress.tick tr ~events:pushed ~peek)
        tracker
    in
    (match execute ~cfg:config ~stages ~ckpt ~watch source with
     | Error _ as e -> e
     | Ok product ->
       (* the closing snapshot reads the finished coverage *)
       Option.iter
         (fun tr ->
           Progress.finish tr ~events:product.Sink.events
             ~peek:(fun () ->
               Replay.view_of_coverage product.Sink.coverage ~events:product.Sink.events))
         tracker;
       let sections =
         List.filter_map
           (function
             | Sink.Render { name; emit } ->
               Option.map (fun text -> (name, text)) (emit product)
             | Sink.Checkpoint _ -> None)
           renders
       in
       Ok { product; sections })
