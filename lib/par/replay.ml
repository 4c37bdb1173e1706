module Coverage = Iocov_core.Coverage
module Plan = Iocov_core.Plan
module Filter = Iocov_trace.Filter
module Event = Iocov_trace.Event
module Binary_io = Iocov_trace.Binary_io
module Format_io = Iocov_trace.Format_io
module Anomaly = Iocov_util.Anomaly
module Span = Iocov_obs.Span
module Metrics = Iocov_obs.Metrics
module Clock = Iocov_obs.Clock
module Trace_event = Iocov_obs.Trace_event

let m_batches =
  Metrics.counter Metrics.default "iocov_par_batches_total"
    ~help:"Work batches processed by the replay engine."

let m_events =
  Metrics.counter Metrics.default "iocov_par_events_total"
    ~help:"Trace records processed by the replay engine."

let m_observed =
  Metrics.counter Metrics.default "iocov_par_observed_events_total"
    ~labels:[ ("counters", "dense") ]
    ~help:"Filtered records fed to a coverage accumulator, by counter backend."

let m_abandoned =
  Metrics.counter Metrics.default "iocov_par_batches_abandoned_total"
    ~help:"Work batches abandoned because processing them raised."

let m_checkpoints =
  Metrics.counter Metrics.default "iocov_par_checkpoints_total"
    ~help:"Checkpoint files written by the replay pipeline."

let m_checkpoint_events =
  Metrics.gauge Metrics.default "iocov_par_checkpoint_events"
    ~help:"Cumulative events covered by the most recent checkpoint."

let default_batch = 1024

type stage = Event.t list -> Event.t list

type outcome = {
  coverage : Coverage.t;
  events : int;
  kept : int;
  dropped : int;
  batches : int;
  completeness : Anomaly.completeness;
}

(* A unit of work: either decoded events (binary traces, live tracers)
   or raw text lines, parsed inside the batch so that a parser
   exception abandons the batch instead of escaping the run. *)
type work =
  | Events of Event.t list
  | Lines of (int * string) list

let work_size = function Events l -> List.length l | Lines l -> List.length l

(* The one counter backend: {!Coverage.Dense}'s flat array, converted
   to a reference accumulator once at the end.  The type stays only so
   that [?counters:Replay.Dense] call sites keep building. *)
type counters = Dense

(* Re-exported equation with {!Binary_io.mode}: the same value both
   selects the trace decoder's corruption handling and the pipeline's
   treatment of unparsable text lines and abandoned batches. *)
type ingest = Binary_io.mode = Strict | Lenient of Anomaly.budget

(* The engine: one dense accumulator, the compiled stage chain, and the
   run's tallies, all owned by the calling domain.  The accumulator is
   unmetered; [finalize] credits the converted coverage in one batch. *)
type state = {
  dense : Coverage.Dense.t;
  keep : stage;
  ingest : ingest;
  mutable s_events : int;
  mutable s_kept : int;
  mutable s_batches : int;
  mutable s_error : (int * string) option;  (* strict: first unparsable line *)
  mutable s_fatal : string option;          (* strict: first batch that raised *)
  mutable s_skipped : int;                  (* lenient: unparsable records dropped *)
  mutable s_abandoned_events : int;
  mutable s_anomaly_count : int;
  mutable s_anomalies : Anomaly.t list;     (* newest first, capped *)
}

(* The batch-level stage chain: mount filter (when given) then any
   extra stages, compiled once per run. *)
let compile_keep ?filter ?stage () =
  match (filter, stage) with
  | None, None -> fun events -> events
  | Some f, None -> Filter.keep_all f
  | None, Some s -> s
  | Some f, Some s -> fun events -> s (Filter.keep_all f events)

let make_state ~ingest ?filter ?stage () =
  {
    dense = Coverage.Dense.create ();
    keep = compile_keep ?filter ?stage ();
    ingest;
    s_events = 0;
    s_kept = 0;
    s_batches = 0;
    s_error = None;
    s_fatal = None;
    s_skipped = 0;
    s_abandoned_events = 0;
    s_anomaly_count = 0;
    s_anomalies = [];
  }

let note st a =
  st.s_anomaly_count <- st.s_anomaly_count + 1;
  if st.s_anomaly_count <= Anomaly.max_kept_anomalies then
    st.s_anomalies <- a :: st.s_anomalies

let observe_batch st kept n_kept =
  Event.iter_tracked kept (Coverage.Dense.observe st.dense);
  Metrics.Counter.add m_observed n_kept

let parse_lines lines =
  let errors = ref [] in
  let events =
    List.filter_map
      (fun (lineno, line) ->
        match Format_io.of_line ~seq:lineno line with
        | Ok e -> Some e
        | Error msg ->
          errors := (lineno, msg) :: !errors;
          None)
      lines
  in
  (events, List.rev !errors)

(* A batch that raises (a stage or parser exception) is abandoned
   whole: the engine is deterministic, so a retry could only fail
   again.  Lenient mode accounts the loss; strict mode fails the run. *)
let abandon st w exn =
  let lost = work_size w in
  let msg = "batch failed: " ^ Printexc.to_string exn in
  st.s_abandoned_events <- st.s_abandoned_events + lost;
  Metrics.Counter.incr m_abandoned;
  Trace_event.instant ~cat:"replay"
    ~args:[ ("events_lost", string_of_int lost) ]
    "batch-abandoned";
  note st (Anomaly.v Anomaly.Batch_abandoned msg);
  match st.ingest with
  | Strict -> if st.s_fatal = None then st.s_fatal <- Some msg
  | Lenient _ -> ()

(* Parse and filter first, touching no state, so a raising batch
   commits nothing; then account and observe. *)
let run_batch st w =
  let tracing = Trace_event.enabled () in
  let t_start = if tracing then Clock.now () else 0.0 in
  match
    let events, errors =
      match w with Events l -> (l, []) | Lines l -> parse_lines l
    in
    (events, errors, st.keep events)
  with
  | exception exn -> abandon st w exn
  | events, errors, kept ->
    List.iter
      (fun (l, m) ->
        match st.ingest with
        | Strict -> if st.s_error = None then st.s_error <- Some (l, m)
        | Lenient _ ->
          st.s_skipped <- st.s_skipped + 1;
          note st (Anomaly.v ~line:l Anomaly.Parse_error m))
      errors;
    let n = List.length events and n_kept = List.length kept in
    observe_batch st kept n_kept;
    st.s_events <- st.s_events + n;
    st.s_kept <- st.s_kept + n_kept;
    st.s_batches <- st.s_batches + 1;
    Metrics.Counter.incr m_batches;
    Metrics.Counter.add m_events n;
    if tracing then
      Trace_event.complete ~cat:"stage" ~name:"batch"
        ~args:
          [ ("batch", string_of_int (st.s_batches - 1));
            ("events", string_of_int n);
            ("kept", string_of_int n_kept) ]
        ~ts:t_start
        ~dur:(Clock.now () -. t_start)
        ()

(* The engine-side half of the completeness ledger; the producer-side
   half (decode skips, resyncs) comes from {!Binary_io.completeness}. *)
let engine_completeness st =
  {
    (Anomaly.clean ~events_read:0) with
    Anomaly.records_skipped = st.s_skipped;
    events_abandoned = st.s_abandoned_events;
    anomalies = List.rev st.s_anomalies;
  }

(* The accumulator as a reference coverage, credited to the global
   counters exactly once: converted and metered in one batch. *)
let finalize ~producer st =
  let strict_failure =
    match st.ingest with
    | Lenient _ -> None
    | Strict -> (
      match st.s_error with
      | Some (lineno, msg) -> Some (Printf.sprintf "line %d: %s" lineno msg)
      | None -> st.s_fatal)
  in
  match strict_failure with
  | Some msg -> Error msg
  | None -> (
    let coverage = Coverage.Dense.to_reference ~metered:true st.dense in
    Coverage.meter_counts coverage;
    let events = st.s_events in
    let completeness =
      {
        (Anomaly.merge { producer with Anomaly.events_read = 0 } (engine_completeness st)) with
        Anomaly.events_read = events;
      }
    in
    let budget_failure =
      match st.ingest with
      | Strict -> None
      | Lenient budget ->
        let bad = completeness.Anomaly.records_skipped in
        if Anomaly.budget_allows budget ~bad ~total:(events + bad) ~final:true then None
        else
          Some
            (Printf.sprintf "error budget exceeded: %d of %d records corrupt (budget %s)"
               bad (events + bad) (Anomaly.budget_to_string budget))
    in
    match budget_failure with
    | Some msg -> Error msg
    | None ->
      Ok
        {
          coverage;
          events;
          kept = st.s_kept;
          dropped = events - st.s_kept;
          batches = st.s_batches;
          completeness;
        })

(* A read-only window onto the accumulator: cells are read in place (an
   array index into the dense counts), so a progress snapshot never
   copies or converts coverage on the hot path. *)
type view = {
  v_cells : int -> int;  (* plan cell id -> observation count *)
  v_events : int;
}

type watch = pushed:int -> peek:(unit -> view) -> unit

let view_of_coverage cov ~events =
  { v_cells = (fun id -> Coverage.cell_count cov Plan.cells.(id)); v_events = events }

let view_state st () =
  { v_cells = Coverage.Dense.cell_count st.dense; v_events = st.s_events }

let coverage_so_far st = Coverage.Dense.to_reference ~metered:false st.dense

(* The push side of a replay: run each work item as it arrives, then
   tick [watch] with the cumulative count of records pushed. *)
let pusher ?watch st =
  let pushed = ref 0 in
  fun w ->
    pushed := !pushed + work_size w;
    run_batch st w;
    match watch with Some f -> f ~pushed:!pushed ~peek:(view_state st) | None -> ()

(* --- entry points --- *)

let analyze_events ?(batch = default_batch) ?(ingest = Strict) ?watch ?filter ?stage
    events =
  if batch <= 0 then invalid_arg "Replay.analyze_events: batch must be positive";
  let st = make_state ~ingest ?filter ?stage () in
  let push = pusher ?watch st in
  let rec take n acc rest =
    if n = 0 then (List.rev acc, rest)
    else match rest with [] -> (List.rev acc, []) | e :: tl -> take (n - 1) (e :: acc) tl
  in
  let rec chunks = function
    | [] -> ()
    | events ->
      let head, tail = take batch [] events in
      push (Events head);
      chunks tail
  in
  Span.with_ ~name:"par/replay" (fun () -> chunks events);
  match finalize ~producer:(Anomaly.clean ~events_read:0) st with
  | Ok outcome -> outcome
  | Error msg ->
    (* event lists carry no text to fail parsing on *)
    failwith ("Replay.analyze_events: " ^ msg)

type checkpoint_spec = { ckpt_path : string; ckpt_every : int }

(* One checkpoint: the resumed prefix (if any) + the decoder's state +
   the accumulation so far. *)
let write_checkpoint ~spec ~trace_path ~base ~stream st =
  let coverage = Coverage.create () in
  (match base with
   | Some (ck : Checkpoint.t) -> Coverage.merge_into ~dst:coverage ck.Checkpoint.coverage
   | None -> ());
  Coverage.merge_into ~dst:coverage (coverage_so_far st);
  let base_events, base_kept, base_batches, base_comp =
    match base with
    | Some ck ->
      ( ck.Checkpoint.events,
        ck.Checkpoint.kept,
        ck.Checkpoint.batches,
        { ck.Checkpoint.completeness with Anomaly.events_read = 0 } )
    | None -> (0, 0, 0, Anomaly.clean ~events_read:0)
  in
  let events = base_events + st.s_events in
  let completeness =
    let producer = { (Binary_io.completeness stream) with Anomaly.events_read = 0 } in
    let merged = Anomaly.merge base_comp (Anomaly.merge producer (engine_completeness st)) in
    { merged with Anomaly.events_read = events }
  in
  Checkpoint.save ~path:spec.ckpt_path
    {
      Checkpoint.trace = trace_path;
      cursor = Binary_io.cursor stream;
      events;
      kept = base_kept + st.s_kept;
      batches = base_batches + st.s_batches;
      completeness;
      coverage;
    };
  Metrics.Counter.incr m_checkpoints;
  Metrics.Gauge.set m_checkpoint_events events;
  Trace_event.instant ~cat:"checkpoint"
    ~args:[ ("events", string_of_int events) ]
    "checkpoint-write"

(* The fused path: records map to dense plan cells inside the decoder
   ({!Binary_io.drain_batch_dense}) — no [Event.t] list is ever built,
   no [Model.call] is ever materialized.  Metering, watch ticks, and
   checkpoints are batch-for-batch identical to the event-list path, so
   snapshots and ledgers cannot tell the two apart. *)
let run_fused ~batch ?watch ~remaining ~filter ~maybe_checkpoint st stream =
  let keep_hint = Option.map (fun f hint -> Filter.matches_hint f hint) filter in
  let tracing = Trace_event.enabled () in
  let rec loop () =
    if !remaining <= 0 then Ok ()
    else begin
      let t_start = if tracing then Clock.now () else 0.0 in
      match
        Binary_io.drain_batch_dense stream ?keep_hint ~dense:st.dense
          ~max:(min batch !remaining) ()
      with
      | Error _ as e -> e
      | Ok dr when dr.Binary_io.dr_produced = 0 -> Ok ()
      | Ok dr ->
        remaining := !remaining - dr.Binary_io.dr_produced;
        st.s_events <- st.s_events + dr.Binary_io.dr_produced;
        st.s_kept <- st.s_kept + dr.Binary_io.dr_kept;
        st.s_batches <- st.s_batches + 1;
        Metrics.Counter.incr m_batches;
        Metrics.Counter.add m_events dr.Binary_io.dr_produced;
        Metrics.Counter.add m_observed dr.Binary_io.dr_kept;
        if keep_hint <> None then
          Filter.meter ~kept:dr.Binary_io.dr_kept ~no_hint:dr.Binary_io.dr_no_hint
            ~no_match:dr.Binary_io.dr_no_match;
        if tracing then
          Trace_event.complete ~cat:"stage" ~name:"batch"
            ~args:
              [ ("batch", string_of_int (st.s_batches - 1));
                ("events", string_of_int dr.Binary_io.dr_produced);
                ("kept", string_of_int dr.Binary_io.dr_kept) ]
            ~ts:t_start
            ~dur:(Clock.now () -. t_start)
            ();
        (match watch with
         | Some w -> w ~pushed:st.s_events ~peek:(view_state st)
         | None -> ());
        maybe_checkpoint ~force:false;
        loop ()
    end
  in
  loop ()

(* The event path, for a binary trace under an extra stage (a stage
   transforms events, so they must exist): decode a batch of events,
   run it, checkpoint. *)
let run_decoded ~batch ?watch ~remaining ~maybe_checkpoint st stream =
  let push = pusher ?watch st in
  let rec loop () =
    if !remaining <= 0 then Ok ()
    else
      match Binary_io.read_batch stream ~max:(min batch !remaining) with
      | Error _ as e -> e
      | Ok b when Array.length b = 0 -> Ok ()
      | Ok b ->
        remaining := !remaining - Array.length b;
        push (Events (Array.to_list b));
        maybe_checkpoint ~force:false;
        loop ()
  in
  loop ()

let run_text ~batch ?watch ~remaining st ic =
  let push = pusher ?watch st in
  let stream = Format_io.open_stream ic in
  let rec loop () =
    if !remaining > 0 then begin
      let b = Format_io.read_raw_batch stream ~max:(min batch !remaining) in
      if Array.length b > 0 then begin
        remaining := !remaining - Array.length b;
        push (Lines (Array.to_list b));
        loop ()
      end
    end
  in
  loop ()

let analyze_ic ~batch ~ingest ?watch ~checkpoint ~resume ~limit ?filter ?stage ~trace_path
    ic =
  if batch <= 0 then invalid_arg "Replay.analyze_channel: batch must be positive";
  (match limit with
   | Some n when n < 0 -> invalid_arg "Replay.analyze_channel: limit must be non-negative"
   | _ -> ());
  let st = make_state ~ingest ?filter ?stage () in
  let remaining = ref (match limit with Some n -> n | None -> max_int) in
  if Binary_io.is_binary_trace ic then begin
    let stream =
      match resume with
      | Some (_, (ck : Checkpoint.t)) -> Binary_io.resume_stream ~mode:ingest ic ck.cursor
      | None -> Binary_io.open_stream ~mode:ingest ic
    in
    match stream with
    | Error _ as e -> e
    | Ok stream -> (
      let next_due = ref (match checkpoint with Some c -> c.ckpt_every | None -> max_int) in
      let maybe_checkpoint ~force =
        match checkpoint with
        | Some spec when force || st.s_events >= !next_due ->
          write_checkpoint ~spec ~trace_path ~base:(Option.map snd resume) ~stream st;
          next_due := st.s_events + spec.ckpt_every
        | _ -> ()
      in
      let fed =
        Span.with_ ~name:"par/replay" (fun () ->
            let r =
              match stage with
              | None ->
                run_fused ~batch ?watch ~remaining ~filter ~maybe_checkpoint st stream
              | Some _ -> run_decoded ~batch ?watch ~remaining ~maybe_checkpoint st stream
            in
            (match r with
             | Ok () -> maybe_checkpoint ~force:(checkpoint <> None)
             | Error _ -> ());
            r)
      in
      match fed with
      | Error _ as e -> e
      | Ok () -> finalize ~producer:(Binary_io.completeness stream) st)
  end
  else begin
    Span.with_ ~name:"par/replay" (fun () -> run_text ~batch ?watch ~remaining st ic);
    finalize ~producer:(Anomaly.clean ~events_read:0) st
  end

(* Fold a resumed prefix into a suffix outcome.  Coverage merging is
   commutative and associative, so prefix + suffix is byte-identical to
   the uninterrupted run. *)
let merge_resumed ~from (ck : Checkpoint.t) (o : outcome) =
  let coverage = Coverage.create () in
  Coverage.merge_into ~dst:coverage ck.Checkpoint.coverage;
  Coverage.merge_into ~dst:coverage o.coverage;
  let events = ck.Checkpoint.events + o.events in
  let kept = ck.Checkpoint.kept + o.kept in
  let completeness =
    let prefix = { ck.Checkpoint.completeness with Anomaly.events_read = 0 } in
    let suffix = { o.completeness with Anomaly.events_read = 0 } in
    { (Anomaly.merge prefix suffix) with Anomaly.events_read = events; resumed_from = Some from }
  in
  {
    coverage;
    events;
    kept;
    dropped = events - kept;
    batches = ck.Checkpoint.batches + o.batches;
    completeness;
  }

let analyze_channel ?(batch = default_batch) ?(ingest = Strict) ?watch ?limit ?filter
    ?stage ic =
  analyze_ic ~batch ~ingest ?watch ~checkpoint:None ~resume:None ~limit ?filter ?stage
    ~trace_path:"<channel>" ic

let analyze_file ?(batch = default_batch) ?(ingest = Strict) ?watch ?checkpoint ?resume
    ?limit ?filter ?stage path =
  match checkpoint with
  | Some spec when spec.ckpt_every <= 0 -> Error "checkpoint interval must be positive"
  | _ -> (
    (* sweep any *.tmp dropping a killed predecessor left next to the
       checkpoint before this run starts writing its own *)
    (match checkpoint with
     | Some spec -> ignore (Checkpoint.clean_stale ~path:spec.ckpt_path)
     | None -> ());
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match resume with
          | Some _ when not (Binary_io.is_binary_trace ic) ->
            Error "resume requires a binary trace"
          | _ -> (
            match
              analyze_ic ~batch ~ingest ?watch ~checkpoint ~resume ~limit ?filter ?stage
                ~trace_path:path ic
            with
            | Error _ as e -> e
            | Ok o -> (
              match resume with
              | None -> Ok o
              | Some (from, ck) -> Ok (merge_resumed ~from ck o)))))

(* --- the push-based session, for live tracers --- *)

type session = {
  st : state;
  batch_size : int;
  mutable buf : Event.t list;  (* newest first *)
  mutable buf_n : int;
}

let session ?pool:_ ?(batch = default_batch) ?(ingest = Strict) ?filter ?stage () =
  if batch <= 0 then invalid_arg "Replay.session: batch must be positive";
  { st = make_state ~ingest ?filter ?stage (); batch_size = batch; buf = []; buf_n = 0 }

let flush s =
  if s.buf_n > 0 then begin
    run_batch s.st (Events (List.rev s.buf));
    s.buf <- [];
    s.buf_n <- 0
  end

let sink s e =
  s.buf <- e :: s.buf;
  s.buf_n <- s.buf_n + 1;
  if s.buf_n >= s.batch_size then flush s

let progress s =
  flush s;
  coverage_so_far s.st

let progress_view s =
  flush s;
  view_state s.st ()

let complete s =
  flush s;
  finalize ~producer:(Anomaly.clean ~events_read:0) s.st

let finish s =
  match complete s with
  | Ok outcome -> outcome
  | Error msg -> failwith ("Replay.finish: " ^ msg)
