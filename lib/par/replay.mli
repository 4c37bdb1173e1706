(** Trace analysis — the execution engine of the streaming pipeline.

    This module is the {e engine}, not the front door: consumers build
    pipelines declaratively with [Iocov_pipe] (DESIGN.md §13) — one
    {!Iocov_pipe.Driver} owns checkpointing and error budgets for live
    suite runs, trace replay, and reporting alike — and that driver
    executes through the entry points below.  Call them directly only
    when testing the engine itself.

    The engine runs on the calling domain.  A producer (an event list,
    a trace decoder, or a live tracer) hands it batches of work; each
    batch is parsed if it is text, filtered with the
    {!Iocov_trace.Filter.t} and any extra {!stage}, and accumulated
    into one {!Iocov_core.Coverage.t}, which the outcome returns.  Binary
    traces without an extra stage skip the event list entirely: records
    map to plan cells inside the decoder
    ({!Iocov_trace.Binary_io.drain_batch_dense}).

    {b Determinism contract.}  The coverage is byte-identical to a
    per-event {!Iocov_core.Coverage.observe} of the same trace
    regardless of batch size, trace format, or interruption and resume
    — property-tested in [test/test_par.ml], [test/test_dense.ml], and
    [test/test_pipe.ml].  Global metric counter totals are likewise
    identical: the accumulator is credited once, at the end of the run,
    via {!Iocov_core.Coverage.meter_counts}.

    {b Fault tolerance} (DESIGN.md §12).  Three layers compose:
    {ul
    {- {e ingestion}: [?ingest] selects strict (first defect fails the
       run with its position) or lenient (skip, resync, account — up to
       an error budget) handling of corrupt binary records and
       unparsable text lines;}
    {- {e batch isolation}: a batch whose parse, filter, or stage
       raises commits nothing and is abandoned — fatal in strict mode,
       an accounted loss in lenient mode.  It is not retried: the
       engine is deterministic, so a retry could only fail again;}
    {- {e checkpointing}: [?checkpoint] freezes cursor + coverage
       periodically so [?resume] can continue a crashed run with a
       byte-identical final report.}}
    Every loss is tallied in the outcome's [completeness] ledger. *)

type counters =
  | Dense
      (** Count into {!Iocov_core.Coverage.t}, a flat integer array
          indexed by compiled {!Iocov_core.Plan} cell IDs.  The only
          backend: the type is kept so that callers passing
          [~counters:Dense] keep building. *)

type ingest = Iocov_trace.Binary_io.mode =
  | Strict
  | Lenient of Iocov_util.Anomaly.budget
      (** Re-exported {!Iocov_trace.Binary_io.mode}: one value governs
          both the binary decoder's corruption handling and the
          pipeline's treatment of unparsable text lines and abandoned
          batches. *)

type outcome = {
  coverage : Iocov_core.Coverage.t;
  events : int;   (** trace records analyzed (before filtering) *)
  kept : int;     (** records that passed the filter *)
  dropped : int;  (** [events - kept] *)
  batches : int;  (** work batches processed *)
  completeness : Iocov_util.Anomaly.completeness;
      (** what was read, skipped, and lost; clean on a fully-successful
          strict run *)
}

val default_batch : int
(** Events per work batch when [?batch] is omitted (1024). *)

type stage = Iocov_trace.Event.t list -> Iocov_trace.Event.t list
(** A batch-level transform applied {e after} the mount filter: the
    compiled form of an [Iocov_pipe.Stage] chain.  Must be pure and
    deterministic.  Omitted, or the identity, the engine behaves exactly
    as before the pipe layer existed — which is what keeps the
    byte-identical coverage contract.  A stage forces the event-list
    path on binary traces. *)

type view = {
  v_cells : int -> int;  (** observation count by {!Iocov_core.Plan} cell id *)
  v_events : int;        (** events analyzed so far *)
}
(** A read-only window onto an accumulator: cells are read {e in place}
    (an array index into the counts), so consuming a view never copies
    coverage on the hot path.  Valid only until the
    next event is analyzed — consume it inside the callback. *)

val view_of_coverage : Iocov_core.Coverage.t -> events:int -> view
(** View a finished coverage — how the driver serves the final progress
    snapshot. *)

type watch = pushed:int -> peek:(unit -> view) -> unit
(** The progress hook (the [--progress] sink's feed): called after every
    work batch with the cumulative count of records pushed and a
    {e lazy} [peek] that yields a {!view} of the accumulation so far.
    Must not raise. *)

val analyze_events :
  ?batch:int -> ?ingest:ingest -> ?watch:watch -> ?filter:Iocov_trace.Filter.t ->
  ?stage:stage -> Iocov_trace.Event.t list -> outcome
(** Replay an in-memory event list.  [batch] must be positive;
    [ingest] defaults to [Strict].  [filter] omitted keeps every
    record; [stage] runs after the filter.  Raises [Failure] if a
    strict run abandons a batch. *)

type checkpoint_spec = {
  ckpt_path : string;   (** where to write (atomically, tmp + rename) *)
  ckpt_every : int;     (** events between checkpoints; must be positive *)
}

val analyze_file :
  ?batch:int -> ?ingest:ingest -> ?watch:watch ->
  ?checkpoint:checkpoint_spec -> ?resume:string * Checkpoint.t -> ?limit:int ->
  ?filter:Iocov_trace.Filter.t -> ?stage:stage -> string -> (outcome, string) result
(** Replay a stored trace, auto-detecting binary
    ({!Iocov_trace.Binary_io}) versus text ({!Iocov_trace.Format_io}).
    Runs in O(batch) memory regardless of trace length.  In strict
    mode, parse and decode failures report the first offending record:
    for text, ["line N: ..."].  [limit] stops after that many records
    (for sampling and for deterministic interrupted-run tests).
    [batch] must be positive and [limit] non-negative, or
    [Invalid_argument].

    [checkpoint] periodically freezes the decode cursor and the
    accumulated coverage to a file; it requires a binary trace, and a
    final checkpoint is written when the feed ends.  [resume = (path,
    ck)] continues from a loaded {!Checkpoint} and folds the
    checkpointed prefix into the outcome; the final report is
    byte-identical to an uninterrupted run's.  When both
    are given, the new checkpoints carry the combined progress, so a run
    can crash and resume repeatedly. *)

(** {1 Push-based sessions}

    For live sources (suite tracers) that emit one event at a time.
    Events are buffered into batches of [batch] and analyzed as each
    batch fills; {!finish} flushes and returns the coverage. *)

type session

val session :
  ?pool:Pool.t -> ?batch:int -> ?ingest:ingest -> ?filter:Iocov_trace.Filter.t ->
  ?stage:stage -> unit -> session
(** [pool] is accepted and ignored (see {!Pool}). *)

val sink : session -> Iocov_trace.Event.t -> unit

val progress : session -> Iocov_core.Coverage.t
(** Flush pending events and report the coverage accumulated so far —
    a fresh copy, safe to persist.  The pipe driver's live-checkpointing
    hook. *)

val progress_view : session -> view
(** Flush pending events and {!view} the accumulator in place — the
    cheap variant for progress snapshots, which only read cell
    counts. *)

val complete : session -> (outcome, string) result
(** Flush any partial batch and finish the run.  Must be called exactly once
    per session.  Errors (strict parse failures, exhausted error
    budgets) are values, never exceptions — the pipe driver's shape. *)

val finish : session -> outcome
(** {!complete}, unwrapping [Error] into [Failure]. *)
