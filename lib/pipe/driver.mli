(** The one pipeline driver (DESIGN.md §13).

    Every consumer — live suite runs ({!Iocov_suites.Runner}), stored
    trace replay ([iocov analyze]), the benches, the examples —
    describes {e what} to run as [source → stages → sinks] and hands
    {e how} to run it to this driver: batch size, strict/lenient
    ingestion with error budgets, limits, checkpoint/resume, and
    progress.  Execution is {!Iocov_par.Replay}'s single-domain engine,
    so the determinism contract carries over verbatim: the coverage is
    byte-identical at any batch size.

    One traversal feeds every sink — coverage, TCD, completeness,
    report sections, gauges, snapshots come out of a single pass over
    the source. *)

type config = {
  batch : int;       (** events per work batch *)
  ingest : Iocov_par.Replay.ingest;
  limit : int option;  (** stop after this many records *)
  resume : (string * Iocov_par.Checkpoint.t) option;
      (** continue a checkpointed file replay *)
  progress : Progress.conf option;
      (** live progress snapshots ([--progress]); a tracker is created
          per run and fed from the engine's watch hook, with a final
          coverage-bearing snapshot once the run completes *)
}

val default : config
(** Batch {!Iocov_par.Replay.default_batch}, strict ingest, no limit,
    no resume, no progress. *)

val config :
  ?jobs:int -> ?batch:int -> ?counters:Iocov_par.Replay.counters ->
  ?ingest:Iocov_par.Replay.ingest -> ?limit:int ->
  ?resume:string * Iocov_par.Checkpoint.t -> ?progress:Progress.conf -> unit ->
  config
(** {!default} with overrides.  [jobs] and [counters] are accepted
    only so that older callers keep building: [jobs] raises
    [Invalid_argument] unless it is 1, and [counters] is ignored (dense
    is the only backend). *)

type run = {
  product : Sink.product;   (** what the single pass produced *)
  sections : (string * string) list;
      (** rendered sink output, in sink order: (sink name, text) *)
}

val run :
  ?config:config -> ?stages:Stage.t list -> ?sinks:Sink.t list ->
  Source.t -> (run, string) result
(** Run one pipeline.  Bad configurations (checkpointing a channel
    source, resuming a text trace, exceeded error budgets, strict-mode
    corruption) are [Error]s, never exceptions.

    Source notes: [Events] applies [limit] by truncation; [Syz] parses
    the program and feeds input-only coverage directly (stages do not
    apply — programs are tiny); [Live] supports {!Sink.checkpoint} as
    periodic atomic coverage snapshots. *)
