(** Where a pipeline's results go.

    A single traversal of the source produces one {!product} — the
    coverage, the completeness ledger, and the stream counts —
    and every sink consumes that product: report sections, TCD sweeps,
    snapshot files, observability gauges.  This is what makes
    multi-sink analysis single-pass: coverage + TCD + completeness +
    metrics come out of one read of the trace instead of one read per
    consumer.

    {!Checkpoint} is the one sink that acts {e during} the traversal
    rather than after it; the driver lifts it into the engine's
    checkpointing (file sources) or periodic snapshot writes (live
    sources). *)

type product = {
  label : string;       (** the source's name, used in section headers *)
  coverage : Iocov_core.Coverage.t;
  completeness : Iocov_util.Anomaly.completeness;
  events : int;         (** records read, before filtering *)
  kept : int;           (** records that passed the stage chain *)
  dropped : int;        (** [events - kept] *)
  shards : int;         (** always 1; kept for callers that build products *)
  batches : int;
  notes : string list;  (** source-side annotations (e.g. syzlang skips) *)
}

type t =
  | Render of { name : string; emit : product -> string option }
      (** Consumes the product after the traversal; [Some text] becomes a
          named section of the run's output, [None] is a silent effect
          (gauges, files). *)
  | Checkpoint of { path : string; every : int }
      (** Periodic progress persistence: for file sources a resumable
          {!Iocov_par.Checkpoint} (like [--checkpoint]); for live sources an atomic coverage
          {!Iocov_core.Snapshot} at [path] every [every] events, so a
          crashed run leaves its partial coverage behind. *)

val name : t -> string

val custom : name:string -> (product -> string option) -> t

val summary : t
(** {!Iocov_core.Report.suite_summary} of the coverage. *)

val untested : t
(** {!Iocov_core.Report.untested_summary}. *)

val completeness : t
(** {!Iocov_core.Report.completeness} — the ledger section. *)

val tcd : ?arg:Iocov_core.Arg_class.arg -> targets:float list -> unit -> t
(** A TCD sweep over the argument's input series ([arg] defaults to
    open flags, the paper's Figure 5 subject), one line per uniform
    target. *)

val snapshot : path:string -> t
(** Writes the coverage as a snapshot file and reports where. *)

val gauges : t
(** {!Iocov_core.Coverage.publish_gauges} on the coverage; no
    section. *)

val metrics_file : path:string -> t
(** Dumps the metrics registry (plus span roots) to [path] via
    {!Iocov_obs.Export.write_file}; no section. *)

val checkpoint : path:string -> every:int -> t
