(** What happens to events between the source and the counters.

    The paper's pipeline is tracer → filter → variant handler →
    partitioner → counters (Section 3).  The variant handler and the
    partitioner are compiled into the coverage accumulators
    ({!Iocov_core.Coverage}, {!Iocov_core.Plan}) — separating them
    would forfeit the byte-identical-snapshot contract — so a stage
    chain expresses the {e trace-record} half: the mount filter, any
    extra per-record rewrites, and metering taps.

    Stages are compiled once per run ({!compile}) into the engine's
    batch transform; every stage must be pure and deterministic.  A
    stage that raises abandons its batch: the run fails in strict mode
    and accounts the loss in lenient mode. *)

type t =
  | Keep of Iocov_trace.Filter.t
      (** The mount-point / regex filter.  As the head of the chain it
          compiles to the engine's metered
          {!Iocov_trace.Filter.keep_all} fast path — bit-for-bit the
          pre-pipe behavior. *)
  | Map of { name : string; f : Iocov_trace.Event.t -> Iocov_trace.Event.t option }
      (** A named per-record rewrite; [None] drops the record. *)
  | Meter of { name : string }
      (** A counting tap: adds the batch size to
          [iocov_pipe_stage_events_total{stage=name}] and passes the
          batch through unchanged.  Like all engine metrics, totals are
          observability, not part of the determinism contract (a batch
          abandoned by a later stage has already been metered). *)

val filter : Iocov_trace.Filter.t -> t
val mount : string -> t
(** [mount point] is [filter (Filter.mount_point point)]. *)

val map : name:string -> (Iocov_trace.Event.t -> Iocov_trace.Event.t option) -> t
val meter : string -> t

val name : t -> string

val compile :
  t list ->
  Iocov_trace.Filter.t option
  * (Iocov_trace.Event.t list -> Iocov_trace.Event.t list) option
(** Split a chain into the engine's two slots: a leading {!Keep}
    becomes the engine filter (its metered fast path), and the rest
    fold left-to-right into one batch transform.  [(None, None)] for
    the empty chain — keep everything. *)
