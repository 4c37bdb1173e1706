(** The flight recorder (DESIGN.md §14).

    Captures span completions and pipeline events (batch commit, batch
    abandon, checkpoint write, resync after corruption) into per-domain
    ring buffers, and exports the merged
    timeline as Chrome trace-event JSON — load the file in
    [ui.perfetto.dev] or [chrome://tracing].

    Recording is off by default and costs one atomic read when
    disabled.  When enabled, each domain appends to its own
    fixed-capacity ring (oldest events overwritten, the overwrite
    count kept), so instrumentation never blocks the pipeline.
    Timestamps come from {!Clock}, so a fake clock makes the exported
    timeline fully deterministic. *)

type phase = Complete | Instant

type event = {
  ev_name : string;
  ev_cat : string;       (** Chrome "cat": [span], [pool], [stage], [ingest]… *)
  ev_ph : phase;
  ev_ts : float;         (** seconds since {!start} *)
  ev_dur : float;        (** seconds; [0.0] for instants *)
  ev_tid : int;          (** recording domain's id *)
  ev_args : (string * string) list;
}

val default_capacity : int
(** Per-domain ring capacity, 65536 events. *)

val start : ?capacity:int -> unit -> unit
(** Discard any previous recording and begin a new one; [t0] is
    {!Clock.now} at this call. *)

val stop : unit -> unit
(** Stop recording; captured events remain readable. *)

val clear : unit -> unit
(** Drop all captured events without starting a new recording. *)

val enabled : unit -> bool

val complete :
  ?cat:string -> ?args:(string * string) list ->
  name:string -> ts:float -> dur:float -> unit -> unit
(** Record a completed interval.  [ts] is the {e absolute} clock time
    the interval began (as {!Clock.now} returned it); the recorder
    rebases onto its own epoch.  No-op while disabled. *)

val instant :
  ?cat:string -> ?args:(string * string) list -> string -> unit
(** Record a point event at {!Clock.now}.  No-op while disabled. *)

val events : unit -> event list
(** Merged timeline across all domains, sorted by timestamp (ties
    broken by domain id then name, so export is deterministic under a
    fake clock). *)

val dropped : unit -> int
(** Events lost to ring overwrite across all domains. *)

val to_json : unit -> string
(** Chrome trace-event JSON: [{"traceEvents": [...]}] with
    microsecond timestamps and per-domain [thread_name] metadata. *)

val write_file : string -> unit
(** {!to_json} to a file. *)
