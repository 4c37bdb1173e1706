(** Where a pipeline's events come from.

    One constructor per ingestion mode the analyzer supports; the
    {!Driver} turns each into the engine feed it needs — decoded
    batches for binary traces, raw line batches for text (parsed as
    each batch runs), a push session for live suite runs, and a direct
    input-only observation pass for Syzkaller programs.  A source
    carries no execution settings: counters, strictness, limits, and
    checkpointing all live in the {!Driver.config}, so the same source
    runs under any of them. *)

type t =
  | Events of { label : string; events : Iocov_trace.Event.t list }
      (** An in-memory event list (tests, benches, synthetic traces). *)
  | File of { path : string }
      (** A stored trace file.  Text vs binary is auto-detected from the
          magic (a retired v1/v2 binary trace is refused by version);
          strict vs lenient decode comes from the driver's [ingest]. *)
  | Live of { label : string; feed : (Iocov_trace.Event.t -> unit) -> unit }
      (** A live event producer: [feed emit] runs the workload (a suite
          under its tracer), calling [emit] once per raw traced record.
          The driver batches and dispatches exactly like a replay. *)
  | Syz of { label : string; text : string }
      (** A Syzkaller program log (syzlang).  Programs carry no return
          values, so this source feeds {e input} coverage only; stages
          do not apply (there are no trace records to transform). *)

val events : ?label:string -> Iocov_trace.Event.t list -> t
(** [label] defaults to ["<events>"]. *)

val file : string -> t

val live : ?label:string -> ((Iocov_trace.Event.t -> unit) -> unit) -> t
(** [label] defaults to ["<live>"]. *)

val syz : ?label:string -> string -> t
(** A syzlang program from its text; [label] defaults to ["<syz>"]. *)

val label : t -> string
(** The name reports and spans use for this source. *)

val kind : t -> string
(** ["events" | "file" | "live" | "syz"] — the metrics
    label. *)
