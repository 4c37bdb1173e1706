(** The shared error taxonomy of the fault-tolerant pipeline.

    Real traces are messy — truncated files, bit-flipped records,
    batches whose processing raised.  Every recoverable defect the
    ingestion, replay, and checkpoint layers encounter is classified here
    instead of being raised as a bare string, so the completeness
    section of a report can say exactly what was lost and where
    (DESIGN.md §12). *)

type kind =
  | Bad_magic          (** the stream is not an iocov trace at all *)
  | Corrupt_record     (** framing, CRC, or field-level decode failure *)
  | Truncated          (** the stream ends mid-record *)
  | Lost_reference     (** an intact record references a string whose
                           introduction was lost in a corrupt frame *)
  | Parse_error        (** a text trace line did not parse *)
  | Budget_exceeded    (** more corruption than [--max-bad-records] allows *)
  | Batch_abandoned    (** processing a work batch raised; the batch was dropped *)
  | Checkpoint_corrupt (** a checkpoint file did not load *)

val kind_name : kind -> string

type t = {
  kind : kind;
  offset : int option;  (** byte offset into the trace, binary sources *)
  line : int option;    (** line number, text sources *)
  detail : string;
}

val v : ?offset:int -> ?line:int -> kind -> string -> t
val to_string : t -> string

(** {2 Error budgets}

    How much corruption lenient ingestion tolerates before giving up. *)

type budget =
  | Unlimited
  | Max_records of int      (** absolute cap on skipped records *)
  | Max_fraction of float   (** fraction of total records, in [0,1] *)

val budget_of_string : string -> (budget, string) result
(** ["none"], a non-negative integer (["64"]), or a percentage
    (["0.5%"]). *)

val budget_to_string : budget -> string

val budget_allows : budget -> bad:int -> total:int -> final:bool -> bool
(** Absolute budgets are enforced online; fractional budgets need the
    denominator and are only enforced when [final] (end of stream). *)

(** {2 Run completeness}

    The exact account of what a fault-tolerant run read, skipped, and
    retried — rendered by {!Iocov_core.Report.completeness} and
    threaded through {!Iocov_par.Replay.outcome}. *)

type completeness = {
  events_read : int;        (** records decoded and fed to analysis *)
  records_skipped : int;    (** corrupt or unparsable records dropped *)
  corrupt_regions : int;    (** resync scans past damaged byte ranges *)
  bytes_skipped : int;      (** bytes discarded while resyncing *)
  batches_retried : int;
      (** always 0: the replay engine does not retry; kept with
          [shards_failed] so checkpoint files keep their format *)
  shards_failed : int;      (** always 0: the replay engine does not shard *)
  events_abandoned : int;   (** events lost with abandoned batches *)
  truncated : bool;         (** the trace ended mid-record *)
  resumed_from : string option;  (** checkpoint path, for resumed runs *)
  anomalies : t list;       (** first {!max_kept_anomalies}, stream order *)
}

val max_kept_anomalies : int

val clean : events_read:int -> completeness
(** A fully-successful run's account: everything zero except
    [events_read]. *)

val is_clean : completeness -> bool

val merge : completeness -> completeness -> completeness
(** Pointwise sum (earliest [resumed_from] wins, anomaly list capped) —
    combines the producer-side and engine-side accounts of one run, or a
    resumed run with its checkpointed prefix. *)
