(** The live progress sink ([--progress], DESIGN.md §14).

    A tracker turns the replay engine's {!Iocov_par.Replay.watch}
    callbacks into periodic snapshots: windowed and cumulative
    events/s, input/output cells lit out of {!Iocov_core.Plan.total},
    a live adequacy percentage, anomaly and error-budget burn,
    checkpoint age, and an ETA for bounded sources.

    The tracker runs on the engine's domain.  Coverage-dependent
    figures (cells lit, adequacy) come from the lazy [peek] — a
    zero-copy {!Iocov_par.Replay.view} that reads cells in place, so a
    mid-run snapshot costs one pass over the plan, never an accumulator
    copy.  The driver calls {!finish} with the finished coverage.

    Time comes from an injectable clock (default {!Iocov_obs.Clock}),
    so the throughput/ETA arithmetic is unit-testable with a fake
    clock and deterministic in test mode. *)

type format = Text | Jsonl

type conf = {
  every : int;            (** events between snapshots; positive *)
  format : format;
  emit : string -> unit;  (** receives each rendered snapshot line *)
  budget : Iocov_util.Anomaly.budget option;
      (** the run's error budget, for burn percentage *)
}

val default_every : int
(** 10,000 events. *)

type snapshot = {
  p_events : int;            (** records pushed so far *)
  p_elapsed_s : float;
  p_rate_cum : float;        (** events/s since the tracker started *)
  p_rate_win : float;        (** events/s since the previous snapshot *)
  p_eta_s : float option;    (** bounded sources only *)
  p_cells : int * int * int;  (** lit (variant, input, output) cells *)
  p_adequacy_pct : float;
      (** share of input/output cells within one order of magnitude of
          the target frequency (1000), per {!Iocov_core.Adequacy} *)
  p_anomalies : int;         (** corrupt records + abandoned batches *)
  p_budget_burn_pct : float option;
  p_checkpoint_age : int option;
      (** events since the last checkpoint write, when checkpointing *)
  p_final : bool;
}

type t

val tracker : ?clock:(unit -> float) -> ?total:int -> conf -> t
(** [total] is the bounded-source event count, for ETA. *)

val tick :
  t -> events:int -> peek:(unit -> Iocov_par.Replay.view) -> unit
(** Called per pushed batch (cheap when below the threshold); emits a
    snapshot once [every] more events have been pushed.  [peek] is only
    invoked when a snapshot is actually emitted. *)

val finish :
  t -> events:int -> peek:(unit -> Iocov_par.Replay.view) -> unit
(** Force the final snapshot (marked [final]); the driver calls this
    with the finished coverage. *)

val snapshot :
  t -> events:int -> peek:(unit -> Iocov_par.Replay.view) -> final:bool -> snapshot
(** Compute without emitting — the testable core. *)

val render_text : snapshot -> string
val render_jsonl : snapshot -> string

val emitted : t -> int
(** Snapshots emitted so far. *)

val adequacy_pct : Iocov_core.Coverage.t -> float
(** The live adequacy figure on its own. *)
