(** Suite orchestration: run a simulated tester and collect its coverage.

    This is the "experiment driver" the benches and examples share: pick
    a suite, run it at a scale, get back the filtered coverage, the
    oracle verdicts, and the trace statistics. *)

type suite = Crashmonkey | Xfstests | Ltp

val suite_name : suite -> string
val suite_of_name : string -> suite option

type result = {
  suite : suite;
  coverage : Iocov_core.Coverage.t;
  failures : string list;   (** oracle violations; empty on a correct fs *)
  events_total : int;       (** records the pipeline received, before filtering *)
  events_kept : int;        (** records within the mount point *)
  workloads : int;          (** tests or workloads executed *)
  elapsed_s : float;
}

val emit :
  ?seed:int -> ?scale:float -> ?faults:Iocov_vfs.Fault.t list ->
  ?config:Iocov_vfs.Config.t -> ?on_test:(string -> unit) ->
  on_record:(Iocov_trace.Event.t -> unit) -> suite -> string list * int
(** Run one suite as a pure event source: every raw traced record goes
    to [on_record] and every test name to [on_test] as the test starts.
    The suite neither filters nor counts records; the consumer does.
    Returns the oracle failures and the number of tests or workloads
    executed.  Omitted settings take the suite's own defaults (its seed
    differs per suite). *)

val run :
  ?seed:int -> ?scale:float -> ?faults:Iocov_vfs.Fault.t list ->
  ?progress:Iocov_pipe.Progress.conf -> ?config:Iocov_vfs.Config.t -> suite -> result
(** Run one suite from scratch.  Deterministic for a fixed seed, scale,
    and fault set.

    Every run executes as one streaming pipeline (DESIGN.md §13): the
    suite's {!emit} is an [Iocov_pipe.Source.live] feed, the mount
    filter a stage, and [Iocov_pipe.Driver] runs the replay engine on the
    calling domain.  [progress] attaches a live progress sink to the
    pipeline ({!Iocov_pipe.Progress}).  The resulting coverage is
    byte-identical to an offline replay of the suite's trace — only
    wall-clock changes.

    [config] pins one file-system configuration for every test in the
    suite (a config-lattice point); omitted, each suite keeps its own
    per-test geometry choice — the pre-lattice behaviour. *)

val config_of_point : Iocov_vfs.Config.point -> Iocov_vfs.Config.t option
(** The [config] argument a lattice point denotes: [None] for the
    [default] point (suites keep their per-test choice, so a
    lattice-of-one run is byte-identical to a plain run), [Some] of the
    point's config otherwise. *)

val run_lattice :
  ?seed:int -> ?scale:float -> ?faults:Iocov_vfs.Fault.t list ->
  ?counters:Iocov_par.Replay.counters -> ?progress:Iocov_pipe.Progress.conf ->
  points:Iocov_vfs.Config.point list -> suite ->
  (Iocov_vfs.Config.point * result) list
(** One {!run} per lattice point, in order — the [(config × cell)]
    sweep.  Each point's run is independent and deterministic.
    [counters] is accepted and ignored, so that older callers keep
    building. *)

val run_both :
  ?seed:int -> ?scale:float -> ?faults:Iocov_vfs.Fault.t list -> unit -> result * result
(** (CrashMonkey, xfstests) with the same settings — the paper's
    evaluation pair.  {!Ltp} is the third, extension suite. *)

val detects : result -> bool
(** True when the run's oracles flagged at least one violation — "the
    suite found the bug". *)
