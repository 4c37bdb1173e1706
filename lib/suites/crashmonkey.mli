(** A CrashMonkey-shaped workload generator (Mohan et al., OSDI '18).

    CrashMonkey is a bounded black-box crash-consistency tester: it runs
    every length-1 sequence of a core file-system operation set against a
    small pre-made file hierarchy ("seq-1", 300 workloads), persists with
    fsync/sync, simulates a crash, and checks that persisted data
    survived.  This simulator reproduces that structure against
    {!Iocov_vfs.Fs} — including the crash and the oracle — and with it the
    statistical trace signature the paper measures: few thousand opens
    dominated by 3-4-flag combinations, a narrow set of write sizes, and
    a small error-code footprint (but [ENOTDIR], which its generic tests
    do hit). *)

val mount : string
(** ["/mnt/snapshot"] — CrashMonkey's mount point. *)

val comm : string

val seq1_workloads : int
(** 300: the paper runs "all of seq-1's 300 workloads". *)

val crash_scenarios : Iocov_crash.Engine.scenario list
(** CrashMonkey's seq-1 shape re-expressed as scenarios for the
    crash-state enumerator ({!Iocov_crash.Engine}): a shared pre-made
    hierarchy plus one persisted operation family per scenario
    ([cm-creat-fsync], [cm-append-sync], [cm-trunc-fsync],
    [cm-rename-fsync], [cm-unlink-sync], [cm-setxattr-fdatasync]).
    These run under {!Iocov_crash.Engine.mount}, not {!mount}. *)

type stats = {
  workloads_run : int;
  crashes_simulated : int;
}

val emit :
  ?seed:int -> ?scale:float -> ?faults:Iocov_vfs.Fault.t list ->
  ?config:Iocov_vfs.Config.t -> ?on_test:(string -> unit) -> ?seq2:int ->
  on_record:(Iocov_trace.Event.t -> unit) -> unit -> string list * stats
(** Run the suite as a pure event source: every raw traced record goes
    to [on_record] and every workload's name to [on_test] as it starts
    (see {!Workload.init}).  Returns the oracle failures
    (crash-consistency violations and unexpected outcomes — empty on a
    correct file system) and run statistics.  [scale] multiplies
    per-workload iteration counts; [faults] are planted in the file
    system under test; [seq2] adds that many sampled length-2 operation
    sequences (the seq-2 workloads of CrashMonkey's bounded search; the
    paper's evaluation runs seq-1 only, so the default is 0). *)

val run :
  ?seed:int -> ?scale:float -> ?faults:Iocov_vfs.Fault.t list ->
  ?config:Iocov_vfs.Config.t ->
  ?sink:(Iocov_trace.Event.t -> unit) ->
  ?dispatch:(Iocov_trace.Event.t -> unit) -> ?seq2:int ->
  coverage:Iocov_core.Coverage.t -> unit -> string list * stats
(** {!emit} through {!Workload.run_inline}: coverage accumulates through
    the mount-point filter into [coverage] unless [dispatch] takes the
    records instead.  Kept while [perfbench/] still calls it. *)
