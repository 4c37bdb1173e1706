(** An xfstests-shaped regression suite (the paper runs its 706 generic +
    308 Ext4-specific tests).

    xfstests is a large hand-written corpus accreted over decades; its
    trace signature is what the paper's figures show: millions of opens
    dominated by [O_RDONLY], broad (but not complete) flag coverage,
    write sizes from 0 up to 258 MiB, and a wide error-code footprint.
    This simulator reproduces that corpus as ~20 parameterized test
    archetypes — sequential/random/vectored I/O, boundary writes and
    truncates, mode and xattr cycles, symlink loops, permission and
    read-only-mount probes, fd and space exhaustion, environment-error
    injection — each instantiated per test index with its own scratch
    file system, as real xfstests mounts a scratch device per test.

    Every test asserts its expected outcomes, so a run against a correct
    file system reports zero failures, and a run against a fault-injected
    one reports exactly the deviations the suite's input coverage can
    see. *)

val mount : string
(** ["/mnt/test"] — the xfstests TEST_DIR. *)

val comm : string

val generic_tests : int
(** 706 *)

val ext4_tests : int
(** 308 *)

type stats = { tests_run : int }

val emit :
  ?seed:int -> ?scale:float -> ?faults:Iocov_vfs.Fault.t list ->
  ?config:Iocov_vfs.Config.t -> ?on_test:(string -> unit) ->
  on_record:(Iocov_trace.Event.t -> unit) -> unit -> string list * stats
(** Run the whole suite as a pure event source: every raw traced record
    goes to [on_record], and each test's name to [on_test] before its
    first record (see {!Workload.init}).  [scale] multiplies inner-loop
    iteration counts; at 1.0 a run produces about half a million traced
    records.  Returns oracle failures (empty on a correct file system)
    and statistics. *)

val run :
  ?seed:int -> ?scale:float -> ?faults:Iocov_vfs.Fault.t list ->
  ?config:Iocov_vfs.Config.t ->
  ?sink:(Iocov_trace.Event.t -> unit) ->
  ?dispatch:(Iocov_trace.Event.t -> unit) ->
  coverage:Iocov_core.Coverage.t -> unit -> string list * stats
(** {!emit} through {!Workload.run_inline}: coverage accumulates through
    the [/mnt/test] mount-point filter into [coverage] unless [dispatch]
    takes the records instead.  Kept while [perfbench/] still calls
    it. *)
