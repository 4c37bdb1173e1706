(** An LTP-shaped regression suite (Linux Test Project).

    The paper's related work names LTP alongside xfstests as the other
    hand-written regression corpus.  LTP's style differs from xfstests in
    a way that shows up directly in input/output coverage: its per-syscall
    testcases ([open01]..[openNN], [write01].., ...) are {e errno-driven} —
    each case sets up one documented failure condition and asserts the
    exact error code — with comparatively little data-path volume.

    The simulator reproduces that signature: systematic probes for every
    reachable manual-page errno of each modeled syscall, small success
    loops, low absolute frequencies.  Against xfstests it demonstrates
    the paper's point that different testers over- and under-test
    different partitions: LTP's {e output} coverage rivals xfstests' at a
    tiny fraction of the events, while its input-size coverage is far
    narrower. *)

val mount : string
(** ["/mnt/ltp"] *)

val comm : string

type stats = { testcases_run : int }

val emit :
  ?seed:int -> ?scale:float -> ?faults:Iocov_vfs.Fault.t list ->
  ?config:Iocov_vfs.Config.t -> ?on_test:(string -> unit) ->
  on_record:(Iocov_trace.Event.t -> unit) -> unit -> string list * stats
(** Run the suite as a pure event source: every raw traced record goes
    to [on_record], and each testcase's name to [on_test] before its
    first record (see {!Workload.init}).  Returns oracle failures (each
    testcase asserts its expected errno) and statistics. *)

val run :
  ?seed:int -> ?scale:float -> ?faults:Iocov_vfs.Fault.t list ->
  ?config:Iocov_vfs.Config.t ->
  ?sink:(Iocov_trace.Event.t -> unit) ->
  ?dispatch:(Iocov_trace.Event.t -> unit) ->
  coverage:Iocov_core.Coverage.t -> unit -> string list * stats
(** {!emit} through {!Workload.run_inline}: coverage accumulates through
    the mount-point filter into [coverage] unless [dispatch] takes the
    records instead.  Kept while [perfbench/] still calls it. *)
