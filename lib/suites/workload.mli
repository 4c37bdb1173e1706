(** Shared machinery for simulated test suites.

    A {!ctx} bundles a fresh file system, a tracer, the suite's mount
    point, a deterministic PRNG, and a failure log.  Suites drive all
    file-system activity through the helpers here so that every syscall
    is traced (and so both suites share one vocabulary of primitive
    actions).  Helpers never raise on syscall failure — suites check
    outcomes explicitly where their oracles demand it.

    A suite is a pure event source: it hands the raw records to the
    [on_record] callback given to {!init} and its test names to the
    [on_test] callback, and never filters or counts them — the
    consumer's pipeline does (DESIGN.md §13). *)

open Iocov_syscall

type ctx = {
  tracer : Iocov_trace.Tracer.t;
  rng : Iocov_util.Prng.t;
  mount : string;
  on_test : string -> unit;  (** test-boundary callback, see {!begin_test} *)
  mutable name_counter : int;
  mutable failures : string list;  (** oracle violations, newest first *)
  mutable current_test : string;
}

val init :
  ?config:Iocov_vfs.Config.t -> ?comm:string -> ?on_test:(string -> unit) ->
  on_record:(Iocov_trace.Event.t -> unit) -> mount:string -> seed:int -> unit -> ctx
(** Creates the file system, mounts it (creates the mount-point
    directory chain and syncs it), then registers [on_record] on the
    tracer and returns the context.  The mount preparation runs through
    the tracer (it advances the record sequence) but reaches no
    consumer: [on_record] sees every record after it, as a tracer
    attached once the scratch device is mounted would.  [on_test]
    defaults to ignoring boundaries. *)

val fs : ctx -> Iocov_vfs.Fs.t

val begin_test : ctx -> string -> unit
(** Set the current test name (prefixes failure records) and report the
    boundary to the context's [on_test]: every record up to the next
    boundary belongs to this test. *)

val fail : ctx -> string -> unit
(** Record an oracle violation in the current test. *)

val failures : ctx -> string list
(** Oracle violations, oldest first. *)

(** {2 Traced primitives} — thin wrappers over {!Iocov_trace.Tracer.exec}. *)

val call : ctx -> Model.call -> Model.outcome
val aux : ctx -> Iocov_vfs.Fs.aux -> (int, Errno.t) result

val open_fd : ctx -> ?variant:Model.variant -> ?mode:Mode.t -> flags:Open_flags.t -> string -> int option
(** [Some fd] on success. *)

val close_fd : ctx -> int -> unit
val write_fd : ctx -> ?variant:Model.variant -> ?offset:int -> int -> int -> Model.outcome
(** [write_fd ctx fd count]. *)

val read_fd : ctx -> ?variant:Model.variant -> ?offset:int -> int -> int -> Model.outcome

val fresh_name : ctx -> string -> string
(** [fresh_name ctx "f"] is a unique path under the mount point. *)

val fresh_dir : ctx -> string
(** Create (traced) and return a unique directory under the mount. *)

val make_file : ctx -> ?size:int -> string -> string
(** Create a file at the given path (or a fresh one when the name is
    relative) with [size] bytes written, via traced open/write/close.
    Returns the path. *)

val expect_ok : ctx -> string -> Model.outcome -> unit
(** Oracle: record a failure unless the outcome is a success. *)

val expect_ret : ctx -> string -> int -> Model.outcome -> unit
(** Oracle: success with exactly this return value. *)

val expect_err : ctx -> string -> Errno.t -> Model.outcome -> unit
(** Oracle: failure with exactly this error code. *)

val noise : ctx -> unit
(** Emit a few syscalls {e outside} the mount point (config reads, log
    appends) — the traffic the mount-point filter exists to drop. *)

(** {2 Compatibility} *)

val run_inline :
  mount:string -> ?sink:(Iocov_trace.Event.t -> unit) ->
  ?dispatch:(Iocov_trace.Event.t -> unit) -> coverage:Iocov_core.Coverage.t ->
  ((Iocov_trace.Event.t -> unit) -> 'a) -> 'a
(** [run_inline ~mount ?sink ?dispatch ~coverage emit] is the suites'
    pre-[emit] [run], kept while [perfbench/] still calls it: [emit
    on_record] runs the suite with a record callback built from the
    hooks.  [sink] sees every record first; then [dispatch]
    does, when given, {e instead of} the inline path, which filters at
    [mount] (metered like {!Iocov_trace.Filter.sink}) and observes kept
    tracked calls into [coverage].  A lone [dispatch] is registered as
    given. *)
