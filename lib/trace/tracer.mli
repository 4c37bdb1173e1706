(** The syscall tracer — this project's LTTng.

    Wraps a {!Iocov_vfs.Fs.t}: every call executed through the tracer runs
    on the file system and emits one {!Event.t} to each registered sink.
    The tracer tracks descriptor-to-pathname bindings and the traced
    process's working directory so every record carries an absolute
    [path_hint] for mount-point filtering — the reconstruction a trace
    post-processor performs on real LTTng output. *)

type t

val create : ?pid:int -> ?comm:string -> Iocov_vfs.Fs.t -> t
(** [comm] defaults to ["tester"], [pid] to 1000. *)

val fs : t -> Iocov_vfs.Fs.t

val on_event : t -> (Event.t -> unit) -> unit
(** Register a sink.  Sinks run in registration order on every event. *)

val exec : t -> Iocov_syscall.Model.call -> Iocov_syscall.Model.outcome
(** Run a tracked syscall and emit its record. *)

val exec_aux : t -> Iocov_vfs.Fs.aux -> (int, Iocov_syscall.Errno.t) result
(** Run an auxiliary operation and emit an untracked record. *)

val cwd : t -> string
(** The traced process's current directory as the tracer reconstructs
    it. *)
