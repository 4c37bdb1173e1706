(** Trace records.

    One record per syscall, in the shape a kernel tracer (LTTng in the
    paper) delivers: who called, what was called with which arguments,
    and what came back.  [path_hint] is the primary pathname the call
    operated on, reconstructed by the tracer's fd-tracking — it is what
    the mount-point filter matches against. *)

type payload =
  | Tracked of Iocov_syscall.Model.call
      (** one of the 27 modeled syscalls *)
  | Aux of { name : string; detail : string }
      (** any other operation the workload performed (fsync, unlink,
          rename, ...) — outside the coverage domain but present in a raw
          trace *)

type t = {
  seq : int;              (** per-tracer sequence number *)
  timestamp_ns : int;     (** logical nanoseconds *)
  pid : int;
  comm : string;          (** process name, e.g. ["xfstests"] *)
  payload : payload;
  outcome : Iocov_syscall.Model.outcome;
  path_hint : string option;
}

val call : t -> Iocov_syscall.Model.call option
(** The modeled call, if this is a tracked record. *)

val is_tracked : t -> bool

val base : t -> Iocov_syscall.Model.base option
(** Base syscall of a tracked record. *)

val iter_tracked :
  t list -> (Iocov_syscall.Model.call -> Iocov_syscall.Model.outcome -> unit) -> unit
(** Apply [f call outcome] to every tracked record, skipping [Aux]
    records — the batch-observe loop of the replay pipeline. *)
