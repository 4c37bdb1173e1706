(** The metrics registry — named counters, gauges, and log2-bucketed
    histograms for the IOCov pipeline itself.

    IOCov measures test suites; this registry measures IOCov.  Metric
    names follow the scheme [iocov_<stage>_<what>_<unit>]
    (e.g. [iocov_tracer_events_total], [iocov_span_duration_ns]); see
    DESIGN.md §9.  Histograms reuse {!Iocov_util.Log2} bucketing — a
    dedicated [=0] bucket plus one bucket per power of two — so the
    tool's self-measurements land in the same partition scheme the paper
    applies to syscall arguments.

    Registration returns a {e handle}; hot paths resolve their handle
    once and then increment it directly, keeping the per-event cost
    negligible next to coverage accumulation.

    Domain-safety: counters and gauges are atomics and may be driven
    from any domain or thread (serve's connection threads meter through
    the same handles as the offline path); histograms and registration
    are mutex-protected.  Counter totals are sums of commutative
    increments, so they stay deterministic however the work is
    scheduled.

    Determinism: counter and gauge values are pure functions of the
    work driven through the pipeline (seed, scale, faults).  Only
    metrics named with the [_ns] unit suffix record wall-clock time and
    may differ between otherwise identical runs; consumers comparing
    runs must exclude them (see {!is_timing}). *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  (** Raises [Invalid_argument] on a negative increment. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Histogram : sig
  type t

  val observe : t -> int -> unit
  (** Bucket the observation with {!Iocov_util.Log2.bucket_of_int}
      (negative and zero values land in their dedicated buckets). *)

  val count : t -> int
  val sum : t -> int
  val buckets : t -> (Iocov_util.Log2.bucket * int) list
  (** Non-empty buckets in ascending bucket order. *)
end

type t
(** A registry: a named, labeled family of metrics. *)

val create : unit -> t

val default : t
(** The process-global registry every instrumented pipeline stage
    reports into.  The CLI resets and exports this one. *)

val counter : ?help:string -> ?labels:(string * string) list -> t -> string -> Counter.t
(** [counter reg name] registers (or finds) the counter [name] with
    [labels].  Names must match [[a-z_][a-z0-9_]*]; label keys too.
    Raises [Invalid_argument] on a malformed name or if [name]+[labels]
    is already registered as a different metric kind. *)

val gauge : ?help:string -> ?labels:(string * string) list -> t -> string -> Gauge.t
val histogram : ?help:string -> ?labels:(string * string) list -> t -> string -> Histogram.t

val reset : t -> unit
(** Zero every value and empty every histogram, keeping all registered
    handles valid — instrumentation sites that cached a handle keep
    reporting into the same registry after a reset. *)

(** {1 Snapshots} *)

type sample =
  | Counter_sample of int
  | Gauge_sample of int
  | Histogram_sample of {
      count : int;
      sum : int;
      buckets : (Iocov_util.Log2.bucket * int) list;  (** ascending *)
    }

type metric = {
  name : string;
  labels : (string * string) list;  (** in registration order *)
  help : string;
  sample : sample;
}

val snapshot : t -> metric list
(** Stable order: sorted by name, then labels — two snapshots of equal
    registries render identically. *)

val is_timing : metric -> bool
(** True for wall-clock metrics (name ends in [_ns]) — the ones to
    exclude when comparing runs for determinism. *)
