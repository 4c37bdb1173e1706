(** The mount-point trace filter.

    A kernel tracer records {e every} syscall the tester makes, including
    ones that never touch the file system under test (reading config
    files, writing logs, ...).  IOCov drops those with "a set of regular
    expressions ... (e.g., based on the mount point pathname)"
    (Section 3).  This is the only setting that changes between testers:
    xfstests uses [/mnt/test], CrashMonkey [/mnt/snapshot]-style mounts. *)

type t

val create : patterns:string list -> (t, string) result
(** Compile keep-patterns (the CLI's [--filter]).  A record is kept iff
    its [path_hint] matches at least one pattern, by leftmost search.
    Fails on the first malformed pattern, naming it.  For a mount point
    use {!mount_point}, which needs no regex. *)

val create_exn : patterns:string list -> t

val mount_point : string -> t
(** [mount_point "/mnt/test"] — the common case: keep records whose hint
    is the mount point or below it, i.e. equals it or starts with it
    followed by ['/'].  A literal test, compared in place without
    allocating.  Trailing slashes are stripped from every mount, so
    ["/mnt/test/"] is ["/mnt/test"] and the root mount ["/"] keeps every
    absolute hint. *)

val keeps : t -> Event.t -> bool
(** Records without a [path_hint] (e.g. [O_TMPFILE] descriptors, [sync])
    are dropped: they cannot be attributed to the tested mount.  A pure
    query — does not touch the filter metrics. *)

val keep_all : t -> Event.t list -> Event.t list
(** [keep_all t events] is the kept records in order — the chunk
    pipeline's batched decision.  Counts exactly like per-record
    {!sink} metering (same counters, same totals), but applied as one
    add per batch instead of one per record.  A compiled filter
    is immutable and may be shared across domains and threads. *)

val sink : t -> (Event.t -> unit) -> Event.t -> unit
(** [sink t k] is a tracer sink that forwards kept records to [k].
    Each decision increments
    [iocov_filter_events_total{result=kept|dropped_no_hint|dropped_no_match}]
    in {!Iocov_obs.Metrics.default}. *)

val matches_hint : t -> string -> bool
(** The bare mount or pattern test on a hint string — what {!keeps} applies to a
    record's [path_hint].  A pure query, for decoders that classify
    records before materializing them. *)

val meter : kept:int -> no_hint:int -> no_match:int -> unit
(** Credit a batch of externally-classified decisions to the filter
    counters, exactly as {!keep_all} would have.  For the fused binary
    decode path, which classifies hints via {!matches_hint} without
    building events. *)
