(** The multi-tenant coverage hub (DESIGN.md §16) — transport-free.

    Many concurrent ingest sessions fold trace streams into per-tenant
    {!Iocov_core.Coverage.t} accumulators while queries read
    {e epoch snapshots}: immutable copies of a tenant's counters,
    published copy-on-write and stamped with a generation number.

    The concurrency discipline, designed so queries never block
    ingestion:

    - Each session decodes into a {e private} shard (the fused
      {!Iocov_trace.Binary_io.drain_batch_dense} hot path), touching no
      shared state; after each batch it takes the tenant lock only for
      the O(cells) merge into the tenant's live accumulator and a
      generation bump.
    - A query first checks, without any lock, whether the published
      epoch's generation still matches the tenant's generation counter
      — the dirty watermark.  If so (idle tenant, or a repeat query
      between batches) the epoch is reused for free.  Only a stale
      epoch takes the tenant lock, for the O(cells)
      {!Iocov_core.Coverage.copy}.
    - Rendering — the expensive part: snapshot digests and report
      formatting — happens {e outside} every lock, against the
      immutable epoch.  Rendered results are memoized in a per-tenant
      cache keyed by query text and invalidated by generation stamp.

    Digests are CRC-32 over the canonical snapshot text, computed
    exactly like the run ledger's, so a tenant's epoch digest can be
    compared byte-for-byte against an offline [iocov analyze] of the
    same trace. *)

module Coverage = Iocov_core.Coverage
module Filter = Iocov_trace.Filter
module Binary_io = Iocov_trace.Binary_io
module Event = Iocov_trace.Event
module Anomaly = Iocov_util.Anomaly

type t

val create : ?mount:string -> ?batch:int -> unit -> t
(** [mount] is the default path filter applied to every session (same
    semantics as [iocov analyze --mount]); omit it to keep every
    record.  [batch] (default 8192) is the per-session drain size. *)

val tenant_ids : t -> string list
(** Known tenant ids, sorted.  A tenant exists once a session has
    opened for it. *)

val declare_config : t -> tenant:string -> Iocov_vfs.Config.point -> (unit, string) result
(** Pin the tenant's config-lattice point (creating the tenant if
    needed).  A tenant's coverage is one shard of the config×cell
    matrix, so every stream must agree: the first declaration wins,
    re-declaring an equal config is a no-op, and declaring a different
    one is an [Error] naming both points. *)

val tenant_config : t -> tenant:string -> Iocov_vfs.Config.point option

(** {2 Ingestion} *)

type session

val open_session : t -> tenant:string -> ?mount:string -> unit -> session
(** A new ingest session for [tenant] (created on first use).  [mount]
    overrides the hub-wide filter for this stream only. *)

val ingest_step : session -> Binary_io.stream -> (int, string) result
(** Drain one batch from the stream into the session shard and commit
    it to the tenant.  Returns the number of records produced; [Ok 0]
    means EOF.  Records decode straight into the shard through
    {!Binary_io.drain_batch_dense}.  After an [Error] the stream is
    failed and the session's partial progress remains committed. *)

val ingest_stream : session -> Binary_io.stream -> (unit, string) result
(** {!ingest_step} to EOF. *)

val ingest_events : session -> Event.t list -> unit
(** Text-side ingestion: filter and commit already-parsed events (the
    socket server's [format=text] connections, live tracer sinks). *)

val close_session : session -> unit
(** Fold the session's stream ledger into the tenant's and forget the
    session.  Idempotent. *)

val session_events : session -> int
(** Records this session has produced so far (kept + dropped). *)

val note_anomaly : session -> Anomaly.t -> unit
(** Fold a transport-level defect (partial frame on a dropped
    connection, tailed file truncated or rotated under the cursor) into
    the session's completeness ledger — [Truncated] kinds also mark the
    stream truncated.  Safe after {!close_session}: the entry lands in
    the tenant's closed-stream ledger instead. *)

(** {2 Queries} *)

type query =
  | Coverage                              (** suite + untested summaries *)
  | Tcd of string                         (** argument name *)
  | Adequacy of string * float * float    (** argument, target, theta *)
  | Completeness
  | Digest

val query : t -> tenant:string -> query -> (string, string) result
(** Render one query against the tenant's current epoch (publishing a
    fresh one first if the tenant is dirty).  Results are cached until
    the next committed batch.  Unknown tenant or argument is an
    [Error]. *)

val coverage : t -> tenant:string -> Coverage.t option
(** The tenant's frozen epoch coverage — what the ledger and the
    differential tests consume.  Publishes if dirty.  Read it, do not
    mutate it: later queries render the same epoch. *)

val digest : t -> tenant:string -> string option
(** Ledger-identical CRC-32 digest of the tenant's epoch snapshot. *)

type stats = {
  st_events : int;       (** records produced across all streams *)
  st_kept : int;
  st_lost : int;         (** skipped + abandoned records (lenient ingest) *)
  st_generation : int;   (** commits so far *)
  st_published : int;    (** generation of the published epoch *)
  st_publishes : int;    (** epochs actually copied (≤ generation) *)
  st_cache_hits : int;
  st_cache_misses : int;
  st_sessions : int;     (** live ingest sessions *)
  st_streams : int;      (** sessions ever opened *)
  st_config : (string * string) option;
  (** (lattice point name, config digest) pinned by {!declare_config};
      [None] for streams that never declared one *)
}

val stats : t -> tenant:string -> stats option

val render_stats : stats -> string
