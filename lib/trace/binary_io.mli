(** Compact binary trace encoding.

    LTTng's native on-disk representation is CTF, a binary format —
    text is for humans, binary is what makes tracing "low-overhead" at
    millions of events.  This module is the project's CTF analogue: a
    stream of LEB128-varint records with an incremental string table
    (each distinct pathname/comm is emitted once and referenced by index
    thereafter) and delta-encoded timestamps.  A paper-scale xfstests
    trace shrinks by roughly an order of magnitude versus the text form
    and parses several times faster.

    {b v3 layout} (the default; DESIGN.md §15): the 5-byte magic
    ["IOCT\x03"] followed by the chapter size (uvarint), then a stream
    of multi-record {e frames}:

    {v sync(0xF5 0x9E) · payload length (uvarint) · CRC-32 of payload (4B LE) ·
   payload = chapter id (uvarint) · first in-chapter index (uvarint) ·
             string-table base count (uvarint) · record count (uvarint) ·
             record count × record bytes v}

    v3 record bytes: timestamp delta (zigzag svarint, exact) · pid
    delta (zigzag svarint) · comm (string ref) · flags byte (bit 0:
    payload is aux, bit 1: outcome is an errno, bit 2: a path hint
    follows; values above 7 are corrupt) · optional path hint (string
    ref, {e before} the payload so a filtering decoder can drop the
    record without building its call) · payload (tracked: variant
    index + argument fields; aux: name and detail string refs) ·
    outcome (zigzag return value, or errno index when bit 1 is set).

    The writer batches [frame] records per frame (default 256), so the
    ~16-byte frame overhead amortizes to noise and the whole frame is
    CRC'd and written with one [output] call.  Frames never span a
    chapter boundary.  A torn or corrupt frame loses at most [frame]
    records, and the loss stays {e exactly} counted: the intact frame
    after a damaged region pins itself to an absolute record number
    ([chapter × chapter size + first index]), so the index gap is the
    exact number of records destroyed.  A record that fails to decode
    {e inside} a CRC-valid frame (a dangling string reference after
    lost frames) voids the rest of that frame — also an exact count,
    since the frame header declares how many records it held.

    {b v2 layout} (["IOCT\x02"], still readable): one record per frame
    with the same sync/CRC envelope and a per-frame header of
    chapter id · in-chapter index · string-table base count; record
    bytes as v1 (clamped uvarint timestamp delta, absolute pid, hint
    last).  Costs ~73% byte overhead over v1.

    {b v1 layout} (["IOCT\x01"], still readable): the bare record bytes
    with no framing — corruption is detected only as a decode failure
    and nothing after it is recoverable.

    String tables restart every [chapter] records (chapter id in every
    frame header), bounding a corrupt frame's lost-reference blast
    radius to its chapter.  Each frame carries the table size at its
    start, so a reader that lost frames pads the table with
    placeholders and fails loudly ([Lost_reference]) on a dangling
    reference instead of resolving it to the wrong string.  Timestamps
    are delta-encoded; after a lenient skip the deltas of lost records
    are missing, so subsequent absolute timestamps are offset —
    coverage, which never reads timestamps, is unaffected.

    v1/v2 record bytes: timestamp delta (uvarint, clamped at 0) · pid
    (uvarint) · comm (string ref) · payload · outcome · optional path
    hint (string ref).  String refs are uvarints: [0] introduces a
    fresh string (length + bytes) appended to the table, [n+1]
    references table entry [n]. *)

type writer

val writer : ?version:int -> ?chapter:int -> ?frame:int -> out_channel -> writer
(** Write the header and return a streaming encoder.  [version] is [3]
    (default), [2], or [1]; [chapter] (v2/v3 only) is how many records
    share a string table before it restarts — smaller chapters bound
    corruption blast radius at the cost of re-emitting hot strings.
    The default is version-dependent: [2^20] (the maximum) for v3 —
    frames already bound per-defect loss, so a typical trace interns
    each string once, like v1's global table — and 1024 for v2, where
    the chapter is the only bound on loss.  [frame] (default 256, v3 only) is how many records
    share one CRC frame; it is clamped to [chapter].  v2/v3 writers
    buffer whole frames: call {!flush} (or let a final {!flush} before
    close) to emit a partial frame — [close_out] alone loses pending
    records.  Raises [Invalid_argument] on an unsupported version or a
    non-positive chapter/frame. *)

val write_event : writer -> Event.t -> unit

val sink : writer -> Event.t -> unit
(** A tracer sink (same function as {!write_event}). *)

val flush : writer -> unit
(** Emit any pending partial frame and flush the channel. *)

(** {2 Streaming decode}

    The incremental string table makes decoding sequential, but not
    materializing: a {!stream} hands out events in bounded batches, so a
    multi-million-event trace runs in O(batch) memory — and the decoded
    batches are what the replay engine analyzes. *)

type mode =
  | Strict  (** first defect fails the stream, reporting its byte offset *)
  | Lenient of Iocov_util.Anomaly.budget
      (** skip damaged records, resync on the next intact frame, and
          account for every loss — up to the error budget *)

type stream

val open_stream : ?mode:mode -> in_channel -> (stream, string) result
(** Consume and check the magic header (any version).  [mode]
    defaults to [Strict]. *)

val stream_version : stream -> int

val read_batch : stream -> max:int -> (Event.t array, string) result
(** Decode up to [max] events ([max > 0]); an empty array means EOF.
    [seq] is assigned from record order, starting at 1.  After an
    [Error] the stream stays failed.

    In [Strict] mode the first corrupt or truncated record is an
    [Error] carrying its byte offset.  In [Lenient] mode damaged
    records are skipped (v2/v3: with a resync scan to the next
    CRC-valid frame; v1: the rest of the stream is abandoned as
    truncated) and tallied into {!completeness}; the only [Error]s are
    an exceeded budget or a non-trace input. *)

type drained = {
  dr_produced : int;  (** records decoded (kept + dropped) *)
  dr_kept : int;
  dr_no_hint : int;  (** dropped: no path hint to classify *)
  dr_no_match : int;  (** dropped: hint rejected by [keep_hint] *)
}

val drain_batch :
  stream ->
  ?keep_hint:(string -> bool) ->
  on_call:(Iocov_syscall.Model.call -> Iocov_syscall.Model.outcome -> unit) ->
  max:int ->
  unit ->
  (drained, string) result
(** The fused v3 decode: up to [max] records are classified by path
    hint and the kept tracked calls handed to [on_call] — no [Event.t]
    is ever materialized, and the hint verdict is memoized per interned
    string so a hot hint is classified once per chapter.  Aux records
    are classified like any record (kept ones count in [dr_kept]) but
    never reach [on_call].  Without [keep_hint] every record is kept.
    [dr_produced = 0] means EOF.  Loss accounting, strict/lenient
    semantics, budgets, and {!completeness} are identical to
    {!read_batch}.  v3 streams only ([Invalid_argument] otherwise). *)

val drain_batch_dense :
  stream ->
  ?keep_hint:(string -> bool) ->
  dense:Iocov_core.Coverage.Dense.t ->
  max:int ->
  unit ->
  (drained, string) result
(** {!drain_batch} fused one level further: kept tracked records are
    decoded straight into dense plan-cell bumps via {!Iocov_core.Plan}'s
    raw-field slot mappings — not even a [Model.call] is materialized
    between the wire and the counter array.  Observationally identical
    to [drain_batch ~on_call:(Coverage.Dense.observe dense)], including
    per-record atomicity: a record that fails mid-decode contributes
    nothing to [dense].  This is the ≥10M events/s single-core replay
    path (ROADMAP). *)

val completeness : stream -> Iocov_util.Anomaly.completeness
(** The stream's ledger so far: events decoded, records skipped,
    resync regions, bytes discarded, truncation, and the first
    anomalies in stream order. *)

val fold_channel : in_channel -> init:'a -> f:('a -> Event.t -> 'a) -> ('a, string) result
(** Strict streaming decode to EOF (batched {!read_batch} internally);
    fails with a message on corruption.  [seq] is assigned from record
    order. *)

val read_channel : in_channel -> (Event.t list, string) result

val is_binary_trace : in_channel -> bool
(** Peek the magic (any version) without consuming it (the channel
    is rewound), so [analyze] can auto-detect the format. *)

(** {2 Cursors}

    A cursor freezes a stream's decode state at a batch boundary —
    offset, sequence number, delta bases, chapter, and the live string
    table — so a checkpointed run can reopen the trace and continue
    exactly where it stopped.  A v3 cursor may point {e into} a frame:
    [c_offset] is then the frame's own offset and [c_skip] the number
    of its records the checkpointed run already consumed; resuming
    re-reads the frame and passes over them. *)

type cursor = {
  c_version : int;
  c_offset : int;  (** byte offset of the next unread frame (or the
                       current frame when [c_skip > 0]) *)
  c_seq : int;
  c_last_ts : int;
  c_last_pid : int;  (** v3 pid delta base; 0 for v1/v2 *)
  c_chapter : int;
  c_skip : int;  (** records of the frame at [c_offset] already
                     consumed; 0 at a frame boundary and for v1/v2 *)
  c_strings : string option array;  (** [None] = lost in a corrupt frame *)
}

val cursor : stream -> cursor
(** Capture the current decode state.  Only meaningful between
    {!read_batch}/{!drain_batch} calls. *)

val resume_stream : ?mode:mode -> in_channel -> cursor -> (stream, string) result
(** Reopen a trace at a cursor: checks the magic and version, seeks to
    the cursor offset, and restores the decode state (re-reading and
    skipping into the frame when [c_skip > 0]).  Subsequent
    {!read_batch}/{!drain_batch} calls continue the original
    numbering. *)
