(** Compact binary trace encoding.

    LTTng's native on-disk representation is CTF, a binary format —
    text is for humans, binary is what makes tracing "low-overhead" at
    millions of events.  This module is the project's CTF analogue: a
    stream of LEB128-varint records with an incremental string table
    (each distinct pathname/comm is emitted once and referenced by index
    thereafter) and delta-encoded timestamps.  A paper-scale xfstests
    trace shrinks by roughly an order of magnitude versus the text form
    and parses several times faster.

    {b Layout} (format v3; DESIGN.md §15): the 5-byte magic
    ["IOCT\x03"] followed by the chapter size (uvarint), then a stream
    of multi-record {e frames}:

    {v sync(0xF5 0x9E) · payload length (uvarint) · CRC-32 of payload (4B LE) ·
   payload = chapter id (uvarint) · first in-chapter index (uvarint) ·
             string-table base count (uvarint) · record count (uvarint) ·
             record count × record bytes v}

    Record bytes: timestamp delta (zigzag svarint, exact) · pid
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

    Earlier formats (["IOCT\x01"], ["IOCT\x02"]) are refused by
    {!open_stream} with an error naming the version; [iocov trace
    --binary] writes v3.  [~frame:1] gives one-record frames, the
    smallest blast radius a damaged frame can have.

    String tables restart every [chapter] records (chapter id in every
    frame header), bounding a corrupt frame's lost-reference blast
    radius to its chapter.  Each frame carries the table size at its
    start, so a reader that lost frames pads the table with
    placeholders and fails loudly ([Lost_reference]) on a dangling
    reference instead of resolving it to the wrong string.  Timestamps
    are delta-encoded; after a lenient skip the deltas of lost records
    are missing, so subsequent absolute timestamps are offset —
    coverage, which never reads timestamps, is unaffected.

    String refs are uvarints: [0] introduces a fresh string (length +
    bytes) appended to the table, [n+1] references table entry [n].
    A reference to an entry lost with a corrupt frame fails its record
    ([Lost_reference]) in every decoder, whether or not the decoder
    reads the string. *)

val version : int
(** The wire format version read and written: [3]. *)

type writer

val writer : ?chapter:int -> ?frame:int -> out_channel -> writer
(** Write the header and return a streaming encoder.  [chapter] is how
    many records share a string table before it restarts — smaller
    chapters bound corruption blast radius at the cost of re-emitting
    hot strings.  The default is [2^20], the maximum: frames already
    bound per-defect loss, so a typical trace interns each string once.
    [frame] (default 256) is how many records share one CRC frame; it
    is clamped to [chapter].  The writer buffers whole frames: call
    {!flush} (or let a final {!flush} before close) to emit a partial
    frame — [close_out] alone loses pending records.  Raises
    [Invalid_argument] on a non-positive or oversized chapter or a
    non-positive frame. *)

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
(** Consume and check the magic header and chapter size.  [mode]
    defaults to [Strict].  A v1 or v2 trace is an [Error] naming its
    version and saying how to re-trace it. *)

val read_batch : stream -> max:int -> (Event.t array, string) result
(** Decode up to [max] events ([max > 0]); an empty array means EOF.
    [seq] is assigned from record order, starting at 1.  After an
    [Error] the stream stays failed.

    In [Strict] mode the first corrupt or truncated record is an
    [Error] carrying its byte offset.  In [Lenient] mode damaged
    records are skipped (with a resync scan to the next CRC-valid
    frame) and tallied into {!completeness}; the only [Error]s are an
    exceeded budget or a non-trace input. *)

type drained = {
  dr_produced : int;  (** records decoded (kept + dropped) *)
  dr_kept : int;
  dr_no_hint : int;  (** dropped: no path hint to classify *)
  dr_no_match : int;  (** dropped: hint rejected by [keep_hint] *)
}

val drain_batch_dense :
  stream ->
  ?keep_hint:(string -> bool) ->
  dense:Iocov_core.Coverage.Dense.t ->
  max:int ->
  unit ->
  (drained, string) result
(** The fused decode: up to [max] records are classified by path hint
    and the kept tracked records decoded straight into dense plan-cell
    bumps via {!Iocov_core.Plan}'s raw-field slot mappings — neither an
    [Event.t] nor a [Model.call] is materialized between the wire and
    the counter array, and the hint verdict is memoized per interned
    string so a hot hint is classified once per chapter.  Aux records
    are classified like any record (kept ones count in [dr_kept]) but
    bump no cell.  Without [keep_hint] every record is kept.
    [dr_produced = 0] means EOF.

    The result is what {!read_batch} followed by
    [Coverage.Dense.observe] on the kept tracked events would give:
    the same records read and lost, the same strict/lenient semantics,
    budgets and {!completeness}.  That includes strings the drain never
    reads: a record whose comm, path, hint or xattr name refers to a
    string lost with a corrupt frame fails, and voids the rest of its
    frame, exactly as on the event path.  A record that fails
    mid-decode contributes nothing to [dense]. *)

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
(** Peek the magic without consuming it (the channel is rewound), so
    [analyze] can auto-detect the format.  Any version counts, so a
    v1/v2 file reaches {!open_stream}'s refusal instead of the text
    parser. *)

(** {2 Cursors}

    A cursor freezes a stream's decode state at a batch boundary —
    offset, sequence number, delta bases, chapter, and the live string
    table — so a checkpointed run can reopen the trace and continue
    exactly where it stopped.  A cursor may point {e into} a frame:
    [c_offset] is then the frame's own offset and [c_skip] the number
    of its records the checkpointed run already consumed; resuming
    re-reads the frame and passes over them. *)

type cursor = {
  c_offset : int;  (** byte offset of the next unread frame (or the
                       current frame when [c_skip > 0]) *)
  c_seq : int;
  c_last_ts : int;
  c_last_pid : int;  (** pid delta base *)
  c_chapter : int;
  c_skip : int;  (** records of the frame at [c_offset] already
                     consumed; 0 at a frame boundary *)
  c_strings : string option array;  (** [None] = lost in a corrupt frame *)
}

val cursor : stream -> cursor
(** Capture the current decode state.  Only meaningful between
    {!read_batch}/{!drain_batch_dense} calls. *)

val resume_stream : ?mode:mode -> in_channel -> cursor -> (stream, string) result
(** Reopen a trace at a cursor: checks the header, seeks to the cursor
    offset, and restores the decode state (re-reading and skipping into
    the frame when [c_skip > 0]).  Subsequent
    {!read_batch}/{!drain_batch_dense} calls continue the original
    numbering. *)
