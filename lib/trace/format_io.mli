(** Text serialization of trace records.

    One record per line, LTTng-babeltrace-flavoured:

    {v
    [1622] pid=1000 comm="xfstests" open(path="/mnt/test/a", flags=O_RDONLY, mode=0o0) -> ok:3 hint="/mnt/test/a"
    [2433] pid=1000 comm="xfstests" !fsync(fd=3) -> ok:0 hint="/mnt/test/a"
    v}

    [!]-prefixed names are untracked (auxiliary) operations.  The format
    round-trips: [of_line (to_line e)] reproduces [e] up to the [seq]
    field, which is assigned by line position when reading a file. *)

val to_line : Event.t -> string

val of_line : ?seq:int -> string -> (Event.t, string) result
(** [seq] defaults to 0; readers pass the line number.

    Parses with a single-pass scanner over the canonical [to_line]
    shape and falls back to {!of_line_reference} on any deviation, so
    accepted inputs, results, and error messages are those of the
    reference parser.  Safe to call from several domains or threads at
    once: it touches no mutable shared state. *)

val of_line_reference : ?seq:int -> string -> (Event.t, string) result
(** The original [Scanf]-based parser, kept as the differential oracle
    for the fast scanner ([of_line] must agree with it on every
    input) and as the fallback for non-canonical lines. *)

val sink_channel : out_channel -> Event.t -> unit
(** A tracer sink that streams records to a channel. *)

(** {2 Streaming reads}

    Text records are self-contained, so only line numbering is
    sequential: a {!stream} hands out raw line batches in O(batch)
    memory, and the replay engine parses each batch as it runs it. *)

type stream

val open_stream : in_channel -> stream

val read_raw_batch : stream -> max:int -> (int * string) array
(** Up to [max] [(line_number, line)] pairs ([max > 0]), blank and
    [#]-comment lines already skipped (they still advance the line
    number); an empty array means EOF. *)
