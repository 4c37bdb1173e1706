(** Text serialization of trace records.

    One record per line, LTTng-babeltrace-flavoured:

    {v
    [1622] pid=1000 comm="xfstests" open(path="/mnt/test/a", flags=O_RDONLY, mode=0o0) -> ok:3 hint="/mnt/test/a"
    [2433] pid=1000 comm="xfstests" !fsync(fd=3) -> ok:0 hint="/mnt/test/a"
    v}

    The grammar is exactly what {!to_line} writes, single spaces
    included:

    {v
    line    ::= "[" int "] pid=" int " comm=" str " " payload " -> " outcome [" hint=" str]
    payload ::= name "(" field {", " field} ")"   fields in Model.call_to_string order
              | "!" aux-name "(" detail ")"
    outcome ::= "ok:" int | "err:" ERRNO
    v}

    - [int] is [%d]: an optional [-] and decimal digits, over the whole
      [int] range.  A value past it is refused, never wrapped.
    - [str] is [%S]: a double-quoted string in which backslash, quote,
      [\n], [\t], [\r], [\b] and [\ddd] (decimal, at most 255) are the
      only escapes.  Any byte can be carried, [" -> "] included.
    - A mode is [%o] after [0o]: up to 21 octal digits, the 63 bits
      read unsigned as [%o] prints them.
    - A flag set is {!Iocov_syscall.Open_flags.to_string}'s text: flag
      names joined by [|], then [|0x…] (lowercase hex) for any bits the
      names do not reproduce, such as access mode 3 or an unmodeled bit.
    - [!]-prefixed names are untracked (auxiliary) operations, and the
      name and detail are raw text.  The name ends at the first ['('].
      The detail ends at the first [") -> "] after which the rest of the
      line reads as an outcome and optional hint to its end, so
      [!note(a) -> b) -> ok:0] has the detail [a) -> b].  For every
      line {!to_line} writes, that is the writer's own split.

    Everything else is refused: fields out of order or repeated, a
    missing field, extra or doubled spaces, [+], [_] or [0x] in a
    decimal, and any other escape ([\x41], [\']).  The format
    round-trips: [of_line (to_line e)] reproduces [e] up to the [seq]
    field, which is assigned by line number when reading a file, for
    every event whose aux name has no ['('] and whose aux fields have
    no newline. *)

val to_line : Event.t -> string

val of_line : ?seq:int -> string -> (Event.t, string) result
(** [seq] defaults to 0; readers pass the line number.

    Reads one canonical line, as {!read_raw_batch} hands it out (already
    trimmed).  A refused line is an [Error "col N: …"], where [N] is the
    byte column, counted from 1, at which the line stopped matching, for
    example [col 34: expected ", flags="].  A call that a smart
    constructor refuses, such as [pread64] without an offset, is an
    error at the column where its fields end.  No input raises.

    Safe to call from several domains or threads at once: the name
    tables are read-only, and the flag-set memo is an atomically swapped
    immutable map of at most 256 entries. *)

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
