(** The persistent run ledger ([.iocov/runs.jsonl], DESIGN.md §14).

    Every pipeline run appends one JSON-lines manifest record —
    subcommand, flags, seed, jobs, counters, event and loss
    counts, wall and per-stage durations, and a coverage fingerprint
    (CRC-32 digest of the canonical snapshot plus a dense one-bit-per-
    cell bitmap over the {!Iocov_core.Plan} universe).  [iocov runs]
    lists, shows, and diffs the records, turning coverage-regression
    detection into a one-command check.

    The file is append-only; each append is a single [write] of one
    line, so concurrent runs interleave whole records.  A crash can at
    worst truncate the final line, which {!load} counts and skips
    rather than failing — the lenient-ingestion philosophy applied to
    our own telemetry. *)

type record = {
  r_id : string;              (** assigned by {!append}: ["r<n>"] *)
  r_time : float option;      (** unix seconds; [None] in determinism mode *)
  r_subcommand : string;
  r_label : string;           (** source label: trace path, suite name… *)
  r_tenant : string option;   (** serve tenant id; [None] for offline runs *)
  r_flags : (string * string) list;
  r_seed : int option;
  r_jobs : int;               (** always 1 since the replay engine runs on
                                  one domain; older records may say more *)
  r_counters : string;
  r_events : int;
  r_kept : int;
  r_lost : int;               (** skipped + abandoned records *)
  r_wall_s : float;
  r_stages : (string * float) list;  (** root span name → seconds *)
  r_digest : string;          (** CRC-32 of {!Iocov_core.Snapshot.to_string}, hex *)
  r_cells : int * int * int;  (** lit (variant, input, output) cells *)
  r_bitmap : string;          (** hex bitmap, one bit per plan cell *)
  r_config : (string * string) option;
  (** (lattice point name, config digest) the run executed under;
      [None] for pre-lattice records and streams that never declared
      one.  [runs diff] refuses cross-config pairs unless asked. *)
}

val default_dir : string
(** [".iocov"]. *)

val path : dir:string -> string

val digest : Iocov_core.Coverage.t -> string
val bitmap : Iocov_core.Coverage.t -> string

val hex_of_bytes : bytes -> string
(** Lower-case hex, two digits per byte: the bitmap's text form. *)

val bytes_of_hex : string -> (bytes, string) result
(** The inverse of {!hex_of_bytes}; accepts upper- and lower-case
    digits and refuses an odd length or any other character. *)

val make :
  ?time:float -> ?seed:int -> ?tenant:string -> ?config:string * string ->
  subcommand:string -> label:string ->
  flags:(string * string) list -> jobs:int -> counters:string -> events:int ->
  kept:int -> lost:int -> wall_s:float -> stages:(string * float) list ->
  Iocov_core.Coverage.t -> record
(** Build a record (id empty until {!append} assigns one).  [tenant]
    marks records appended by serve sessions; the list view shows it as
    a column, so per-tenant runs are diffable like any others.  [jobs]
    must be 1 and [counters] ["dense"] ([Invalid_argument] otherwise);
    both are kept so that older callers keep building, and older
    records that name other values still load. *)

val to_json : record -> Iocov_util.Json.t
val of_json : Iocov_util.Json.t -> (record, string) result
val parse_line : string -> (record, string) result

type loaded = { records : record list; bad_lines : int }

val load : dir:string -> loaded
(** All readable records in file order; unreadable lines (truncated
    tail after a crash, foreign garbage) are counted in [bad_lines]. *)

val append : dir:string -> record -> (record, string) result
(** Create [dir] if needed, assign the next id and append one line.
    The next id is one past the {e last} readable record whose id is
    [rN], found by walking the file's lines backwards from its tail:
    blank lines, unreadable lines and other ids are skipped, and no
    line before that record is parsed, so an append costs the same on
    a ledger of any length.  That is one past the {e largest} readable
    [rN] as long as ids ascend in file order, which holds for every
    ledger iocov writes: [append] is the only writer that assigns ids,
    and damage (a torn tail, a garbage line) only makes records
    unreadable.  A torn final line left by a crash is closed off
    first, so the new record stays readable.  Returns the record with
    its id; an I/O failure is an [Error], never an exception. *)

val last : int -> loaded -> loaded
(** Keep only the newest [n] records — [runs list --last N].  Ids are
    untouched (they name positions in the full file). *)

val find : record list -> string -> record option
(** By id ([r7]) or 1-based position ([7]). *)

type diff = {
  d_gained : int list;  (** plan cell ids lit in B but not in A *)
  d_lost : int list;    (** lit in A but not in B *)
  d_rate_a : float;     (** events/s of A *)
  d_rate_b : float;
  d_identical : bool;   (** digests equal — byte-identical coverage *)
}

val diff : record -> record -> diff
(** Compare two runs' coverage bitmaps (XOR semantics) and throughput.
    Two byte-identical runs yield empty gained/lost and
    [d_identical = true]. *)

val config_clash : record -> record -> bool
(** True when both records name a config and the digests differ — the
    pair a plain [runs diff] refuses ([--cross-config] overrides).
    Records without a config never clash. *)

val config_name : record -> string
(** The lattice point name, or ["-"]. *)

val bitmap_cells : string -> int list
(** Lit cell ids of a hex bitmap, ascending. *)

val render_list : loaded -> string
val render_show : record -> string
val render_diff : a:record -> b:record -> diff -> string
