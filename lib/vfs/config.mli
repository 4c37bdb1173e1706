(** File-system geometry, limits, and test credentials.

    The limits are what turn boundary inputs into distinct {e outputs}:
    [max_file_size] yields [EFBIG], [total_blocks] yields [ENOSPC],
    [quota_blocks] yields [EDQUOT], and so on.  Defaults model a small
    Ext4-like device so that exhaustion errors are reachable by test
    workloads in reasonable time. *)

(** Journal semantics governing which persistence log records survive a
    crash (DESIGN.md §17): [Writeback] persists data and metadata
    independently; [Ordered] never commits metadata ahead of the data it
    references; [Journaled] persists strictly in log order. *)
type journal_mode = Writeback | Ordered | Journaled

val journal_mode_to_string : journal_mode -> string
val journal_mode_of_string : string -> journal_mode option
val all_journal_modes : journal_mode list

type t = {
  block_size : int;          (** bytes per block (default 4096) *)
  total_blocks : int;        (** device capacity; [ENOSPC] when exhausted *)
  max_file_size : int;       (** [EFBIG] beyond this size *)
  large_file_threshold : int;(** [EOVERFLOW] when opening a file at least
                                 this big without [O_LARGEFILE] (2 GiB) *)
  max_name_len : int;        (** per-component limit; [ENAMETOOLONG] *)
  max_path_len : int;        (** whole-path limit; [ENAMETOOLONG] *)
  max_symlink_depth : int;   (** [ELOOP] beyond this many link hops *)
  max_open_files : int;      (** per-process fd limit; [EMFILE] *)
  max_system_files : int;    (** system-wide open-file limit; [ENFILE] *)
  max_xattr_value : int;     (** [E2BIG] above this value size (64 KiB) *)
  xattr_space : int;         (** per-inode xattr capacity; [ENOSPC] when full *)
  quota_blocks : int option; (** per-uid block quota; [EDQUOT] *)
  read_only : bool;          (** mounted read-only; [EROFS] *)
  uid : int;                 (** initial process uid (0 = root) *)
  gid : int;
  faults : Fault.t list;     (** injected bugs active in this instance *)
  journal_mode : journal_mode; (** crash-time persistence semantics (default [Ordered]) *)
}

val default : t
(** A 16 GiB, 4 KiB-block file system with Linux-like limits, writable,
    running as root, no injected faults. *)

val small : t
(** A tiny (4 MiB) instance for exhaustion tests: ENOSPC/EDQUOT within a
    few writes. *)

val with_faults : Fault.t list -> t -> t
val with_journal_mode : journal_mode -> t -> t
val with_uid : uid:int -> gid:int -> t -> t
val read_only_of : t -> t

(** {2 Canonical serialization}

    One [key=value] token per field, declaration order, single-space
    separated — e.g. [quota_blocks=none] and [faults=-] for the empty
    cases.  [of_string (to_string c) = Ok c] for every config
    (QCheck-tested over all 17 fields), and the digest is the CRC-32 of
    the canonical form, so ledger/serve/trace headers can name a config
    exactly in eight hex digits. *)

val equal : t -> t -> bool
val to_string : t -> string
val of_string : string -> (t, string) result
val digest : t -> string

(** {2 The config lattice}

    A finite, deterministic set of named configurations — six base
    geometries (default, small, tiny, tiny-quota, read-only,
    no-xattr-space), each crossed with the three journal modes.  Point
    IDs are dense and stable across runs ([0, lattice_count)); point 0
    is always [default].  Base names denote the [Ordered] mode; the
    other modes append ["-writeback"] / ["-journaled"]. *)

type point = {
  pt_id : int;       (** dense, stable; the point's index in its lattice *)
  pt_name : string;  (** e.g. ["tiny-quota-journaled"] *)
  pt_config : t;
}

val lattice : point array
val lattice_count : int
val default_point : point

val lattice_digest : string
(** CRC-32 over every point's name and canonical form — names the whole
    lattice version, for cross-run comparability checks. *)

val point_named : string -> point option

val points_of_spec : string -> (point list, string) result
(** Parse a [--configs] value: ["all"] for the whole lattice or a
    comma-separated list of point names.  Preserves order, drops
    duplicates. *)

val parse_lattice : string -> (point list, string) result
(** Parse a custom lattice file ([NAME <canonical config>] per line, [#]
    comments); points get dense IDs in file order. *)

val print_lattice : unit -> string
(** The built-in lattice in [parse_lattice] form — documentation and a
    template for custom lattice files. *)
