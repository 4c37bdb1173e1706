(** An in-memory POSIX-style file system.

    This is the substrate standing in for the paper's Linux/Ext4 testbed:
    it executes the 27 modeled syscalls ({!exec}) plus the auxiliary
    operations test workloads need ({!exec_aux}: unlink, rename, symlink,
    fsync, sync, crash, ...), returning real POSIX error codes from real
    state — so the input/output coverage a test suite achieves here has
    the same structure as on a kernel.

    Durability follows a snapshot crash model: all mutations apply to the
    live state; [Sync] makes the whole state durable, [Fsync fd] makes one
    inode durable (plus nothing else — in particular {e not} the directory
    entry naming a newly created file, which reproduces the classic
    "fsync the file but not its parent" crash bug family), and [Crash]
    discards everything volatile and recovers from the durable snapshot. *)

type t

val create : ?config:Config.t -> unit -> t
(** A freshly "mkfs-ed" file system containing only the root directory
    (mode 0o755, owned by root).  The initial state is durable. *)

val config : t -> Config.t

(** {2 The 27 modeled syscalls} *)

val exec : t -> Iocov_syscall.Model.call -> Iocov_syscall.Model.outcome
(** Execute one syscall against the live state.  Never raises on bad
    arguments from the call payload — every failure is an [Err]. *)

(** {2 Auxiliary operations}

    Operations outside the 27-syscall coverage domain that workloads and
    oracles still need.  The tracer records them as untracked events. *)

type aux =
  | Unlink of string
  | Rmdir of string
  | Rename of string * string
  | Symlink of string * string  (** [Symlink (target, linkpath)] *)
  | Link of string * string     (** [Link (existing, new_path)] *)
  | Fsync of int
  | Fdatasync of int
  | Sync
  | Crash                       (** power-cut: drop volatile state, recover *)

val aux_name : aux -> string
val exec_aux : t -> aux -> (int, Iocov_syscall.Errno.t) result

(** {2 The persistence journal (crash engine substrate)}

    With a journal attached, every successful mutating operation appends
    ordered {!Journal.record}s: directory-entry and inode metadata,
    block allocations, data writebacks, and fsync/fdatasync/sync
    barriers.  The crash engine enumerates which log subsets survive a
    power cut and rebuilds each crash image by {!apply_record}-ing the
    survivors onto a fresh instance (DESIGN.md §17). *)

val set_journal : t -> Journal.t option -> unit
(** Attach (or detach, with [None]) a persistence log.  Detached is the
    default; attaching costs one append per mutation. *)

val journal : t -> Journal.t option

val apply_record : t -> Journal.record -> unit
(** Replay one persisted record, in journal order, onto this instance —
    the recovery step of crash-state materialization.  Records that
    reference inodes or directory entries which never became durable are
    dropped, as a real journal replay drops orphans.  Never raises. *)

(** {2 Environment control} *)

val set_credentials : t -> uid:int -> gid:int -> unit
(** Switch the calling process's credentials (tests use this to provoke
    [EACCES]/[EPERM]). *)

val credentials : t -> int * int

val set_read_only : t -> bool -> unit
(** Remount read-only (or read-write): mutating syscalls fail [EROFS]. *)

val is_read_only : t -> bool
(** The current mount state, so temporary remount-ro test phases can
    restore what the configuration pinned rather than assuming
    read-write. *)

val inject_errno : t -> ?base:Iocov_syscall.Model.base -> Iocov_syscall.Errno.t -> unit
(** Queue a transient environment error ([EINTR], [ENOMEM], [EFAULT],
    [EIO], ...).  The next {!exec} — of the given base syscall if
    [~base] is passed — fails with it instead of running.  Models
    signals, memory pressure, and bad user buffers, which are conditions
    of the environment rather than of file-system state. *)

val mknod_special : t -> string -> [ `Fifo | `Device of bool ] -> (unit, Iocov_syscall.Errno.t) result
(** Create a FIFO or a device node ([`Device driverless]) — the node
    kinds that make [open] return [ENXIO]/[ENODEV]. *)

val set_immutable : t -> string -> bool -> (unit, Iocov_syscall.Errno.t) result
(** chattr +i/-i: modifications of an immutable file fail [EPERM]. *)

val set_executing : t -> string -> bool -> (unit, Iocov_syscall.Errno.t) result
(** Mark a file as a running binary: write-opens fail [ETXTBSY]. *)

val set_busy : t -> string -> bool -> (unit, Iocov_syscall.Errno.t) result
(** Mark a node busy: opens fail [EBUSY]. *)

val set_system_file_load : t -> int -> unit
(** Pretend other processes hold this many system-wide open files —
    raises pressure toward [ENFILE]. *)

(** {2 Inspection (for oracles and tests)} *)

type stat = {
  st_ino : int;
  st_kind : [ `Reg | `Dir | `Symlink | `Fifo | `Device ];
  st_mode : Iocov_syscall.Mode.t;
  st_uid : int;
  st_gid : int;
  st_size : int;
  st_nlink : int;
}

val stat : t -> string -> (stat, Iocov_syscall.Errno.t) result
val lstat : t -> string -> (stat, Iocov_syscall.Errno.t) result
val exists : t -> string -> bool
val list_dir : t -> string -> (string list, Iocov_syscall.Errno.t) result
(** Entries in lexicographic order, ["."]/[".."] excluded. *)

val checksum : t -> string -> (int, Iocov_syscall.Errno.t) result
(** Content digest of a regular file (see {!Node.content_checksum}). *)

val read_byte : t -> string -> int -> (char, Iocov_syscall.Errno.t) result
(** Effective content byte at an offset (['\000'] within holes). *)

val fd_path : t -> int -> string option
(** Best-effort pathname of an open descriptor (what a trace
    post-processor reconstructs); [None] for unknown or [O_TMPFILE]
    descriptors. *)

val open_fd_count : t -> int
val free_blocks : t -> int
val used_blocks : t -> int
val xattr_names : t -> string -> (string list, Iocov_syscall.Errno.t) result
val xattr_size : t -> string -> string -> (int, Iocov_syscall.Errno.t) result
(** Stored size of one attribute ([Error ENODATA] if absent). *)

val xattr_overhead : int
(** Bytes each attribute costs beyond its name and value against the
    inode's [xattr_space] (ext4's entry header): an entry takes
    [String.length name + size + xattr_overhead]. *)
