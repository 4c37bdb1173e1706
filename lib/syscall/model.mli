(** The 27 modeled file-system syscalls.

    The paper selects 27 file-system-related syscalls out of ~400 Linux
    syscalls: 11 {e base} syscalls ([open], [read], [write], [lseek],
    [truncate], [mkdir], [chmod], [close], [chdir], [setxattr],
    [getxattr]) plus their {e variants} ([openat], [creat], [pread64],
    ...).  Variants share almost the same kernel implementation, so
    IOCov's variant handler merges their input and output spaces
    (Section 3, "IOCov implementation"). *)

(** The 11 base syscalls. *)
type base =
  | Open
  | Read
  | Write
  | Lseek
  | Truncate
  | Mkdir
  | Chmod
  | Close
  | Chdir
  | Setxattr
  | Getxattr

(** The 27 syscall variants. *)
type variant =
  | Sys_open
  | Sys_openat
  | Sys_creat
  | Sys_openat2
  | Sys_read
  | Sys_pread64
  | Sys_readv
  | Sys_write
  | Sys_pwrite64
  | Sys_writev
  | Sys_lseek
  | Sys_truncate
  | Sys_ftruncate
  | Sys_mkdir
  | Sys_mkdirat
  | Sys_chmod
  | Sys_fchmod
  | Sys_fchmodat
  | Sys_close
  | Sys_chdir
  | Sys_fchdir
  | Sys_setxattr
  | Sys_lsetxattr
  | Sys_fsetxattr
  | Sys_getxattr
  | Sys_lgetxattr
  | Sys_fgetxattr

val all_bases : base list
val all_variants : variant list

val base_of_variant : variant -> base
val variants_of_base : base -> variant list

(** {2 Dense integer indexes}

    Constructors numbered in declaration order, for array-indexed
    counting (the compiled partition plan) and monomorphic comparison.
    [compare_base]/[compare_variant] order exactly as the polymorphic
    [Stdlib.compare] they replace. *)

val base_index : base -> int
(** In [[0, base_count)]. *)

val base_count : int

val variant_index : variant -> int
(** In [[0, variant_count)]. *)

val variant_count : int

val compare_base : base -> base -> int
val compare_variant : variant -> variant -> int

val base_name : base -> string
(** Lower-case base name, e.g. ["open"]. *)

val base_of_name : string -> base option

val variant_name : variant -> string
(** Kernel tracepoint-style name, e.g. ["pread64"]. *)

val variant_of_name : string -> variant option

(** The object a path- or descriptor-taking syscall operates on.  [Path]
    variants resolve a pathname; [Fd] variants take an open descriptor. *)
type target =
  | Path of string
  | Fd of int

(** A traced syscall invocation.  The payload carries exactly the
    arguments IOCov partitions; buffer contents are synthesized by the
    file system (IOCov never inspects user data, only sizes).  The
    [variant] field selects the concrete syscall; smart constructors below
    enforce variant/payload consistency (e.g. only [pread64] carries an
    explicit offset). *)
type call =
  | Open_call of { variant : variant; path : string; flags : Open_flags.t; mode : Mode.t }
  | Read_call of { variant : variant; fd : int; count : int; offset : int option }
  | Write_call of { variant : variant; fd : int; count : int; offset : int option }
  | Lseek_call of { fd : int; offset : int; whence : Whence.t }
  | Truncate_call of { variant : variant; target : target; length : int }
  | Mkdir_call of { variant : variant; path : string; mode : Mode.t }
  | Chmod_call of { variant : variant; target : target; mode : Mode.t }
  | Close_call of { fd : int }
  | Chdir_call of { target : target }
  | Setxattr_call of
      { variant : variant; target : target; name : string; size : int; flags : Xattr_flag.t }
  | Getxattr_call of { variant : variant; target : target; name : string; size : int }

(** Syscall outcome: the raw return value on success ([Ret]) or the error
    code from the kernel's [-errno] convention ([Err]). *)
type outcome =
  | Ret of int
  | Err of Errno.t

val variant_of_call : call -> variant
val base_of_call : call -> base

(** {2 Smart constructors}

    Each checks that the chosen variant belongs to the call's base and
    that the payload fits the variant's prototype. *)

val open_ : ?variant:variant -> ?mode:Mode.t -> flags:Open_flags.t -> string -> call
val read : ?variant:variant -> ?offset:int -> fd:int -> count:int -> unit -> call
val write : ?variant:variant -> ?offset:int -> fd:int -> count:int -> unit -> call
val lseek : fd:int -> offset:int -> whence:Whence.t -> call
val truncate : ?variant:variant -> target:target -> length:int -> unit -> call
val mkdir : ?variant:variant -> ?mode:Mode.t -> string -> call
val chmod : ?variant:variant -> target:target -> mode:Mode.t -> unit -> call
val close : int -> call
val chdir : target -> call
val setxattr :
  ?variant:variant -> ?flags:Xattr_flag.t -> target:target -> name:string -> size:int ->
  unit -> call
val getxattr : ?variant:variant -> target:target -> name:string -> size:int -> unit -> call

(** {2 Manual-page output domains} *)

val errno_domain : base -> Errno.t list
(** The error codes the syscall's manual page documents — the denominator
    of output coverage (the paper notes Figure 4's x-axis comes "from the
    open manual page"). *)

val returns_byte_count : base -> bool
(** True for syscalls whose successful return is a byte count ([read],
    [write], [getxattr]) or a file offset/length ([lseek]) — their success
    outputs are partitioned by powers of two (Section 3). *)

(** {2 Serialization}

    A compact single-line form used by the text trace format:
    [name(key=value, ...)], with strings written by [%S].  Its one
    reader is [Iocov_trace.Format_io.of_line]. *)

val call_to_string : call -> string
val outcome_to_string : outcome -> string

val pp_call : Format.formatter -> call -> unit
val pp_outcome : Format.formatter -> outcome -> unit
