(** The [open(2)] flags argument — the paper's canonical bitmap argument.

    Figure 2 partitions the [open] input space by individual flag; Table 1
    analyzes how many flags are combined per call.  A flag set is stored as
    an [int] bitmask (as on the syscall ABI) and decomposed into the
    21-flag domain listed on the figure's x-axis.  [O_RDONLY] is value 0
    inside the 2-bit access-mode field, so decomposition reports exactly
    one access mode per call. *)

type flag =
  | O_RDONLY
  | O_WRONLY
  | O_RDWR
  | O_CREAT
  | O_EXCL
  | O_NOCTTY
  | O_TRUNC
  | O_APPEND
  | O_NONBLOCK
  | O_DSYNC
  | O_ASYNC
  | O_DIRECT
  | O_LARGEFILE
  | O_DIRECTORY
  | O_NOFOLLOW
  | O_NOATIME
  | O_CLOEXEC
  | O_SYNC
  | O_RSYNC
  | O_PATH
  | O_TMPFILE

type t = int
(** A flag set, encoded as on the Linux ABI. *)

val all : flag list
(** The 21-flag domain, in Figure 2's x-axis order. *)

val flag_name : flag -> string

val flag_index : flag -> int
(** Dense index in declaration order, in [[0, flag_count)] — an array
    offset for the compiled partition plan. *)

val flag_count : int
val flag_of_name : string -> flag option

val bit : flag -> int
(** ABI bit pattern of a single flag.  Access modes occupy the low 2 bits;
    [O_SYNC] includes the [O_DSYNC] bit and [O_TMPFILE] the [O_DIRECTORY]
    bit, exactly as on Linux. *)

val of_flags : flag list -> t
(** Combine flags into a mask.  At most one access mode may be given;
    none defaults to [O_RDONLY]. *)

val decompose : t -> flag list
(** Decompose a mask into its flag domain members: exactly one access mode
    plus every set non-access flag.  [O_SYNC] masks [O_DSYNC] (a mask with
    both bits reports only [O_SYNC]); [O_TMPFILE] masks [O_DIRECTORY]. *)

val access_mode : t -> flag
(** The call's access mode: [O_RDONLY], [O_WRONLY], or [O_RDWR].
    The undefined ABI encoding 3 is reported as [O_RDWR]. *)

val has : t -> flag -> bool
(** [has t f] iff [f] appears in [decompose t]. *)

val readable : t -> bool
(** Access mode allows reading ([O_RDONLY] or [O_RDWR]). *)

val writable : t -> bool
(** Access mode allows writing ([O_WRONLY] or [O_RDWR]). *)

val to_string : t -> string
(** The names of {!decompose}, e.g. ["O_WRONLY|O_CREAT|O_TRUNC"], then
    [|0x…] (lowercase hex, as [%x] prints it) for any bits those names
    do not reproduce: access mode 3 prints ["O_RDWR|0x1"], and a bit
    no flag names, such as [0x40000000], is kept the same way.  A mask
    the names alone reproduce prints no suffix. *)

val of_string : string -> t option
(** Inverse of {!to_string} on every mask: [of_string (to_string m) =
    Some m]. *)

val count_flags : t -> int
(** Number of domain flags in the set — Table 1's column index
    (a bare [O_RDONLY] counts as 1 flag "used alone"). *)
