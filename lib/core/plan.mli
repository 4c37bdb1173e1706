(** The compiled partition plan: the finite partition universe interned
    to dense integer cell IDs.

    The syscall model fixes the universe of coverage cells — 27 variant
    cells, one input cell per (argument, partition) pair, one output
    cell per (base, output-partition) pair.  This module enumerates
    them once at load time and compiles the decode→partition mapping of
    {!Partition.of_call} / {!Partition.output_of} down to integer
    arithmetic: flag bitmaps map bit-by-bit to slot IDs, numeric
    arguments map via log2 bucketing to an ID offset, categorical
    arguments via their variant codes.  {!Coverage.Dense} counts into a
    flat [int array] indexed by these IDs; {!cells} is the inverse
    mapping used to rebuild a reference {!Coverage.t} losslessly.

    Numeric strips cover the full 63-bit int range (negative, zero,
    2^0..2^62), not just the report domain, so every observable
    partition has a cell. *)

type cell =
  | Cell_variant of Iocov_syscall.Model.variant
  | Cell_input of Arg_class.arg * Partition.t
  | Cell_output of Iocov_syscall.Model.base * Partition.output
  | Cell_crash of Partition.crash_mode * Partition.crash_outcome

val total : int
(** Number of cells; valid IDs are [[0, total)]. *)

val cells : cell array
(** [cells.(id)] describes cell [id].  Every ID maps to exactly one
    cell and vice versa — the array is a bijection over the universe. *)

val variant_cell : Iocov_syscall.Model.variant -> int
(** Cell ID of a syscall variant. *)

val iter_input_slots : Iocov_syscall.Model.call -> (int -> unit) -> unit
(** Apply the callback to the cell ID of every input partition the call
    populates — exactly the pairs {!Partition.of_call} returns, without
    building the list.  Allocation-free for every call shape. *)

val output_cell :
  Iocov_syscall.Model.base -> Iocov_syscall.Model.outcome -> int
(** Cell ID of the outcome's output partition, as classified by
    {!Partition.output_of}. *)

val crash_cell : Partition.crash_mode -> Partition.crash_outcome -> int
(** Cell ID of a post-crash outcome (DESIGN.md §17): one cell per
    (journal mode, per-file outcome) pair, in a dense block after the
    syscall output cells. *)

(** {2 Raw-field observation}

    The same slot mappings keyed on wire-level field values — flag
    bitmasks, categorical codes, errno indices — instead of a built
    {!Iocov_syscall.Model.call}.  A fused trace decoder bumps these
    straight out of the byte stream without materializing the call;
    {!iter_input_slots} and {!output_cell} are defined on top of them,
    so the two observation paths cannot drift. *)

val iter_open_slots : flags:int -> mode:int -> (int -> unit) -> unit
(** Open-call input slots for a raw flag/mode pair (mode slots only
    when the flags can create, matching [Open_flags.has]). *)

val read_count_slot : int -> int
val read_offset_slot : int -> int
val write_count_slot : int -> int
val write_offset_slot : int -> int
val lseek_offset_slot : int -> int

val lseek_whence_slot : int -> int
(** Takes a whence {e code} ([Whence.to_code], also the wire byte). *)

val truncate_length_slot : int -> int
val iter_mkdir_mode_slots : int -> (int -> unit) -> unit
val iter_chmod_mode_slots : int -> (int -> unit) -> unit
val setxattr_size_slot : int -> int

val setxattr_flag_slot : int -> int
(** Takes an xattr-flag {e code} ([Xattr_flag.to_code], also the wire
    byte). *)

val getxattr_size_slot : int -> int

val ret_output_cell : Iocov_syscall.Model.base -> int -> int
(** Output cell of a successful return value [Ret n]. *)

val err_output_cell : Iocov_syscall.Model.base -> int -> int
(** Output cell of an errno by {e index} ({!Iocov_syscall.Errno.index},
    also the errno's wire index in the binary trace format). *)

(**/**)

(* Exposed for white-box tests of the layout. *)

val inputs_off : int
val outputs_off : int
val per_base_outputs : int
val crash_off : int
val crash_mode_count : int
val crash_outcome_count : int
val arg_offset : Arg_class.arg -> int
val base_offset : Iocov_syscall.Model.base -> int
val bucket_slot : int -> int
