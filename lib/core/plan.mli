(** The compiled partition plan: the finite partition universe interned
    to dense integer cell IDs.

    The syscall model fixes the universe of coverage cells — 27 variant
    cells, one input cell per (argument, partition) pair, one output
    cell per (base, output-partition) pair.  This module enumerates
    them once at load time, and it is the one place a call and its
    outcome are classified into partitions, by integer arithmetic: flag
    bitmaps map bit-by-bit to slot IDs, numeric arguments map via log2
    bucketing to an ID offset, categorical arguments via their variant
    codes.  {!Coverage.t} is a flat [int array] indexed by these IDs,
    and the fuzzer's feedback and test-suite reduction are bit sets over
    them; {!cells} is the inverse mapping queries use to name a cell.

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
    exercises: one per set open flag (after [Open_flags.decompose]'s
    normalization), the mode's bits (or [MODE_0000]) when the call can
    create, one bucket per numeric argument present, and the whence or
    xattr flag.  A [pread64] feeds the same [read.count]/[read.offset]
    cells as a [read].  Allocation-free for every call shape.
    test/partition_oracle.ml's list-building classifier checks it call
    by call. *)

val output_cell :
  Iocov_syscall.Model.base -> Iocov_syscall.Model.outcome -> int
(** Cell ID of the outcome's output partition: the errno's cell, or for
    a success [O_ok], or for a byte-count syscall [O_ok_zero] or the
    log2 bucket of [max 1 n]. *)

val errno_cell : int -> bool
(** Whether cell [id] is the output cell of an error code — the output
    cells the partition yardstick ({!Reduction.partition_cells}) and
    the config matrix count. *)

val crash_cell : Partition.crash_mode -> Partition.crash_outcome -> int
(** Cell ID of a post-crash outcome (DESIGN.md §17): one cell per
    (journal mode, per-file outcome) pair, in a dense block after the
    syscall output cells. *)

val input_cell : Arg_class.arg -> Partition.t -> int option
(** Cell ID of an (argument, partition) pair, by offset arithmetic.
    [None] when the plan has no such cell: a partition of another
    argument's class (a flag of [read.count]), or a bucket past 2^62. *)

val output_partition_cell : Iocov_syscall.Model.base -> Partition.output -> int option
(** Cell ID of a (base, output-partition) pair.  Every base has the full
    output block (success buckets and every errno), so only a success
    bucket past 2^62 has no cell. *)

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
val err0_slot : int
val arg_cells : Arg_class.arg -> int
val crash_off : int
val crash_mode_count : int
val crash_outcome_count : int
val arg_offset : Arg_class.arg -> int
val base_offset : Iocov_syscall.Model.base -> int
val bucket_slot : int -> int
