(** Input- and output-space partitioning (Section 3).

    Bitmap arguments are partitioned by individual flag (each set flag
    counts its partition); numeric arguments by powers of two with
    dedicated boundary partitions for zero and (where admissible)
    negative values; categorical arguments by value.  Outputs are
    partitioned into success vs. each error code, with byte-count
    successes further split by powers of two.

    This module names partitions and their domains.  Classifying a call
    or an outcome into them is {!Plan}'s job, by cell ID
    ({!Plan.iter_input_slots}, {!Plan.output_cell}). *)

open Iocov_syscall

(** An input partition identifier. *)
type t =
  | P_flag of Open_flags.flag
  | P_mode_bit of Mode.bit
  | P_mode_zero      (** mode 0000 — the boundary "no permission bits" *)
  | P_bucket of Iocov_util.Log2.bucket
  | P_whence of Whence.t
  | P_xflag of Xattr_flag.t

val compare : t -> t -> int
val equal : t -> t -> bool

val label : t -> string
(** Axis label: flag/bit names, ["=0"], ["2^10"], ...  Never contains
    whitespace, so it doubles as the snapshot-format token. *)

val of_label : string -> t option
(** Inverse of {!label}.  Accepts buckets beyond any argument's domain
    (an observed partition need not be a domain member). *)

val domain : Arg_class.arg -> t list
(** The full partition domain of an argument — the denominator for
    untested-partition reports.  Numeric domains span the zero partition
    plus log2 buckets up to the argument's natural width (32 for byte
    counts and offsets — Figure 3's axis — and 16 for xattr value
    sizes), plus the negative partition where the type is signed. *)

(** {2 Outputs} *)

type output =
  | O_ok                 (** success of a non-byte-count syscall *)
  | O_ok_zero            (** byte-count success returning 0 *)
  | O_ok_bucket of int   (** byte-count success in [\[2{^k}, 2{^k+1})] *)
  | O_err of Errno.t

val compare_output : output -> output -> int
val equal_output : output -> output -> bool

val output_label : output -> string
(** ["OK"], ["OK=0"], ["OK 2^5"], or the errno name. *)

val output_token : output -> string
(** Whitespace-free form of {!output_label} (["OK:2^5"]) for the
    snapshot format. *)

val output_of_token : string -> output option
(** Inverse of {!output_token}. *)

val output_domain : Model.base -> output list
(** Success partitions plus each manual-page error code.  For byte-count
    syscalls the success side enumerates [O_ok_zero] and buckets
    [0..32]; the coarse Figure-4 view groups them via
    {!output_success_group}. *)

val output_is_error : output -> bool

val output_success_group : output -> [ `Ok | `Err of Errno.t ]
(** Collapse byte-count success buckets into one ["OK (>= 0)"] column —
    exactly Figure 4's x-axis. *)

(** {2 Post-crash outcomes}

    The crash engine (DESIGN.md §17) adds an output dimension beyond
    the paper's: after a simulated power cut and recovery, every file a
    workload touched lands in exactly one outcome partition, per
    journal mode.  Each (mode, outcome) pair is one plan cell. *)

(** Mirrors {!Iocov_vfs.Config.journal_mode}; duplicated here so the
    core layer stays independent of the VFS. *)
type crash_mode = CM_writeback | CM_ordered | CM_journaled

val all_crash_modes : crash_mode list

val crash_mode_label : crash_mode -> string
(** ["writeback"], ["ordered"], ["journaled"] — whitespace-free, doubles
    as the snapshot token. *)

val crash_mode_of_label : string -> crash_mode option
val crash_mode_index : crash_mode -> int
val compare_crash_mode : crash_mode -> crash_mode -> int

type crash_outcome =
  | C_recovered  (** identical to the last version the workload wrote *)
  | C_torn       (** a state no single workload step ever exposed *)
  | C_lost       (** existed before the crash, gone after recovery *)
  | C_stale      (** matches an earlier (superseded) workload version *)
  | C_errno      (** reopen after recovery fails with an unexpected errno *)

val all_crash_outcomes : crash_outcome list

val crash_outcome_label : crash_outcome -> string
(** ["recovered"], ["torn"], ["lost"], ["stale"], ["errno-on-reopen"]. *)

val crash_outcome_of_label : string -> crash_outcome option
val crash_outcome_index : crash_outcome -> int
val compare_crash_outcome : crash_outcome -> crash_outcome -> int
