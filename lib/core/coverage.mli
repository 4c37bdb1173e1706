(** The coverage accumulator — IOCov's input/output partitioner.

    Feed it (call, outcome) pairs (from a live tracer sink or a parsed
    trace file); it counts every input and output partition the calls
    hit, with variant merging applied, and answers the untested-partition
    and frequency queries behind every figure in the paper.

    The representation is one flat [int array] indexed by {!Plan} cell
    IDs, plus a small table of exact open-flag {e sets} (their key space
    is unbounded).  [observe] is allocation-free integer arithmetic,
    merging is pointwise array addition, and every query reads a plan
    range. *)

open Iocov_syscall

type t

val create : ?metered:bool -> unit -> t
(** An empty accumulator.  [metered] is ignored; it is kept for
    callers that still pass it ({!observe} never meters). *)

val observe : t -> Model.call -> Model.outcome -> unit
(** Count one traced syscall.  Touches no global metric: whoever owns a
    run's accumulator credits it once with {!meter_counts}. *)

val observe_input_only : t -> Model.call -> unit
(** Count a call whose outcome is unknown — e.g. parsed from a fuzzer's
    declarative program log, which records invocations but not returns.
    Feeds the input side, variant accounting, and flag sets; output
    cells are untouched. *)

val merge_into : dst:t -> t -> unit
(** Pointwise sum — coverage from separate runs composes (a resumed
    prefix and its suffix, serve sessions into a tenant).  Commutative
    and associative (property-tested): merging in any order yields the
    same accumulator. *)

val copy : t -> t
(** A deep copy (counts, flag sets, call count): O(cells).  The serve
    layer's epoch publisher takes one under a lock; readers then render
    from it while ingestion keeps mutating the original. *)

val reset : t -> unit
(** Zero every counter, clear the flag-set table, and reset the call
    count, keeping the allocation.  Lets a streaming session reuse one
    private shard per batch: drain into it, {!merge_into} a shared
    accumulator, reset, repeat. *)

val meter_counts : t -> unit
(** Credit this accumulator's counts to the global [iocov_coverage_*]
    counters in one batch: one call per observed call, and one update
    per variant, input, output and flag-set cell it bumped.  Called
    once per run by the run's owner (the replay engine, the syz driver,
    the fuzzer). *)

val publish_gauges : t -> unit
(** Publish this accumulator's table sizes (arguments and bases with
    observations, distinct partitions, variants, flag sets) as
    [iocov_coverage_*] gauges in {!Iocov_obs.Metrics.default}.
    On-demand rather than streamed: several accumulators can coexist
    (per-test attribution, ablations), and the gauges should describe
    the run's accumulator, not a mixture. *)

(** {2 Input side} *)

val input_count : t -> Arg_class.arg -> Partition.t -> int
(** 0 for a partition the plan has no cell for ({!Plan.input_cell}). *)

val input_histogram : t -> Arg_class.arg -> (Partition.t * int) list
(** Observed partitions with frequencies, ascending by
    {!Partition.compare}. *)

val input_series : t -> Arg_class.arg -> (Partition.t * int) list
(** The whole domain in order, zeros included — figure-ready. *)

val untested_inputs : t -> Arg_class.arg -> Partition.t list
val input_coverage_ratio : t -> Arg_class.arg -> float
(** Fraction of the domain exercised at least once, in [0, 1]. *)

val input_coverage_ratio_of_base : t -> Model.base -> float
(** Mean input-coverage ratio over the base syscall's tracked arguments
    (1.0 for syscalls with none — nothing is missing). *)

(** {2 Output side} *)

val output_count : t -> Model.base -> Partition.output -> int
val output_histogram : t -> Model.base -> (Partition.output * int) list
(** Observed outputs, ascending by {!Partition.compare_output}. *)

val output_series : t -> Model.base -> (Partition.output * int) list
(** Full output domain, zeros included.  Outcomes outside the
    manual-page domain (the paper notes the manual "may not be consistent
    with the actual implementation") still appear, after the domain. *)

val output_series_grouped : t -> Model.base -> ([ `Ok | `Err of Errno.t ] * int) list
(** Figure 4 shape: one ["OK (>= 0)"] column plus one per errno. *)

val untested_outputs : t -> Model.base -> Partition.output list
val output_coverage_ratio : t -> Model.base -> float

(** {2 Call accounting} *)

val calls_observed : t -> int
val base_calls : t -> Model.base -> int
val variant_calls : t -> Model.variant -> int

val open_flag_sets : t -> (Open_flags.t * int) list
(** Exact flag {e sets} of every open observed (mask, frequency),
    ascending by mask — the input to Table 1's combination analysis and
    to the bit-combination extension. *)

val variant_histogram : t -> (Model.variant * int) list
(** Per-variant call counts, ascending. *)

(** {2 Raw counter injection}

    Low-level constructors used by {!Snapshot} to rebuild a coverage from
    stored counters (and by tests to build fixtures).  [count] must be
    non-negative, and the cell must be in the plan ({!Plan.input_cell},
    {!Plan.output_partition_cell}); otherwise [Invalid_argument].  These
    do not touch {!calls_observed}, which {!add_calls} adjusts
    separately. *)

val add_input : t -> Arg_class.arg -> Partition.t -> int -> unit
val add_output : t -> Model.base -> Partition.output -> int -> unit
val add_variant : t -> Model.variant -> int -> unit
val add_flag_set : t -> Open_flags.t -> int -> unit
val add_calls : t -> int -> unit

(** {2 Post-crash outcomes}

    The crash engine's output dimension (DESIGN.md §17): per (journal
    mode, outcome) tallies of how files fared across a simulated power
    cut.  Fed by {!add_crash} — crash observations come from the crash
    engine's classifier, not from the syscall observe path. *)

val add_crash : t -> Partition.crash_mode -> Partition.crash_outcome -> int -> unit
val crash_count : t -> Partition.crash_mode -> Partition.crash_outcome -> int

val crash_observed : t -> int
(** Total (state, file) classifications recorded, all modes. *)

val crash_series :
  t -> ((Partition.crash_mode * Partition.crash_outcome) * int) list
(** The full 15-cell domain in (mode, outcome) order, zeros included. *)

(** {2 Direct cell access}

    The pieces {!observe} is made of, for a fused trace decoder that
    computes cell IDs straight from wire fields ({!Plan}'s raw-field
    slots) without building a [Model.call].  A complete observation is
    one {!count_call}, the variant cell plus every input slot and the
    output cell through {!bumper}'s closure, and — for opens — one
    {!observe_open_mask}. *)

val bumper : t -> int -> unit
(** The accumulator's pre-bound cell incrementer (partial application
    [bumper t] allocates nothing per call). *)

val counts : t -> int array
(** The live counter array itself, indexed by plan cell ID.  Callers
    must only increment entries at valid cell IDs. *)

val count_call : t -> unit
(** Count one observed call ({!calls_observed}). *)

val observe_open_mask : t -> int -> unit
(** Record an exact open flag mask (the unbounded-key-space side
    channel next to the counter array). *)

(** {2 Cell summaries}

    Plan-indexed views of an accumulator, used by the flight recorder's
    run ledger and the live progress sink (DESIGN.md §14). *)

val cell_count : t -> int -> int
(** Observation count of one plan cell, by ID — an array read, cheap
    enough for a live progress peek on the hot path. *)

val lit_cells : t -> int * int * int
(** [(variants, inputs, outputs)]: how many cells of each kind have a
    non-zero count, out of {!Plan.total} cells overall.  Crash cells
    count as outputs. *)

val cell_bitmap : t -> bytes
(** One bit per plan cell (cell [id] at byte [id / 8], bit [id mod 8]),
    set iff the cell has been observed.  [(Plan.total + 7) / 8] bytes —
    the ledger's coverage fingerprint, diffable with XOR. *)

(** {2 Compatibility shim}

    Kept only because the benchmark harness ([perfbench/]) still calls
    these names; nothing in the library, the CLI, the benches or the
    examples uses them. *)

module Dense : sig
  type nonrec t = t

  val create : unit -> t
  val merge_into : dst:t -> t -> unit
  val reset : t -> unit

  val snapshot : t -> t
  (** {!copy}. *)

  val to_reference : t -> t
  (** The identity. *)
end
