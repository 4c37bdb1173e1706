(** A syscall fuzzer with pluggable coverage feedback.

    The paper's future work plans to "evaluate fuzzing systems" with
    IOCov, and its related-work section observes that fuzzers maximize
    {e path} coverage, which "has drawbacks — missing bugs — similar to
    code-coverage methods".  This module makes that comparison concrete:
    one mutation engine, two feedback signals.

    - {!Outcome_novelty} keeps a mutant when it reaches a previously
      unseen (syscall, outcome-class) pair — the closest analogue of
      path/edge novelty our substrate can express.
    - {!Partition_novelty} keeps a mutant when it covers a previously
      untested {e input or output partition} — fuzzing guided by the
      paper's own metric.

    Both runs are measured with the same yardstick (distinct partitions
    covered as a function of executions), so the growth curves are
    directly comparable. *)

type feedback =
  | Outcome_novelty
  | Partition_novelty

val feedback_name : feedback -> string

type result = {
  feedback : feedback;
  executions : int;
  corpus_size : int;            (** programs retained by the feedback *)
  coverage : Iocov_core.Coverage.t;  (** accumulated over every execution *)
  growth : (int * int) list;
      (** (executions, distinct input+output partitions covered) samples,
          ascending — the coverage-growth curve *)
  crashes : int;
      (** executions that tripped an oracle (injected-fault runs only) *)
}

val covered_partitions : Iocov_core.Coverage.t -> int
(** The yardstick: distinct input partitions plus distinct error-output
    partitions with non-zero frequency — the length of
    {!Iocov_core.Reduction.partition_cells}. *)

type novelty
(** A feedback's memory: the bit set of integer keys seen so far. *)

val novelty : feedback -> novelty
(** Fresh memory for one feedback signal: nothing seen. *)

val interesting :
  novelty -> (Iocov_syscall.Model.call * Iocov_syscall.Model.outcome) list -> bool
(** Mark every key the observations reach, and say whether any was
    unseen.  {!Partition_novelty} keys on the {!Iocov_core.Plan} cell
    IDs of every input partition ({!Iocov_core.Plan.iter_input_slots})
    and of the output partition ({!Iocov_core.Plan.output_cell}), the
    mapping the coverage counters use; {!Outcome_novelty} on one
    (variant, success-or-errno) slot per call. *)

val run :
  ?seed:int -> ?budget:int -> ?faults:Iocov_vfs.Fault.t list ->
  ?config:Iocov_vfs.Config.t -> feedback:feedback -> unit -> result
(** Fuzz for [budget] program executions (default 2000; 0 runs none).
    Deterministic for fixed seed/budget/faults.  A mutant joins the
    corpus when {!interesting} says so.  Raises [Invalid_argument] if
    [budget] is negative. *)

val compare_feedbacks :
  ?seed:int -> ?budget:int -> unit -> result * result
(** (outcome-novelty, partition-novelty) under identical settings. *)
