(** Coverage-preserving test-suite reduction.

    The paper argues IOCov's metrics let developers "design test cases
    that avoid under- or over-testing".  This module is the concrete
    tool: given per-test coverage, pick a small subset of tests whose
    union still covers every partition the full suite covers — the
    classic greedy set-cover approximation (ln n of optimal).

    The result makes over-testing tangible: if 40 of 1000 tests already
    reach every partition, the other 960 only add {e frequency}, not
    {e coverage} — exactly the paper's distinction between testing more
    and testing new things. *)

type item = {
  name : string;
  coverage : Coverage.t;
}

type selection = {
  chosen : string list;          (** selected test names, in pick order *)
  covered : int;                 (** partitions covered by the selection *)
  total_covered : int;           (** partitions covered by the full suite *)
  universe : int;                (** partitions in the whole domain *)
}

val partition_cells : Coverage.t -> int list
(** The covered partitions, as ascending {!Plan} cell IDs: every input
    cell and every error-output cell ({!Plan.errno_cell}) with a
    non-zero count.  Test-suite reduction and the fuzzer's yardstick
    both count partitions this way. *)

val greedy : item list -> selection
(** Greedy set cover: repeatedly pick the test adding the most
    still-uncovered partitions until no test adds any.  Ties break toward
    the earliest item, so the result is deterministic.  Tests are told
    apart by position, so two tests of the same name can both be
    chosen. *)

val render : selection -> string
