(** The IOCov-guided differential tester (the paper's Section 6: "We are
    currently developing a differential-testing-based file system tester
    utilizing IOCov").

    Two file systems run the same probes: a reference and a victim with
    one injected {!Iocov_vfs.Fault.t}.  A fault is {e detected} when some
    probe observes different behaviour on the two.  Two probe-generation
    strategies are compared:

    - {!Code_coverage_style} exercises the same code paths a
      line-coverage-oriented suite does — common flags, mid-range sizes,
      successful paths.  It reaches high code coverage of the modeled
      file system yet misses input/output-boundary bugs.
    - {!Iocov_guided} drives exactly the partitions IOCov reports as
      untested or boundary: size 0 and maximum sizes, every flag
      (including the never-tested [O_LARGEFILE]), every [whence], error
      provocations, and crash probes.

    This is the causal demonstration behind Figure 1's argument: the
    same bug, invisible to code-coverage-satisfying tests, falls to
    input/output-coverage-guided ones. *)

type strategy = Code_coverage_style | Iocov_guided

val strategy_name : strategy -> string

type report = {
  fault : Iocov_vfs.Fault.t;
  strategy : strategy;
  detected : bool;
  first_detection : int option;  (** index of the first revealing probe *)
  probes_run : int;
}

val hunt :
  ?seed:int -> ?budget:int -> strategy:strategy -> Iocov_vfs.Fault.t -> report
(** Hunt one fault with one strategy.  [budget] caps the number of
    probes (default 64; 0 runs none).  Raises [Invalid_argument] if
    [budget] is negative. *)

val campaign : ?seed:int -> ?budget:int -> unit -> report list
(** Every injectable fault crossed with both strategies. *)

val render : report list -> string
(** Fault-by-strategy detection matrix. *)

val detection_rate : report list -> strategy -> float
(** Fraction of faults the strategy detected, in [0, 1]. *)
