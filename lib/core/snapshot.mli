(** Coverage snapshot serialization.

    A trace can be gigabytes; its coverage is a few hundred counters.
    Snapshots store exactly the counters, so coverage can be archived per
    run, diffed across tool versions, and merged across machines — the
    workflow the paper implies when it compares suites "measured once,
    analyzed many ways".

    The format is a line-oriented text file:

    {v
    iocov-coverage v1
    calls 123456
    variant open 100
    input open.flags O_RDONLY 7924
    input write.count 2^12 868
    output open OK 5630
    output open ENOENT 97
    flagset O_RDONLY|O_CREAT 41
    v}

    Unknown line kinds are rejected (no silent drift across versions),
    and so is a cell the partition plan has no counter for, such as
    [input write.count 2^70 1]: no run can observe it. *)

val save : out_channel -> Coverage.t -> unit

val save_file : string -> Coverage.t -> unit

val load : in_channel -> (Coverage.t, string) result
(** Fails with a located message ([line N: ...]) on the first
    malformed line or out-of-plan cell. *)

val load_file : string -> (Coverage.t, string) result

val to_string : Coverage.t -> string

val digest : Coverage.t -> string
(** The CRC-32 of {!to_string} as eight lowercase hex digits, computed
    without building the text: the run ledger's and the serve daemon's
    coverage fingerprint. *)

val of_string : string -> (Coverage.t, string) result

val equal : Coverage.t -> Coverage.t -> bool
(** Equality over every counter a snapshot stores (call count, plan
    cells, flag sets) — the round-trip invariant
    ([equal c (of_string (to_string c))]). *)
