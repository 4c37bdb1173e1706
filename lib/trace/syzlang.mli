(** Syzkaller program adapter.

    The paper's future work: "For different fuzzers, IOCov needs to apply
    other techniques to trace fuzzed syscalls.  For example, Syzkaller
    logs syscalls with declarative descriptions, which need to be parsed
    by IOCov."  This module parses the syzlang program format —

    {v
    r0 = openat(0xffffffffffffff9c, &(0x7f0000000000)='./file0\x00', 0x42, 0x1ff)
    pwrite64(r0, &(0x7f0000000040)="deadbeef", 0x4, 0x0)
    lseek(r0, 0x10, 0x1)
    close(r0)
    v}

    — into {!Iocov_syscall.Model.call}s for the 27 modeled syscalls:
    result-register bindings ([r0]) are tracked as symbolic descriptors,
    pointer arguments ([&(0x7f...)=...]) are decoded into pathnames,
    buffer lengths, or structs, and flag/mode/whence integers are decoded
    into their domains.  Unsupported syscalls are skipped (a fuzzed
    program mixes file-system calls with sockets, bpf, ...), and the skip
    list is reported so coverage gaps are never silent.

    Program logs carry no return values, so a parsed program feeds
    {e input} coverage only ([Iocov_pipe.Source.syz], which [iocov syz]
    runs); output coverage needs an executor log, exactly as the paper
    notes. *)

type program = {
  calls : Iocov_syscall.Model.call list;  (** supported calls, in order *)
  skipped : (int * string) list;          (** (line, reason) for the rest *)
}

val parse_line :
  registers:(string, int) Hashtbl.t -> string ->
  (Iocov_syscall.Model.call option, string) result
(** Parse one program line.  [Ok None] for blank lines, comments, and
    unsupported syscalls; [Error] for a supported syscall whose arguments
    cannot be decoded.  [registers] accumulates [rN] bindings: a binding
    of a supported open-family call maps [rN] to a synthetic descriptor
    number used when [rN] later appears in fd position. *)

val parse_program : string -> (program, string) result
(** Parse a whole program (one call per line).  Only syntactically
    malformed {e supported} calls fail the parse. *)
