(* Run one suite with each coverage counter backend and prove the
   dense/reference equivalence end to end: same snapshot bytes, same
   report text, from the compiled-plan integer counters and from the
   reference hashed histograms.

     dune exec examples/dense_counters.exe -- 0.1   # scale

   Exits 1 on any divergence, so this doubles as a smoke test (wired
   into dune runtest at a small scale). *)

module Runner = Iocov_suites.Runner
module Replay = Iocov_par.Replay
module Snapshot = Iocov_core.Snapshot
module Report = Iocov_core.Report
module Ascii = Iocov_util.Ascii

let () =
  let scale = if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 0.1 in
  let seed = 42 in
  let run counters = Runner.run ~seed ~scale ~counters Runner.Xfstests in
  let dense = run Replay.Dense in
  Printf.printf "dense:     %s events (%s kept) in %.2fs\n"
    (Ascii.si_count dense.Runner.events_total)
    (Ascii.si_count dense.Runner.events_kept)
    dense.Runner.elapsed_s;
  let reference = run Replay.Reference in
  Printf.printf "reference: %s events (%s kept) in %.2fs\n"
    (Ascii.si_count reference.Runner.events_total)
    (Ascii.si_count reference.Runner.events_kept)
    reference.Runner.elapsed_s;
  let same_snapshot = Snapshot.equal dense.Runner.coverage reference.Runner.coverage in
  let same_report =
    Report.suite_summary ~name:"xfstests" dense.Runner.coverage
    = Report.suite_summary ~name:"xfstests" reference.Runner.coverage
  in
  Printf.printf "snapshot %s, report %s\n"
    (if same_snapshot then "identical" else "DIFFERS")
    (if same_report then "identical" else "DIFFERS");
  exit (if same_snapshot && same_report then 0 else 1)
