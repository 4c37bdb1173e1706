#!/bin/sh
# The one-command gate: build everything, run the full alcotest suite
# (which includes the example smoke rules via the runtest alias),
# exercise the flight-recorder CLI surface end to end on a tiny trace,
# and run the benchmark's self-check plus one short run per workload.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

# pin MD5 CMD...: CMD's stdout must hash to MD5
pin() {
  want=$1
  shift
  got=$("$@" | md5sum | cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "error: $* printed md5 $got, expected $want" >&2
    exit 1
  fi
}

echo "== trace format gate =="
# fails if the v3 trace grows past its byte bound, or the text/v3
# snapshot differential diverges (the scanner's differential against
# its Scanf oracle runs in dune runtest); run from $tmp, like every
# bench step, so nothing it writes lands in the checkout
(cd "$tmp" && "$root/_build/default/bench/main.exe" --format-bench > /dev/null)

echo "== suite text traces are pinned =="
# every byte the text writer emits for the three suites at two seeds;
# a mask that the flag names reproduce prints without a |0x suffix
for spec in xfstests:42:e365218c9dec74864b37a5b1e522c6eb \
  xfstests:7:ecade54c05f93ea5f2620cf925ed4940 \
  crashmonkey:42:c768e52a17852c98ad5f4dd39fc81733 \
  crashmonkey:7:cdf4427c399ab323d9b884a65ced8136 \
  ltp:42:6f6d16d469be82f285b2b3e6c7efaf8b \
  ltp:7:aa05125888b700aebf7a2970b7550430; do
  suite=${spec%%:*}
  rest=${spec#*:}
  dune exec bin/iocov.exe -- trace "$suite" --seed "${rest%%:*}" -o "$tmp/pinned.trace" \
    > /dev/null
  pin "${rest#*:}" cat "$tmp/pinned.trace"
done

echo "== flight-recorder CLI smoke =="
dune exec bin/iocov.exe -- trace xfstests --binary -o "$tmp/t.bin" --seed 7 \
  --scale 0.05 > /dev/null
dune exec bin/iocov.exe -- analyze "$tmp/t.bin" \
  --trace-out "$tmp/timeline.json" --progress=100 --ledger "$tmp/ledger" \
  > /dev/null 2> /dev/null
dune exec bin/iocov.exe -- analyze "$tmp/t.bin" \
  --ledger "$tmp/ledger" > /dev/null 2> /dev/null
grep -q traceEvents "$tmp/timeline.json"
dune exec bin/iocov.exe -- runs list --ledger "$tmp/ledger" > /dev/null
dune exec bin/iocov.exe -- runs diff 1 2 --ledger "$tmp/ledger" \
  | grep -q "identical"
# the live suite run and an analyze of its trace are two roads to one
# result: same digest, same record and kept counts.  They get a ledger
# of their own so the run ids above and below stay valid.
dune exec bin/iocov.exe -- suite xfstests --seed 7 --scale 0.05 \
  --ledger "$tmp/roads" > /dev/null
dune exec bin/iocov.exe -- analyze "$tmp/t.bin" --ledger "$tmp/roads" > /dev/null
dune exec bin/iocov.exe -- runs diff 1 2 --ledger "$tmp/roads" | grep -q "identical"
live=$(dune exec bin/iocov.exe -- runs show 1 --ledger "$tmp/roads" | grep "^events")
traced=$(dune exec bin/iocov.exe -- runs show 2 --ledger "$tmp/roads" | grep "^events")
[ "$live" = "$traced" ]

echo "== ledger before stdout =="
# run commands append their ledger record before they print, so a
# reader that hangs up early (SIGPIPE) cannot cost the run its record;
# every run gets a ledger of its own and must leave r1 in it
for i in 1 2 3 4 5; do
  dune exec bin/iocov.exe -- suite xfstests --seed 7 --scale 0.05 \
    --ledger "$tmp/early-suite-$i" | head -c 10 > /dev/null
  dune exec bin/iocov.exe -- runs list --ledger "$tmp/early-suite-$i" | grep -q "^r1 "
  dune exec bin/iocov.exe -- analyze "$tmp/t.bin" --ledger "$tmp/early-analyze-$i" \
    | head -c 10 > /dev/null
  dune exec bin/iocov.exe -- runs list --ledger "$tmp/early-analyze-$i" | grep -q "^r1 "
done

echo "== report refuses a bad snapshot =="
# a missing header, then three well-formed cells the partition plan has
# no counter for: each is refused by line, with nothing on stdout
printf 'input write.count 2^70 1\n' > "$tmp/bad.snap"
if dune exec bin/iocov.exe -- report "$tmp/bad.snap" > "$tmp/report.out" 2> /dev/null; then
  echo "error: iocov report exited 0 on a bad snapshot" >&2
  exit 1
fi
[ ! -s "$tmp/report.out" ]
for cell in 'input write.count 2^70' 'input read.count O_CREAT' 'output read OK:2^63'; do
  printf 'iocov-coverage v1\n%s 1\n' "$cell" > "$tmp/bad.snap"
  if dune exec bin/iocov.exe -- report "$tmp/bad.snap" > "$tmp/report.out" \
    2> "$tmp/report.err"; then
    echo "error: iocov report exited 0 on out-of-plan cell $cell" >&2
    exit 1
  fi
  [ ! -s "$tmp/report.out" ]
  grep -q "line" "$tmp/report.err"
done

echo "== digest is the CRC-32 of the saved snapshot =="
# the ledger digest is the plain CRC-32 of the snapshot text, with no
# version tag, so every record ever written still compares
dune exec bin/iocov.exe -- analyze "$tmp/t.bin" --save "$tmp/s.snap" \
  --ledger "$tmp/crc" > /dev/null
saved=$(python3 -c 'import sys, zlib; print("%08x" % zlib.crc32(open(sys.argv[1], "rb").read()))' \
  "$tmp/s.snap")
recorded=$(dune exec bin/iocov.exe -- runs show 1 --ledger "$tmp/crc" \
  | awk '$1 == "digest" { print $2 }')
[ "$saved" = "$recorded" ]

echo "== ledger numbering after a torn tail =="
# cut 20 bytes off the second record: the next run is numbered from
# the last readable record, so it is a new r2, and the torn line is
# counted, not fatal
dune exec bin/iocov.exe -- analyze "$tmp/t.bin" --ledger "$tmp/torn" > /dev/null
dune exec bin/iocov.exe -- analyze "$tmp/t.bin" --ledger "$tmp/torn" > /dev/null
python3 -c 'import os, sys; p = sys.argv[1]; os.truncate(p, os.path.getsize(p) - 20)' \
  "$tmp/torn/runs.jsonl"
dune exec bin/iocov.exe -- analyze "$tmp/t.bin" --ledger "$tmp/torn" > /dev/null
dune exec bin/iocov.exe -- runs list --ledger "$tmp/torn" > "$tmp/torn.out"
[ "$(grep -c "^r[0-9]" "$tmp/torn.out")" = 2 ]
grep -q "^r2 " "$tmp/torn.out"
grep -q "(1 unreadable line skipped)" "$tmp/torn.out"

echo "== serve smoke =="
# daemon up, two tenants stream the same trace, queries answer from
# epoch snapshots, and the per-tenant ledger records are byte-identical
# to the offline analyze of that trace
sock="$tmp/iocov.sock"
dune exec bin/iocov.exe -- serve --socket "$sock" --ledger "$tmp/ledger" \
  > "$tmp/serve.out" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
[ -S "$sock" ]
dune exec bin/iocov.exe -- ingest --socket "$sock" --tenant alice "$tmp/t.bin" \
  > /dev/null
dune exec bin/iocov.exe -- ingest --socket "$sock" --tenant bob "$tmp/t.bin" \
  > /dev/null
# clients that hang up while their replies are still being written must
# end only their own connections, never the daemon (SIGPIPE)
python3 - "$sock" <<'EOF'
import socket, sys
for _ in range(50):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(sys.argv[1])
    s.sendall(b"iocov-serve/1 query\n" + b"ping\n" * 2000)
    s.close()
EOF
dune exec bin/iocov.exe -- query --socket "$sock" ping | grep -q pong
dune exec bin/iocov.exe -- query --socket "$sock" --tenant alice digest stats \
  > /dev/null
dune exec bin/iocov.exe -- query --socket "$sock" shutdown > /dev/null
wait "$serve_pid"
# serve appended r3 (alice) and r4 (bob); both must cover the exact
# cells the offline analyze (r1) covered
dune exec bin/iocov.exe -- runs diff 1 3 --ledger "$tmp/ledger" \
  | grep -q "identical"
dune exec bin/iocov.exe -- runs diff 1 4 --ledger "$tmp/ledger" \
  | grep -q "identical"
dune exec bin/iocov.exe -- runs list --last 2 --ledger "$tmp/ledger" \
  | grep -q "alice"
# a text tenant: the same trace as text, one record indented, goes
# through the line reader analyze uses, so its record must equal the
# analyze of t.bin; a ledger of its own keeps the run ids above and
# below valid
dune exec bin/iocov.exe -- trace xfstests --seed 7 --scale 0.05 -o "$tmp/t.txt" \
  > /dev/null
awk 'NR == 2 { $0 = "  " $0 } { print }' "$tmp/t.txt" > "$tmp/t-indented.txt"
dune exec bin/iocov.exe -- analyze "$tmp/t.bin" --ledger "$tmp/serve-text" > /dev/null
sock="$tmp/iocov-text.sock"
dune exec bin/iocov.exe -- serve --socket "$sock" --ledger "$tmp/serve-text" \
  > "$tmp/serve-text.out" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
[ -S "$sock" ]
dune exec bin/iocov.exe -- ingest --socket "$sock" --tenant carol "$tmp/t-indented.txt" \
  > /dev/null
dune exec bin/iocov.exe -- query --socket "$sock" shutdown > /dev/null
wait "$serve_pid"
dune exec bin/iocov.exe -- runs diff 1 2 --ledger "$tmp/serve-text" | grep -q "identical"

echo "== crash oracle gate =="
# both differential directions: a clean run must report zero
# fsync-durability violations (iocov crash exits non-zero otherwise),
# and with the buggy fsync planted the oracle must catch the dropped
# data (iocov crash exits non-zero if nothing is caught); the
# bounded-vs-brute-force equivalence runs under dune runtest via
# examples/crash_replay
dune exec bin/iocov.exe -- crash --bound 2 --save "$tmp/crash.snap" \
  --ledger "$tmp/ledger" > "$tmp/crash.out"
grep -q "15/15 lit" "$tmp/crash.out"
grep -q "^crash " "$tmp/crash.snap"
dune exec bin/iocov.exe -- crash --bound 6 --workload append-fsync \
  --fault fsync_skips_data --ledger "$tmp/ledger" \
  | grep -q "bugs found, as injected"

echo "== config lattice gate =="
# the off-default errno surface (>= 5 errno cells reachable only off
# the default point); E18 writes BENCH_config.json into its working directory, so it runs in
# $tmp and leaves the committed file alone
(cd "$tmp" && "$root/_build/default/bench/main.exe" --config-bench > /dev/null)

echo "== config lattice CLI smoke =="
# a two-point sweep prints the per-config matrix and the differential
# view, and its ledger records carry the lattice point
dune exec bin/iocov.exe -- suite ltp --scale 0.2 --configs default,tiny-quota \
  --config-diff --ledger "$tmp/ledger" > "$tmp/configs.out"
grep -q "Config matrix" "$tmp/configs.out"
grep -q "Config diff" "$tmp/configs.out"
dune exec bin/iocov.exe -- runs list --ledger "$tmp/ledger" | grep -q "tiny-quota"
# records 7 (default) and 8 (tiny-quota) were run under different
# configs: diff must refuse without --cross-config and work with it
if dune exec bin/iocov.exe -- runs diff 7 8 --ledger "$tmp/ledger" \
  > /dev/null 2>&1; then
  echo "error: cross-config runs diff was not refused" >&2
  exit 1
fi
dune exec bin/iocov.exe -- runs diff 7 8 --cross-config --ledger "$tmp/ledger" \
  > /dev/null

echo "== fuzzer and reduction output is pinned =="
# fuzz feedback and test-suite reduction key plan cell ids; what they
# print is pinned to the md5s it had when both keyed string tables
pin e2cef009570d012a9aee1bfe28099a8d dune exec bin/iocov.exe -- fuzz --compare --seed 42
pin 36c6519d198e576fb1b1bea99b025a39 dune exec bin/iocov.exe -- fuzz --compare --seed 7
(cd "$tmp" && pin 5568dc4cbb92e6a0fca9729467ad6f67 \
  "$root/_build/default/bench/main.exe" --only fuzzer --only reduction)
# a negative budget is a usage error that names the flag
for cmd in fuzz differential; do
  if dune exec bin/iocov.exe -- "$cmd" --budget=-1 > /dev/null 2> "$tmp/budget.err"; then
    echo "error: iocov $cmd accepted a negative --budget" >&2
    exit 1
  fi
  grep -q -- "--budget" "$tmp/budget.err"
done

echo "== benchmark gate =="
# the benchmark's own planted-defect self-check, then one short run of
# each workload: every run must check out correct with no failed
# operation (the last output line is the run's JSON result)
python3 perfbench/run.py --self-check > /dev/null
for w in live-xfstests lattice-crashmonkey replay-v3 serve-poll; do
  python3 perfbench/run.py --workload "$w" --seed 42 --seconds 1 --trace 0 \
    > "$tmp/bench.out"
  tail -n 1 "$tmp/bench.out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("benchmark workload %s: correct=%s failed=%s"
             % (sys.argv[1], r.get("correct"), r.get("failed")))' "$w"
done

echo "all checks passed"
