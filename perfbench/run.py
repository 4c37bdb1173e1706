#!/usr/bin/env python3
"""Build and run iocov's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run it from the root of a checkout.  It builds perfbench/iocov_bench.exe
with dune against the checkout's own libraries, then runs it; the last
line of standard output is the result JSON.  The exit code is the
benchmark's: 0 when every correctness check passed, 1 when one failed,
2 on a usage or harness error (a failed build, a run past its timeout).

--self-check plants each defect the correctness checks exist for (a
flipped byte in a stored trace, a wrong expected digest) and confirms
that each makes the benchmark report a failed run, while the same runs
without a plant pass.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "iocov_bench.exe")
BUILD_TIMEOUT_S = 850


def run_timeout(seconds):
    """Time a run may take: its timed phase three times over, plus set-up and checks."""
    return 3 * seconds + 120


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    """dune on PATH, else the newest opam switch's; the environment to build with."""
    env = dict(os.environ)
    dune = shutil.which("dune")
    if dune:
        return dune, env
    root = os.environ.get("OPAMROOT") or os.path.expanduser("~/.opam")
    candidates = sorted(glob.glob(os.path.join(root, "*", "bin", "dune")), key=os.path.getmtime)
    if not candidates:
        fail("dune not found on PATH or in an opam switch")
    dune = candidates[-1]
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    return dune, env


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("perfbench")):
        fail("run from the root of an iocov checkout (dune-project, lib/ and perfbench/ are missing)")
    dune, env = find_dune()
    try:
        done = subprocess.run(
            # no shared cache: the build writes only below the checkout
            [dune, "build", "--root", ".", "--cache", "disabled", "--display", "quiet",
             "perfbench/iocov_bench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run(workload, seed, seconds, trace, plant=None, capture=False):
    """Run the benchmark executable; (exit code, stdout if captured).
    A run that outlives its timeout is a harness error (exit 2), not a
    failed check."""
    args = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if plant:
        args += ["--plant", plant]
    try:
        done = subprocess.run(args, timeout=run_timeout(seconds),
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2, ""
    return done.returncode, done.stdout or ""


def self_check():
    cases = [("replay-v3", "flip-byte"), ("live-xfstests", "wrong-digest")]
    ok = True
    for workload, plant in cases:
        for planted in (None, plant):
            code, out = run(workload, 42, 1, 0, plant=planted, capture=True)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            correct = bool(result and result.get("correct"))
            passed = code == 0 and correct
            expected = planted is None
            verdict = "as expected" if passed == expected else "UNEXPECTED"
            ok = ok and passed == expected
            print("%-14s %-13s -> %s (exit %d): %s" % (
                workload, planted or "no plant", "passed" if passed else "failed run", code, verdict))
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    if a.self_check:
        build()
        sys.exit(self_check())
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")
    build()
    code, _ = run(a.workload, a.seed, a.seconds, a.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
