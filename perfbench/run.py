#!/usr/bin/env python3
"""Build pinsim's benchmark program and run one workload.

Run from the root of a pinsim checkout:

    python3 perfbench/run.py --workload web-sweep --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (pinsim's src/ plus the
pinbench program, Release) into .bench_build/; later calls only rebuild
what changed. Build output goes to stderr. pinbench's stdout is passed
through; its last line is the result JSON, whose metric names are checked
against BENCHMARK.json before it is printed. Traced runs write their
spans to .bench_build/trace-<workload>-<seed>.jsonl.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("web-sweep", "mpi-sweep", "fleet-serve")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "pinbench"
GOLDENS = HERE / "goldens.txt"
# Headroom past --seconds for the last pass, the probes and the oracle.
GRACE_SECONDS = 120


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def strict_uint(text):
    """Decimal digits only: '4x', '-1', '+3' and ' 7' are usage errors."""
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=strict_uint)
    parser.add_argument("--seconds", type=strict_uint)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--selftest", action="store_true",
                        help="build, then run the benchmark's self-tests")
    args = parser.parse_args()
    if not args.selftest:
        missing = [f"--{name}" for name in ("workload", "seed", "seconds", "trace")
                   if getattr(args, name) is None]
        if missing:
            parser.error("missing " + ", ".join(missing))
        if not 1 <= args.seconds <= 3600:
            parser.error("--seconds must be within 1..3600")
    return args


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no pinsim sources at {ROOT / 'src'}; run from a pinsim checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def commit_id():
    """The git commit when there is one, else a hash of the sources."""
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha1()
    for tree in (ROOT / "src", HERE):
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-" + digest.hexdigest()[:12]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace == "1" else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def main():
    args = parse_args()
    build()
    if args.selftest:
        sys.exit(subprocess.run([str(BINARY), "selftest",
                                 "--goldens", str(GOLDENS)]).returncode)

    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--goldens", str(GOLDENS),
               "--commit", commit_id()]
    if args.trace == "1":
        command += ["--trace-out",
                    str(BUILD / f"trace-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        fail(f"pinbench did not finish within {args.seconds + GRACE_SECONDS} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail(f"pinbench exited with code {run.returncode}")

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != want:
        print("\n".join(lines[:-1]))
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, unexpected "
             f"{sorted(set(got) - set(want))}, unit changes "
             f"{sorted(n for n in set(want) & set(got) if want[n] != got[n])}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
