#!/usr/bin/env python3
"""Build the regcube benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload stream|drill|cold --seed N \
        --seconds S --trace 0|1

The library is compiled from the checkout's own sources into .bench_build/
(or $CARGO_TARGET_DIR when set) on every call; an up-to-date build is a
no-op. Build output goes to stderr. The benchmark binary's report goes to
stdout, its last line being the JSON result.

    python3 perfbench/run.py --workload drill --seed N --seconds S --overhead

runs the workload untraced and traced on the same seed and prints the
tracing overhead: traced minus untraced, per end-to-end metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path
    or None when the build fails."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(SOURCE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            (out / "CMakeCache.txt").unlink(missing_ok=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)
    binary = out / "perfbench"
    return binary if result.returncode == 0 and binary.exists() else None


def run(binary, workload, seed, seconds, trace, echo=True):
    """Runs the binary; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(build_dir() / f"work-{os.getpid()}")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    return proc.returncode, stdout.splitlines()


def overhead(binary, args):
    """Prints traced minus untraced end-to-end metrics on one seed."""
    code, plain = run(binary, args.workload, args.seed, args.seconds, 0,
                      echo=False)
    if code != 0 or not plain:
        return code or 1
    untraced = json.loads(plain[-1])["metrics"]
    code, traced_lines = run(binary, args.workload, args.seed, args.seconds,
                             1, echo=False)
    if code != 0:
        return code
    prefix = "# e2e-json "
    traced = next(json.loads(line[len(prefix):]) for line in traced_lines
                  if line.startswith(prefix))
    print(f"# tracing overhead, workload {args.workload}, seed {args.seed}")
    print(f"# {'metric':<16} {'untraced':>14} {'traced':>14} "
          f"{'traced-untraced':>16} {'share':>8}")
    for name, metric in untraced.items():
        a, b = metric["value"], traced[name]["value"]
        share = (b - a) / a if a else 0.0
        print(f"# {name:<16} {a:14.6g} {b:14.6g} {b - a:16.6g} "
              f"{share:8.2%} {metric['unit']}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["stream", "drill", "cold"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--overhead", action="store_true",
                        help="print the tracing overhead instead")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.overhead:
        return overhead(binary, args)
    code, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
