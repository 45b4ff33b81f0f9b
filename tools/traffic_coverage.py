#!/usr/bin/env python3
"""Which library code does the benchmark's traffic reach?

    python3 tools/traffic_coverage.py [--seconds 8] [--seed 3]

Builds perfbench with gcc's --coverage through perfbench/run.py's own
build() into .coverage_build/, runs stream, drill and cold once each for
--seconds, then runs gcov over the library's objects. For every file
under src/ it prints the executable lines no workload executed and the
functions no workload entered, so a path the benchmark never reaches
shows up by name. Counts are summed over all translation units, and a
function counts as entered when any of its lines ran, so one the
optimizer inlined everywhere is not reported (its opening and closing
lines may still count as unexecuted).

perfbench/run.py is imported, never written to (no bytecode cache); the
coverage flags reach its first configure through CXXFLAGS and LDFLAGS.
The build directory is reused across calls (only stale counters are
deleted before the runs). Needs cmake, a gcc toolchain and gcov.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stream", "drill", "cold")
BUILD_DIR = ".coverage_build"

os.environ["CARGO_TARGET_DIR"] = BUILD_DIR
os.environ["CXXFLAGS"] = "--coverage"
os.environ["LDFLAGS"] = "--coverage"
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench  # noqa: E402


def collect(out):
    """Runs gcov on every counter file of the library; returns per source
    file {line: count} and {(function, start line): entries}."""
    lines = defaultdict(lambda: defaultdict(int))
    functions = defaultdict(lambda: defaultdict(int))
    src = ROOT / "src"
    for gcda in sorted((out / "regcube").rglob("*.gcda")):
        proc = subprocess.run(["gcov", "--json-format", "--stdout", gcda.name],
                              cwd=gcda.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"traffic_coverage: gcov failed on {gcda}", file=sys.stderr)
            continue
        for doc in proc.stdout.splitlines():
            if not doc.strip():
                continue
            for entry in json.loads(doc)["files"]:
                path = Path(entry["file"])
                if not path.is_absolute():
                    path = (gcda.parent / path).resolve()
                if src not in path.parents:
                    continue
                name = str(path.relative_to(ROOT))
                keys = {}
                for fn in entry["functions"]:
                    key = (fn["demangled_name"], fn["start_line"])
                    keys[fn["name"]] = key
                    functions[name][key] += fn["execution_count"]
                for line in entry["lines"]:
                    lines[name][line["line_number"]] += line["count"]
                    # A function inlined into its callers keeps a zero
                    # entry count; its executed lines show it ran.
                    key = keys.get(line.get("function_name"))
                    if key is not None:
                        functions[name][key] += line["count"]
    return lines, functions


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    if shutil.which("gcov") is None:
        print("traffic_coverage: gcov not found", file=sys.stderr)
        return 1

    binary = perfbench.build()
    if binary is None:
        print("traffic_coverage: build failed", file=sys.stderr)
        return 1
    out = perfbench.build_dir()
    for gcda in out.rglob("*.gcda"):
        gcda.unlink()
    ok = True
    for workload in WORKLOADS:
        print(f"traffic_coverage: running {workload}", file=sys.stderr)
        code, _ = perfbench.run(binary, workload, args.seed, args.seconds, 0,
                                echo=False)
        shutil.rmtree(out / f"work-{os.getpid()}", ignore_errors=True)
        if code != 0:
            print(f"traffic_coverage: {workload} exited with {code}",
                  file=sys.stderr)
            ok = False

    lines, functions = collect(out)
    print(f"# {','.join(WORKLOADS)}, seed {args.seed}, "
          f"{args.seconds} s each: per file under src/, executable lines "
          f"never executed and functions never entered")
    total_missed = total_lines = 0
    for name in sorted(set(lines) | set(functions)):
        missed = sorted(n for n, c in lines[name].items() if c == 0)
        total_missed += len(missed)
        total_lines += len(lines[name])
        never = sorted((line, fn) for (fn, line), c in
                       functions[name].items() if c == 0)
        print(f"{name}: {len(missed)}/{len(lines[name])} lines unexecuted, "
              f"{len(never)} functions never entered")
        for line, fn in never:
            print(f"    {name}:{line} {fn}")
    print(f"# total: {total_missed}/{total_lines} lines unexecuted")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
