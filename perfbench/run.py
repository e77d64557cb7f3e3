#!/usr/bin/env python3
"""Build and run the EMBA matcher benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run configures and builds
the benchmark (CMake, into .bench_build/perfbench); later runs rebuild only
what changed. The benchmark binary prints a readable report and, as its last
line, one JSON object; this script checks that the object names exactly the
metrics BENCHMARK.json lists for the mode (end-to-end for --trace 0,
per-layer for --trace 1) with the listed units, and prints it last.

--self-test runs every workload briefly in both modes, checks that every
metric is printed with its unit, and checks that a deliberately corrupted
score makes each workload's correctness checks fail, the serving probe's
/match check of traced runs included.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "emba_perfbench"
RUN_TIMEOUT_S = 175


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def source_revision():
    """The git commit when ROOT is a git work tree, else a source digest."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        # A checkout inside some other repository must not report its commit.
        if out.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            return "git:" + lines[1][:12]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:12]


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no EMBA sources in {ROOT}; run from a source checkout")
    if shutil.which("cmake") is None:
        die("cmake is not installed")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("configuring the benchmark failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(BUILD_DIR), "--target", "emba_perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        die("building the benchmark failed", 1)


def run_binary(args, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    env = dict(os.environ, PERFBENCH_SOURCE_REV=source_revision())
    try:
        proc = subprocess.run([str(BINARY), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"the benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    return proc.returncode, lines


def validate(result_line, trace):
    """Parses the result and checks its metric set against BENCHMARK.json."""
    try:
        result = json.loads(result_line)
    except (json.JSONDecodeError, TypeError):
        return None, "the last line is not a JSON object"
    expected = {m["name"]: m["unit"]
                for m in spec()["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, f"unexpected result keys {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        return None, (f"metric set differs from BENCHMARK.json: missing "
                      f"{missing}, extra {extra}, wrong unit {wrong}")
    return result, None


def run(workload, seed, seconds, trace):
    code, lines = run_binary(["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace",
                              "1" if trace else "0"])
    if not lines:
        die("the benchmark printed nothing", 1)
    result, error = validate(lines[-1], trace)
    if error is not None:
        die(error, 1)
    print(json.dumps(result))
    return code, result


def self_test():
    failures = []
    for workload in [w["name"] for w in spec()["workloads"]]:
        for trace in (False, True):
            print(f"== self-test: {workload} trace={int(trace)}", flush=True)
            code, lines = run_binary(
                ["--workload", workload, "--seed", "1", "--seconds", "2",
                 "--trace", "1" if trace else "0"], echo=False)
            result, error = validate(lines[-1] if lines else "", trace)
            if code != 0 or error or not result["correct"]:
                failures.append(f"{workload} trace={int(trace)}: exit {code}, "
                                f"{error or 'checks failed'}")
            else:
                for name, m in result["metrics"].items():
                    print(f"   {name} = {m['value']:.6g} {m['unit']}")
        # Untraced, the workload's own checks must trip; traced, the serving
        # probe's /match check must trip as well.
        for trace, must_name in ((False, None), (True, "/match")):
            print(f"== self-test: {workload} trace={int(trace)} with a "
                  f"corrupted score", flush=True)
            code, lines = run_binary(
                ["--workload", workload, "--seed", "1", "--seconds", "2",
                 "--trace", "1" if trace else "0", "--corrupt-score"],
                echo=False)
            result, error = validate(lines[-1] if lines else "", trace)
            tripped = [l for l in lines if l.startswith("CHECK FAILED")]
            if must_name is not None:
                tripped = [l for l in tripped if must_name in l]
            if code == 0 or error or result["correct"] or not tripped:
                failures.append(f"{workload} trace={int(trace)}: a corrupted "
                                f"score did not trip a check (exit {code})")
            else:
                print("   " + "\n   ".join(tripped))
    for failure in failures:
        print("SELF-TEST FAILED: " + failure)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None or args.seed is None or args.seconds is None:
        die("--workload, --seed and --seconds are required")
    code, _ = run(args.workload, args.seed, args.seconds, args.trace == 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
