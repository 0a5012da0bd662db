#!/usr/bin/env python3
"""Builds the repository benchmark (on first use) and runs one workload.

    python3 benchmark/run.py --workload serve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The library sources under src/ and the
kbench program are compiled into .bench_build/ (or $CARGO_TARGET_DIR when
set) with the repository's Release flags; later runs only rebuild what
changed. kbench prints a detail line, then the result object with its
metrics as name: value; this script checks the names against BENCHMARK.json
(the only list of metrics), attaches their units and prints the result
object as the last line. The exit code is kbench's (0 = correct,
1 = a correctness gate failed), or 2 when the build fails, the command
line is bad, or the metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build(out_dir):
    """Configures (once) and builds the kbench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no library sources at src/ in %s" % ROOT)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    env = scratch_env(out_dir)
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "kbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("run.py: build step failed: %s" % " ".join(step))
            return None
    return os.path.join(out_dir, "kbench")


def scratch_env(out_dir):
    """The environment with TMPDIR inside the build directory, so compiler
    and program temporaries stay inside the checkout."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_spec():
    """BENCHMARK.json, the one list of metric names and units (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        log("run.py: no BENCHMARK.json in %s" % ROOT)
        return None
    with open(path) as f:
        return json.load(f)


def attach_units(result, spec, trace):
    """Turns kbench's {name: value} metrics into {name: {value, unit}}.

    Returns False (after logging why) when a printed name is not declared in
    BENCHMARK.json, a declared end-to-end metric is missing, or a value is
    not a finite number. A traced run reports 0 for a declared per-layer
    metric of a layer its workload does not exercise.
    """
    declared = spec["per_layer" if trace else "end_to_end"]
    values = result["metrics"]
    unknown = sorted(set(values) - {m["name"] for m in declared})
    missing = [] if trace else sorted(
        m["name"] for m in declared if m["name"] not in values)
    not_numbers = sorted(name for name, value in values.items()
                         if not isinstance(value, (int, float)))
    if unknown or missing or not_numbers:
        log("run.py: metrics not in BENCHMARK.json %s, missing %s, "
            "not numbers %s" % (unknown, missing, not_numbers))
        return False
    result["metrics"] = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in declared}
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    if spec is None:
        return 2
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2

    env = dict(scratch_env(out_dir), KBENCH_GIT_SHA=git_sha())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work_dir", os.path.join(out_dir, "work")]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: workload %s did not finish in %ds" % (args.workload,
                                                           RUN_TIMEOUT_S))
        return 2
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        log("run.py: kbench exited with %d" % done.returncode)
        return done.returncode or 2

    result = json.loads(lines[-1])
    if not attach_units(result, spec, bool(args.trace)):
        return 2
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
