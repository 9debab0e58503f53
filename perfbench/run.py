#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <svc-paced|svc-burst|alg-batch> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (perfbench/Cargo.toml) in release mode,
offline, into $CARGO_TARGET_DIR (default perfbench/target), then runs it.
Build output goes to stderr, so the last line of stdout is the JSON result.

An untraced run (`--trace 0`) is split into PARTS processes of
seconds/PARTS each, on the same inputs, and every metric is reported as
the median over the parts. A process carries state that lasts its whole
life and moves its timings by several percent (where the scheduler puts
its threads, how its memory is laid out); the median over fresh processes
keeps that out of the result. A traced run is one process.

Exits non-zero on a build failure, a bad argument, a crashed part or an
oracle mismatch.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PARTS = 5
# A run measures for --seconds (at most 60) plus set-up; anything near
# this is a hang, and the process is stopped.
RUN_TIMEOUT_S = 170
METRIC = re.compile(r"^metric (\S+) = (\S+) (\S+)(?: \(n=(\d+)\))?$")


def git_rev():
    """The checked-out commit, read from .git without running git (so
    nothing outside the working directory is consulted); "unknown" in a
    tree that is not a git checkout."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def flag(args, name):
    """The value after `name` in `args`, or None."""
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def run_part(cmd, env, deadline):
    """Run one benchmark process; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, []
    return proc.returncode, out.splitlines()


def aggregate(results):
    """Median of every metric line and JSON metric over the parts."""
    lines, order = {}, []
    for _, out in results:
        for line in out:
            m = METRIC.match(line)
            if m:
                name, value, unit, n = m.groups()
                if name not in lines:
                    order.append(name)
                    lines[name] = (unit, [], 0)
                unit, values, total = lines[name]
                lines[name] = (unit, values + [float(value)], total + int(n or 0))
    for name in order:
        unit, values, total = lines[name]
        n = f" (n={total})" if total else ""
        print(f"metric {name} = {statistics.median(values)} {unit}{n} [median of {len(values)} parts]")

    finals = [json.loads(out[-1]) for _, out in results]
    metrics = {}
    for name, m in finals[0]["metrics"].items():
        values = [f["metrics"][name]["value"] for f in finals]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    return {
        "correct": all(f["correct"] for f in finals),
        "attempted": sum(f["attempted"] for f in finals),
        "failed": sum(f["failed"] for f in finals),
        "metrics": metrics,
    }


def main():
    args = sys.argv[1:]
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    env["PERFBENCH_GIT_REV"] = git_rev()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if flag(args, "--trace") == "1":
        code, out = run_part([binary] + args, env, deadline)
        print("\n".join(out))
        return code

    try:
        seconds = float(flag(args, "--seconds") or "10")
    except ValueError:
        seconds = -1.0
    if not 0 < seconds <= 600:
        print("perfbench: --seconds must be in (0, 600]", file=sys.stderr)
        return 2
    part_args = list(args)
    if "--seconds" in part_args:
        i = part_args.index("--seconds")
        del part_args[i : i + 2]
    part_args += ["--seconds", str(seconds / PARTS)]
    results = []
    for _ in range(PARTS):
        code, out = run_part([binary] + part_args, env, deadline)
        if not out or not out[-1].startswith("{"):
            return code or 1
        results.append((code, out))
    print(results[0][1][0])  # the provenance line
    print(f"parts {PARTS} x {seconds / PARTS} s")
    result = aggregate(results)
    print(json.dumps(result))
    return max(code for code, _ in results)


if __name__ == "__main__":
    sys.exit(main())
