#!/usr/bin/env python3
"""Build and run the repository's benchmark, then check its result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dp-launch --seed 1 --seconds 25 --trace 0

The binary is built with dune into $CARGO_TARGET_DIR when that is set
(else _build), with dune's shared cache off so nothing is written outside
the checkout. Its stdout is passed through. Before the result line (the
last line) is printed, it is checked against BENCHMARK.json: exactly the
declared end-to-end metrics (--trace 0) or per-layer metrics (--trace 1),
with the declared units, names matching [A-Za-z0-9_.-]+, finite values.
Exits non-zero, without printing a result, when the build, the run or that
check fails; exits 1 after printing it when the run's outputs were wrong.
"""

import json
import math
import os
import re
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or "_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", build_dir(),
           "./perfbench/perfbench.exe"]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir(), "default", "perfbench", "perfbench.exe")


def check(result, trace):
    """The result line's problems, as a list of messages."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    metrics = result["metrics"]
    for name in sorted(set(units) ^ set(metrics)):
        where = "printed but not declared" if name in metrics else "declared but not printed"
        problems.append(f"metric {name}: {where}")
    for name, m in metrics.items():
        if not NAME.fullmatch(name):
            problems.append(f"metric {name}: name outside [A-Za-z0-9_.-]+")
        if name in units and m.get("unit") != units[name]:
            problems.append(f"metric {name}: unit {m.get('unit')}, declared {units[name]}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"metric {name}: value {v!r}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted is {result['attempted']!r}")
    return problems


def run(cmd):
    """Run the benchmark binary in its own process group, so that on a
    timeout its set-up children are killed with it."""
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return p.returncode, out


def main():
    args = sys.argv[1:]
    trace = args[args.index("--trace") + 1 :][:1] == ["1"] if "--trace" in args else False
    code, out = run([build(), *args])
    lines = out.rstrip("\n").split("\n")
    if code not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"run exited with code {code} and no result")
    result = json.loads(lines[-1])
    problems = check(result, trace)
    print("\n".join(lines[:-1]))
    if problems:
        fail("result line does not match BENCHMARK.json:\n  " + "\n  ".join(problems))
    print(lines[-1], flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
