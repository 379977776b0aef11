#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the INCA simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Builds the simulator library and the perfbench binary from source (into
.bench_build/ at the repository root, or $CARGO_TARGET_DIR when set),
then runs one workload in its own process with INCA_NUM_THREADS pinned.
Untraced runs (--trace 0) report the end-to-end metrics of
BENCHMARK.json; traced runs (--trace 1) report its per-layer metrics.
Every run checks the simulated outputs: the binary's invariants, equal
digests across the run's operations, and, at the reference seeds in
reference_digests.json, the recorded digest.

The human-readable report goes to stdout; the last line is one JSON
object with the keys correct, attempted, failed and metrics. See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Pool size for every run: fixed, so host time is comparable between
# commits, and no larger than the cores of the 4-core reference host.
THREADS = 2
# Process starts whose set-up time is measured besides the main run's;
# setup_s is the median of all of them.
SETUP_STARTS = 10
# Each run must end within 180 s; leave room for start-up and output.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must be a whole number below 2^64")
    if not args.seconds > 0:
        fail("--seconds must be positive")
    return args


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configure (once) and build the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    exe = out / "perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def clean_env():
    """The binary's environment: no inherited INCA_* switches
    (tracing, metrics export, cache or ISA overrides), pinned pool."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("INCA_")}
    env["INCA_NUM_THREADS"] = str(THREADS)
    return env


def run_binary(exe, args, env, deadline):
    """Run the binary once; returns (stdout lines, last-line JSON)."""
    cmd = [str(exe)] + args + ["--spawn-time", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("perfbench binary timed out")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench binary exited with code {proc.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("perfbench binary printed no JSON result")


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    args = parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")

    out = build_dir()
    exe = build(out)
    artifacts = out / "out"
    artifacts.mkdir(parents=True, exist_ok=True)
    env = clean_env()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--out", str(artifacts)]

    setups = []
    if args.trace == "0":
        for _ in range(SETUP_STARTS):
            _, res = run_binary(exe, common + ["--trace", "0",
                                               "--setup-only", "1"],
                                env, deadline)
            setups.append(res["setup_s"])
    lines, res = run_binary(exe, common + ["--trace", args.trace], env,
                            deadline)
    for line in lines:
        print(line)

    metrics = {name: dict(m) for name, m in res["metrics"].items()}
    if args.trace == "0":
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        print(f"  setup_s median of {len(setups)} process starts: "
              f"{metrics['setup_s']['value']:.6f} s "
              f"(min {min(setups):.6f}, max {max(setups):.6f})")
    want = expected_metrics(spec, args.trace == "1")
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        fail(f"metric set differs from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            fail(f"metric {name} is not finite")

    refs = json.loads((BENCH_DIR / "reference_digests.json").read_text())
    ref = refs.get(args.workload, {}).get(str(args.seed))
    ops = res["ops"]
    failed = 0
    for i, op in enumerate(ops):
        problems = list(op["failures"])
        if op["digest"] != ops[0]["digest"]:
            problems.append(f"digest {op['digest']} differs from the "
                            f"run's first operation {ops[0]['digest']}")
        if ref is not None and op["digest"] != ref:
            problems.append(f"digest {op['digest']} differs from the "
                            f"reference {ref} for seed {args.seed}")
        for p in problems:
            print(f"CHECK FAILED (operation {i}): {p}")
        failed += 1 if problems else 0
    print(f"  output checks: {len(ops) - failed}/{len(ops)} operations "
          f"passed" + (" (reference digest compared)" if ref else ""))

    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
