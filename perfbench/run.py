"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload thrash --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The steps, each in its own process:

1. build: compile (or load) the replay kernel, outside every timing;
2. set-up, ``PROBES`` times: a fresh interpreter imports ``repro``,
   loads the compiled kernel, and generates and stores the workload's
   traces from ``--seed`` in an empty private trace store; ``setup_s``
   is the median;
3. measure: timed passes of the workload against the last probe's
   trace store, then the correctness check, and with ``--trace 1`` the
   traced layer pass.

Everything is written under ``.bench_build/perfbench`` in the checkout;
the private stores are deleted before exit.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; a summary
for people goes to standard error.  The exit code is 0 only when every
cell of every pass was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = HERE / "bench.py"
WORK = ROOT / ".bench_build" / "perfbench"

#: Set-up repetitions per run; ``setup_s`` is their median.  One in
#: six or seven set-ups runs about 40% slow on a shared host; the median
#: of eleven stays put unless six of them do.
PROBES = 11
#: Set-up and measuring are killed if they have not ended this long
#: after the build: a fixed allowance plus ``DEADLINE_FACTOR`` times the
#: nominal length of the measured passes, which grows with ``--seconds``.
DEADLINE_ALLOWANCE_S = 60.0
DEADLINE_FACTOR = 3.0
#: The first run in a checkout may compile the kernel.
BUILD_TIMEOUT_S = 600.0


def _child_env() -> dict:
    """The environment of every child: no inherited ``REPRO_*`` mode."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["REPRO_VECTOR_CACHE"] = str(WORK / "kernel")
    return env


def _run(args: list[str], timeout: float) -> str:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen([sys.executable, str(BENCH), *args],
                            stdout=subprocess.PIPE, env=_child_env(),
                            cwd=ROOT, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{args[0]} timed out after {timeout:.0f} s")
    finally:
        # Pool workers of a failed child must not outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}")
    return out


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _summary(workload: str, result: dict, info: dict, setup: list) -> None:
    err = sys.stderr
    print(f"perfbench {workload}: {info['passes']} passes,"
          f" {result['attempted']} cells checked, {result['failed']} failed"
          f" (failed_frac {info['failed_frac']:.4f}),"
          f" digests: {info['digests']}", file=err)
    print(f"  cell latency samples {info['cell_samples']}, tail is"
          f" rank {info['tail_rank']} (ten or more samples above it);"
          f" median pass {info['host_wall_s']:.4g} s of host time;"
          f" setup_s over {len(setup)} probes", file=err)
    for name, metric in result["metrics"].items():
        print(f"  {name:26s} {metric['value']:.6g} {metric['unit']}", file=err)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(bench.WORKLOADS))
    parser.add_argument("--seed", type=bench.parse_seed, default="default",
                        help="workload seed: a non-negative integer, or"
                             " 'default' for the generators' own seeds")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no program source at src/repro; run from a checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    WORK.mkdir(parents=True, exist_ok=True)
    _run(["build"], BUILD_TIMEOUT_S)
    planned_s = (bench.pass_count(args.workload, args.seconds)
                 * bench.NOMINAL_PASS_S[args.workload])
    deadline = (time.perf_counter() + DEADLINE_ALLOWANCE_S
                + DEADLINE_FACTOR * planned_s)

    tmp = tempfile.mkdtemp(dir=WORK, prefix="run-")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace)]
    try:
        probes = []
        for i in range(PROBES):
            traces = os.path.join(tmp, f"traces{i}")
            probes.append(_last_json(_run(
                ["probe", *common, "--traces", traces],
                deadline - time.perf_counter())))
        measured = _last_json(_run(
            ["measure", *common, "--seconds", str(args.seconds),
             "--traces", traces, "--tmp", tmp],
            deadline - time.perf_counter()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    setup = [p["setup_s"] for p in probes]
    if args.trace:
        metrics = dict(measured["layers"])
        for name in probes[0]["layers"]:
            metrics[name] = (statistics.median(
                p["layers"][name] for p in probes), "s")
        trace_file = WORK / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps(
            {"probes": [p["spans"] for p in probes],
             "measure": measured["spans"]}))
        print(f"perfbench: spans written to {trace_file}", file=sys.stderr)
    else:
        metrics = dict(measured["metrics"])
        metrics["setup_s"] = (statistics.median(setup), "s")
    result = {"correct": measured["correct"],
              "attempted": measured["attempted"],
              "failed": measured["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in sorted(metrics.items())}}
    _summary(args.workload, result, measured["info"], setup)
    print(f"perfbench: {time.perf_counter() - started:.1f} s in all",
          file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
