"""Benchmark of bjlevel: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 15 --trace 0

Run from the root of a checkout that holds ``src/bjlevel``.  Workloads:
``decide``, ``sweep`` and ``polytope`` (see perfbench/README.md).
Set-up time is measured in several fresh processes and reported as their
median; the timed loop and the output checks run in one more fresh process.
With ``--trace 1`` the run reports the per-layer metrics of a traced pass
instead of the end-to-end metrics.  ``--smoke`` runs every size at its
smallest, for the benchmark's own test.

Every metric is printed as ``name value unit`` before the final JSON line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
TIMEOUT_S = 170  # the whole run must end within 180 s


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("decide", "sweep", "polytope"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def _worker(args, extra: list, deadline: float) -> tuple[dict, list]:
    """Run one worker process; returns its final JSON object and other lines.

    The worker runs in its own process group, so that on a timeout the CLI
    subprocess it may be waiting on is stopped with it.
    """
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.smoke:
        cmd.append("--smoke")
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bjlevel", "__init__.py")):
        print(f"no bjlevel sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    try:
        samples = 1 if args.smoke else SETUP_SAMPLES
        setups = [_worker(args, ["--setup-only"], deadline)[0]["setup_s"] for _ in range(samples)]
        result, lines = _worker(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    for line in lines:
        print(line)
    print(f"setup samples: {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"digest {result['digest']} contract_breaks {result['contract_breaks']}")
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        # Printed for every workload, but not a BENCHMARK.json metric: it
        # is 0 wherever nothing fails, and a ratio of medians needs a nonzero base.
        print(f"fail_ratio {failed / attempted} ratio")
        print(f"contract_break_ratio {result['contract_breaks'] / attempted} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
