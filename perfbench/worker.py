"""One measuring process of the benchmark: set-up, timed loop, checks, trace.

    python3 perfbench/worker.py --workload decide --seed 1 --seconds 15 --trace 0

is started by ``run.py`` from the root of a checkout and prints one JSON
object as its last line.  With ``--setup-only`` it stops after set-up and
reports how long set-up took in this fresh process.

Library calls and set-up are timed in CPU time of this process
(``time.process_time``), not in wall time: the library is single-threaded pure
Python that does no I/O, so the two agree on an idle core, while on a shared
host wall time also counts the time the process waits for a core.  Every time
is then scaled to the reference speed by the reference kernel timed next to
it (``reference.py``), since the speed of the core itself changes.
"""

from __future__ import annotations

import reference

# Speed of the core at process start, before anything of set-up runs.
SETUP_REFERENCE = [reference.sample() for _ in range(10)]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from bisect import bisect_right  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import bjlevel  # noqa: E402
import bjlevel.cli  # noqa: E402

import spans as tracing  # noqa: E402
import workloads  # noqa: E402

# The unwrapped cached functions, whose cache_info() the traced run reads.
POLAR = bjlevel.spaces.polar_vertices
LATTICE = bjlevel.faces.face_lattice
MIN_OPS = 100  # at least ten samples beyond p90
REFERENCE_EVERY_S = 0.02  # CPU seconds of library calls between two reference samples
WALL_LIMIT = 3.0  # the timed loop ends after this many times --seconds of wall time


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def setup(args) -> tuple[list, object]:
    """Generate inputs, build spaces and operators, and warm the caches.

    Returns the first pass and a function that makes the inputs of the next
    pass, or None where every pass repeats the first.  ``decide`` and
    ``sweep`` draw new points and operators for every pass, so that their
    percentiles come from many draws of each kind of call, not from the few
    that one seed makes; ``polytope`` draws a new ball in every execution.
    """
    rng = random.Random(args.seed)
    name = args.workload
    if name == "decide":
        make_pass = workloads.decide_pass
        workloads.decide_warmup()
    elif name == "sweep":
        make_pass = workloads.sweep_pass
        workloads.sweep_warmup(args.smoke)
    else:
        return workloads.polytope_pass(rng, args.smoke), None
    return make_pass(rng, args.smoke), lambda: make_pass(rng, args.smoke)


SAME = object()  # stored for a repeat whose result equals its operation's first


class Results:
    """Outputs of every executed operation, checked after the timed loop."""

    def __init__(self, ops, clock=time.process_time):
        self.ops = list(ops)
        self.first_pass = len(ops)  # the digest covers these
        self.clock = clock
        self.outputs: list[list] = [[] for _ in ops]  # (result, exception) per run

    def extend(self, ops) -> None:
        self.ops += ops
        self.outputs += [[] for _ in ops]

    def run(self, index: int) -> tuple[object, float]:
        """Run one operation; returns its result and the seconds it took by ``clock``.

        A repeat equal to the first result is stored as SAME, so that what
        the benchmark keeps does not grow with run length (and peak_rss_mb).
        """
        op, outs = self.ops[index], self.outputs[index]
        t0 = self.clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed operation, reported by check()
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = self.clock() - t0
        if error is None and outs and op.repeats_equal and outs[0][1] is None and result == outs[0][0]:
            outs.append((SAME, None))
        else:
            outs.append((result, error))
        return result, seconds

    def check(self):
        """(failed, contract_breaks, reasons, digest) over every executed run.

        A SAME repeat equals the first result, which is checked in full.  The
        digest covers the operations of the first pass.
        """
        failed = breaks = 0
        reasons: list[str] = []
        summaries = []
        for op, outs in zip(self.ops, self.outputs):
            if not outs:
                continue
            first = None
            for result, error in outs:
                if result is SAME:
                    continue
                reason = error or op.check(result)
                summary = None if reason else op.summary(result)
                if reason is None and first is not None and op.repeats_equal and summary != first:
                    reason = f"repeat gave {summary}, first run gave {first}"
                if first is None:
                    first = summary or f"error:{reason}"
                if reason:
                    if op.malformed:
                        breaks += 1
                    else:
                        failed += 1
                    reasons.append(f"{op.label}: {reason}")
            summaries.append(first)
        digest = hashlib.sha256("\n".join(summaries[: self.first_pass]).encode()).hexdigest()[:16]
        return failed, breaks, reasons, digest


def timed_loop(results: Results, seconds: float, min_ops: int, next_pass=None) -> tuple[list[float], list[float], float]:
    """Repeat whole passes; stop at the pass boundary nearest to ``seconds``
    of calls at the reference speed.

    Each pass repeats the operations of the first, or, with ``next_pass``,
    runs new ones made between passes, outside the timed interval.  Whole
    passes keep the operation mix of every run the same, so percentiles
    of different runs are comparable, and a run does as much work on a slow
    core as on a fast one (so on polytope, whose caches grow with every
    operation, peak memory does not depend on the speed of the core).  At
    least ``min_ops`` operations run; ``WALL_LIMIT`` times ``seconds`` of
    wall time end the loop early on a very slow core.  A reference sample is
    taken before an operation once ``REFERENCE_EVERY_S`` of calls have run
    since the last one, and after the last operation.
    Returns every operation's CPU seconds scaled to the reference speed by the
    mean of the samples just before and just after it, the raw CPU seconds,
    and the wall seconds of the loop.
    """
    raw: list[float] = []
    at: list[int] = []  # a sample was taken before operation at[k]
    samples: list[float] = []
    n = len(results.ops)
    first = 0
    since = REFERENCE_EVERY_S
    done = 0.0  # seconds of calls at the reference speed, by the latest sample
    start = time.perf_counter()
    passes = 0
    while True:
        for i in range(first, first + n):
            if since >= REFERENCE_EVERY_S:
                at.append(len(raw))
                samples.append(reference.sample())
                since = 0.0
            raw.append(results.run(i)[1])
            since += raw[-1]
            done += raw[-1] * reference.scale(samples[-1:])
        passes += 1
        elapsed = time.perf_counter() - start
        if passes * n >= min_ops and (done + done / passes / 2 >= seconds or elapsed >= WALL_LIMIT * seconds):
            break
        if next_pass is not None:
            first = len(results.ops)
            results.extend(next_pass())
            n = len(results.ops) - first
    at.append(len(raw))
    samples.append(reference.sample())
    scaled = []
    for k, cpu in enumerate(raw):
        j = bisect_right(at, k)  # samples[j - 1] is just before, samples[j] just after
        scaled.append(cpu * reference.scale(samples[j - 1 : j + 1]))
    return scaled, raw, elapsed


def _cache_state() -> dict:
    return {"polar": POLAR.cache_info(), "lattice": LATTICE.cache_info()}


def _cache_delta(before: dict, after: dict) -> dict:
    return {
        key: {
            "hits": after[key].hits - before[key].hits,
            "misses": after[key].misses - before[key].misses,
            "entries": after[key].currsize,
        }
        for key in before
    }


def import_seconds(samples: int = 3) -> float:
    """Median time of a fresh ``import bjlevel`` in a new interpreter."""
    code = "import time; t = time.perf_counter(); import bjlevel; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60, check=True)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def main_in_process(argv: list) -> float:
    """Seconds taken by ``bjlevel.cli.main(argv)`` in this process."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            bjlevel.cli.main(argv)
        except Exception:  # malformed inputs that break the CLI contract
            pass
    return time.perf_counter() - t0


def traced_pass(results: Results) -> tuple[dict, "tracing.Recorder", float]:
    """One pass with every layer wrapped: per-layer metrics, spans, seconds per op."""
    rec = tracing.Recorder()
    before = _cache_state()
    rec.install()
    try:
        t0 = time.process_time()
        for i in range(len(results.ops)):
            with rec.operation(i):
                results.run(i)
        per_op = (time.process_time() - t0) / len(results.ops)
    finally:
        rec.uninstall()
    return tracing.layer_metrics(rec, _cache_delta(before, _cache_state())), rec, per_op


def cli_layer(seed: int, tmpdir: str) -> tuple[dict, Results]:
    """The cli layer: every CLI call once as a subprocess and once in process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    calls = Results(workloads.cli_calls(random.Random(seed), workloads.CliInputs(tmpdir), env, ROOT), clock=time.perf_counter)
    wall, in_process, out_bytes = [], [], []
    for i, op in enumerate(calls.ops):
        proc, seconds = calls.run(i)
        wall.append(seconds)
        out_bytes.append(len(proc.stdout.encode()) if proc is not None else 0)
        main_in_process(op.argv)  # warm the in-process caches first
        in_process.append(main_in_process(op.argv))
    breaks = calls.check()[1]
    return {
        "cli.import_s": (import_seconds(), "s"),
        "cli.main_s": (statistics.fmean(in_process), "s"),
        "cli.process_overhead_s": (statistics.fmean(w - m for w, m in zip(wall, in_process)), "s"),
        "cli.stdout_bytes": (statistics.fmean(out_bytes), "B"),
        "cli.contract_breaks": (breaks, "count"),
    }, calls


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.abspath(bjlevel.__file__).startswith(SRC + os.sep):
        print(f"bjlevel imported from {bjlevel.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    ops, next_pass = setup(args)
    # CPU time since the process started, interpreter start-up included.
    setup_cpu = time.process_time() - sum(SETUP_REFERENCE)
    setup_s = setup_cpu * reference.scale(SETUP_REFERENCE + [reference.sample() for _ in range(10)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results = Results(ops)
    checked = [results]
    if args.trace:
        # The traced pass comes first, on the inputs and caches as set-up left
        # them: its counts repeat exactly for a seed, and on polytope its balls
        # are new to the caches like every other execution's.
        metrics, rec, traced_per_op = traced_pass(results)
    loop_seconds = args.seconds / 2 if args.trace else args.seconds
    min_ops = 1 if args.smoke or args.trace else MIN_OPS
    cache_before = _cache_state()
    latencies, raw, elapsed = timed_loop(results, loop_seconds, min_ops, next_pass)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB
    caches = _cache_delta(cache_before, _cache_state())

    if args.trace:
        metrics["trace.overhead_ratio"] = (traced_per_op / (sum(raw) / len(raw)), "ratio")
        tmpdir = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
        os.makedirs(tmpdir)
        try:
            cli_metrics, calls = cli_layer(args.seed, tmpdir)
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        metrics.update(cli_metrics)
        checked.append(calls)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        rec.write(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        pass_seconds = [sum(latencies[k : k + len(ops)]) for k in range(0, len(latencies), len(ops))]
        deciles = statistics.quantiles(latencies, n=10)
        metrics = {
            # The median pass, so that a stretch of slow passes moves it less.
            "ops_per_s": (len(ops) / statistics.median(pass_seconds), "1/s"),
            "latency_p50_ms": (deciles[4] * 1000.0, "ms"),
            "latency_p90_ms": (deciles[8] * 1000.0, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }

    t_check = time.perf_counter()
    outcomes = [r.check() for r in checked]
    t_check = time.perf_counter() - t_check
    failed = sum(o[0] for o in outcomes)
    breaks = sum(o[1] for o in outcomes)
    digest = outcomes[0][3]
    attempted = sum(len(o) for r in checked for o in r.outputs)
    for reason in [reason for o in outcomes for reason in o[2]][:20]:
        print(f"check: {reason}")
    print(
        f"loop: {len(latencies)} ops in {elapsed:.3f} s wall, {sum(raw):.3f} s CPU,"
        f" {sum(latencies):.3f} s at the reference speed (CPU/reference {sum(raw) / sum(latencies):.3f}),"
        f" over {len(latencies) // len(ops)} passes of {len(ops)};"
        f" checks {t_check:.3f} s; polar cache {caches['polar']}; lattice cache {caches['lattice']}"
    )
    print(
        json.dumps(
            {
                "attempted": attempted,
                "failed": failed,
                "contract_breaks": breaks,
                "digest": digest,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
