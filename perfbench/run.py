"""Benchmark of the usym command line.

Each workload is a fixed list of CLI jobs run in-process through
``usym.cli.main(argv)`` with standard output captured: a closed loop with one
client, where the next job starts when the previous one returns.  Every
report is checked against a reference answer (see workloads.py).  Times are
reported in reference seconds: wall time scaled by the host's speed, which a
calibration chunk measures between jobs (see ``Speedometer``); the wall-clock
median is printed beside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs untraced passes, traced passes and one pass that counts FpElement
constructions, and reports the per-layer metrics.  ``--workload all`` runs
every workload in a process of its own and prints one table.  The last line
of standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench-work"

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3

# The host's speed drifts by 20-25% within seconds on a shared 2-core machine,
# for every kind of code alike.  After each timed step a fixed pure-Python
# chunk runs for CAL_SHARE of the step's time; each time is then scaled to the
# speed at which one chunk takes REF_CHUNK_S (its time on a quiet machine).
CAL_SHARE = 0.1
REF_CHUNK_S = 0.75e-3


def _chunk() -> Fraction:
    acc = 0
    table: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 97
    total = Fraction(acc)
    for i in range(1, 40):
        total += Fraction(i % 7 + 1, i)
    return total


class Speedometer:
    """Seconds per calibration chunk, sampled after each timed step."""

    def __init__(self) -> None:
        self.chunks = 0
        self.seconds = 0.0

    def follow(self, elapsed: float) -> None:
        spent = 0.0
        while True:
            start = time.perf_counter()
            _chunk()
            spent += time.perf_counter() - start
            self.chunks += 1
            if spent >= CAL_SHARE * elapsed:
                break
        self.seconds += spent

    def scale(self) -> float:
        """Factor that turns a time measured here into reference seconds."""
        return REF_CHUNK_S * self.chunks / self.seconds


def fresh_usym():
    """Import usym and usym.cli from source, dropping any earlier import, so
    that every set-up pays the import again."""
    for name in [m for m in sys.modules if m == "usym" or m.startswith("usym.")]:
        del sys.modules[name]
    usym = importlib.import_module("usym")
    importlib.import_module("usym.cli")
    return usym


class Runner:
    """Runs the jobs of one workload and checks every answer."""

    def __init__(self, usym, jobs, reference: dict):
        self.cli = usym.cli
        self.jobs = jobs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.wall_totals: list[float] = []  # unscaled time of each pass

    def run_job(self, job, argv: list[str]) -> float:
        out, err = io.StringIO(), io.StringIO()
        problem = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code, problem = None, f"raised SystemExit({exc.code!r})"
        except Exception:  # a failing job is counted, it does not end the run
            code, problem = None, "raised " + traceback.format_exc()
        elapsed = time.perf_counter() - start
        if problem is None:
            problem = workloads.check_answer(job, self.reference, code, out.getvalue())
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"FAIL {job.name}: {problem} {err.getvalue().strip()}", file=sys.stderr)
        return elapsed

    def run_pass(self, tracer: tracing.Tracer | None = None) -> list[float]:
        """Each job once; returns every job's time in reference seconds."""
        gc.collect()
        meter = Speedometer()
        times = []
        for index, (job, argv) in enumerate(self.jobs):
            if tracer is None:
                times.append(self.run_job(job, argv))
            else:
                with tracer.job(index, job.name):
                    times.append(self.run_job(job, argv))
            meter.follow(times[-1])
        self.wall_totals.append(sum(times))
        factor = meter.scale()
        return [t * factor for t in times]

    def run_for(
        self, seconds: float, one_pass=None, min_passes: int = MIN_PASSES
    ) -> list[list[float]]:
        """Passes until the next one would end after ``seconds``; at least
        ``min_passes``."""
        passes: list[list[float]] = []
        start = time.perf_counter()
        while True:
            passes.append((one_pass or self.run_pass)())
            elapsed = time.perf_counter() - start
            typical = statistics.median(self.wall_totals[-len(passes):]) * (1 + CAL_SHARE)
            if len(passes) >= min_passes and elapsed + typical > seconds:
                return passes


def set_up(workload: str, seed: int, workdir: Path):
    """Import usym and generate, validate and write the workload's inputs,
    SETUP_REPEATS times; returns the last import, the jobs and each time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        usym = fresh_usym()
        jobs = workloads.prepare(usym, workload, seed, workdir)
        elapsed = time.perf_counter() - start
        meter = Speedometer()
        meter.follow(elapsed)
        times.append(elapsed * meter.scale())
    return usym, jobs, times


def end_to_end(args, usym, jobs, setup_times) -> dict:
    runner = Runner(usym, jobs, workloads.load_reference())
    passes = runner.run_for(args.seconds)
    totals = [sum(p) for p in passes]
    q1, median, q3 = statistics.quantiles(totals, n=4)
    per_job = [statistics.median(p[k] for p in passes) for k in range(len(jobs))]
    geomean = math.exp(statistics.fmean(math.log(t) for t in per_job))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = statistics.median(setup_times)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs x "
          f"{len(passes)} passes, closed loop, one client")
    print(f"  pass_s         {median:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(passes)}; "
          f"wall median {statistics.median(runner.wall_totals):.4f} s)")
    print(f"  job_s.geomean  {geomean:.4f} s  (median of each job over the passes)")
    print(f"  peak_rss_mb    {peak_mb:.1f} MB")
    print(f"  setup_s        {setup:.4f} s  (median of {len(setup_times)})")
    print(f"  fail_frac      {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4f}")
    for k, (job, _) in enumerate(jobs):
        print(f"    {per_job[k]:8.4f} s  {job.name}")
    metrics = {
        "pass_s": (median, "s"),
        "job_s.geomean": (geomean, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (setup, "s"),
    }
    return result(runner, metrics)


def per_layer(args, usym, jobs) -> dict:
    """Untraced passes for a quarter of the time, traced passes for another
    quarter, then one pass counting FpElement constructions, which runs about
    2.5 times as long as an untraced pass."""
    runner = Runner(usym, jobs, workloads.load_reference())
    untraced = [sum(p) for p in runner.run_for(args.seconds / 4, min_passes=1)]
    tracers: list[tracing.Tracer] = []

    def traced_pass() -> list[float]:
        with tracing.Tracer() as tracer:
            times = runner.run_pass(tracer)
        tracers.append(tracer)
        return times

    traced_totals = [
        sum(p) for p in runner.run_for(args.seconds / 4, traced_pass, min_passes=1)
    ]
    tracers[-1].write(WORKDIR / f"trace-{args.workload}-seed{args.seed}.json")
    with tracing.count_fp_elements(usym) as fp_count:
        runner.run_pass()

    metrics: dict[str, tuple[float, str]] = {}
    traced = [t.metrics() for t in tracers]
    for name, unit, _, _ in tracing.PER_LAYER:
        values = [m.get(name, 0) for m in traced]
        if name in tracing.COUNT_METRICS:
            if len(set(values)) != 1:
                print(f"warning: {name} differs between traced passes: {values}", file=sys.stderr)
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    metrics[tracing.FP_NEW] = (fp_count[0], "count")
    overhead = statistics.median(traced_totals) / statistics.median(untraced) - 1
    metrics[tracing.OVERHEAD] = (overhead, "ratio")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, then one FpElement counting pass")
    for name, unit, _, moves in tracing.PER_LAYER:
        print(f"  {name:48s} {metrics[name][0]:>14.6g} {unit:6s} -> {moves}")
    return result(runner, metrics)


def result(runner: Runner, metrics: dict) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in a process of its own, so that each peak RSS is its own."""
    rows = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = ("pass_s", "job_s.geomean", "peak_rss_mb", "setup_s")
    print(f"{'workload':10s}" + "".join(f"{n:>16s}" for n in names) + f"{'fail_frac':>12s}")
    for name, row in rows.items():
        cells = "".join(
            f"{row['metrics'][n]['value']:>13.4f} {row['metrics'][n]['unit']:2s}" for n in names
        )
        print(f"{name:10s}{cells}{row['failed'] / row['attempted']:>12.4f}")
    return {
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {
            f"{name}.{k}": v for name, r in rows.items() for k, v in r["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "usym" / "__init__.py").is_file():
        print(f"error: no usym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        if args.trace:
            parser.error("--workload all runs the end-to-end metrics only")
        out = run_all(args)
    else:
        workdir = WORKDIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        try:
            usym, jobs, setup_times = set_up(args.workload, args.seed, workdir)
            if args.trace:
                out = per_layer(args, usym, jobs)
            else:
                out = end_to_end(args, usym, jobs, setup_times)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
