"""Tests of the benchmark itself (not of usym).  Run from the root of a
checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(Path(run.__file__).resolve())]


@pytest.fixture(scope="module")
def usym():
    sys.path.insert(0, str(ROOT / "src"))
    return run.fresh_usym()


def test_stored_reference_rederived_from_oracles(usym):
    assert reference.derive(usym) == workloads.load_reference()


def test_inputs_are_valid_and_answers_invariant(usym, tmp_path):
    """Every generated input passes validation, and the closed-form answers
    hold on a relabelled and rescaled copy."""
    import inputs

    for workload in workloads.WORKLOADS:
        jobs = workloads.prepare(usym, workload, 11, tmp_path / workload)
        assert {job.name for job, _ in jobs} == {job.name for job in workloads.JOBS[workload]}
    runner = run.Runner(usym, [], workloads.load_reference())
    alg = workloads._alg("poly", 3, "GF(3)")
    doc = inputs.relabel(alg.document(usym), [0, 2, 1])
    doc = inputs.rescale(doc, [1, 2, 2])
    inputs.check_algebra(usym, doc)
    path = tmp_path / "p.json"
    inputs.write_json(path, doc)
    for command in ("aut", "endo"):
        runner.run_job(workloads.Job(command, alg), [command, str(path), "--format", "json"])
    assert (runner.attempted, runner.failed) == (2, 0)


def test_invalid_algebra_is_refused(usym):
    import inputs

    doc = inputs.truncated_polynomial(3, "QQ")
    doc["tau"] = [e for e in doc["tau"] if e[:3] != [1, 2, 2]]  # 1 * x is no longer x
    with pytest.raises(ValueError):
        inputs.check_algebra(usym, doc)


def test_failing_and_raising_jobs_are_counted(usym, monkeypatch, tmp_path):
    jobs = workloads.prepare(usym, "search", 5, tmp_path)
    good_job, good_argv = next((j, a) for j, a in jobs if j.algebra.key == "T2-GF(5)")
    real_main = usym.cli.main

    def main(argv):
        if argv[0] == "raise":
            raise RuntimeError("boom")
        if argv[0] == "exit":
            raise SystemExit(2)
        if argv[0] == "fail":
            return 1
        return real_main(argv)

    monkeypatch.setattr(usym.cli, "main", main)
    runner = run.Runner(usym, [], workloads.load_reference())
    runner.jobs = [
        (good_job, ["raise"]),
        (good_job, ["exit"]),
        (good_job, ["fail"]),
        (good_job, good_argv),
    ]
    times = runner.run_pass()
    assert len(times) == 4
    assert (runner.attempted, runner.failed) == (4, 3)


def test_wrong_answer_is_a_failure():
    job = workloads.Job("aut", workloads._alg("poly", 4, "GF(3)"), ("--field-check",))
    report = {"status": "ok", "checks": {"closure": True}, "result": {"count": 17}}
    assert workloads.check_answer(job, {}, 0, json.dumps(report)) == "count is 17, expected 18"
    report["result"]["count"] = 18
    assert workloads.check_answer(job, {}, 0, json.dumps(report)) is None
    report["checks"]["closure"] = False
    assert workloads.check_answer(job, {}, 0, json.dumps(report)) is not None


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.PER_LAYER
    ]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "pass_s", "job_s.geomean", "peak_rss_mb", "setup_s"
    }


def _traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600, cwd=ROOT,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    return {k: v["value"] for k, v in out["metrics"].items() if k in tracing.COUNT_METRICS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_across_processes(workload):
    first = _traced_counts(workload, 3)
    assert first == _traced_counts(workload, 3)
    assert any(first.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aut", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
