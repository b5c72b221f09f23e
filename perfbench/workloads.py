"""The workloads: which CLI jobs each runs, on which generated inputs, and
the reference answer every job's report is checked against.

``rewrite`` runs the ``present`` jobs (the rewriting write path: interreduce
and complete) and the ``check`` jobs (the read path: normal-form queries
against a finished system).  ``search`` runs the ``aut`` jobs (End/Aut point
search over GF(p)) and the ``gradings`` jobs (grading points, the subspace
oracle and conjugation orbits).  The two never call each other's layers, so
a change to rewriting should leave ``search`` unchanged and the reverse.  The
per-layer metrics still tell present from check and aut from gradings.

Every job runs ``usym <command> <file> ... --format json`` so that its
answer can be read back exactly.  The seed decides the order of the jobs and
a unit-fixing rescaling e_k -> c_k e_k of each generated algebra's basis.
The basis order itself is not seeded: one drawn permutation moved a single
job by up to 70x (``present`` of k[x]/(x^5) over QQ took 0.19 s in the
natural order and 0.3-22 s under six drawn orders), which no run length can
average out.  Instead a few jobs run on the reversed basis order in every
pass, so that the order dependence is part of each measurement.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import inputs

WORKLOADS = ("rewrite", "search")

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Algebra:
    """A generated or packaged algebra: ``family`` and ``n`` select the
    closed-form answers (poly = k[x]/(x^n), M = M_2, T = upper-triangular
    T_n, cyclic = k[C_n])."""

    key: str
    family: str
    n: int
    field: str
    reversed: bool = False
    fixture: str | None = None

    @property
    def p(self) -> int:
        return int(self.field[3:-1])

    @property
    def dim(self) -> int:
        if self.family == "M":
            return self.n * self.n
        if self.family == "T":
            return self.n * (self.n + 1) // 2
        return self.n

    def document(self, usym) -> dict:
        if self.fixture is not None:
            doc = json.loads(usym.fixture_path(self.fixture).read_text(encoding="utf-8"))
        elif self.family == "poly":
            doc = inputs.truncated_polynomial(self.n, self.field)
        elif self.family == "cyclic":
            doc = inputs.cyclic_group_algebra(self.n, self.field)
        else:
            doc = inputs.matrix_algebra(self.n, self.field, upper=self.family == "T")
        if self.reversed:
            doc = inputs.relabel(doc, [0] + list(range(self.dim - 1, 0, -1)))
        return doc


def _alg(family: str, n: int, field: str, **kw) -> Algebra:
    key = f"{family}{n}-{field}" + ("-rev" if kw.get("reversed") else "")
    return Algebra(key, family, n, field, **kw)


DUAL_Q = Algebra("dual_q", "poly", 2, "QQ", fixture="dual_q.json")
TRIANGULAR_Q = Algebra("triangular_q", "T", 2, "QQ", fixture="triangular_q.json")
DUAL_GF5 = Algebra("dual_gf5", "poly", 2, "GF(5)", fixture="dual_gf5.json")
KLEIN = "group_klein.json"


@dataclass(frozen=True)
class Job:
    command: str
    algebra: Algebra
    flags: tuple[str, ...] = ()
    group: str | None = None  # "cyclic:m" or a packaged group fixture

    @property
    def name(self) -> str:
        parts = [self.command, self.algebra.key]
        if self.group:
            parts.append(self.group.removesuffix(".json"))
        return " ".join(parts + list(self.flags))


# Sizes keep one pass of each job group near 3 s on a 2-core machine, so that
# a run holds several passes of each workload.  Left out for that reason:
# present of k[x]/(x^6), k[x]/(x^7) and QQ[C_5] (1.2-3.5 s each); aut and endo
# of k[x]/(x^3) over GF(7) in the natural order (3.7 s each; GF(5) runs in
# that order, GF(7) in the reversed one); aut of k[x]/(x^4) over GF(5) (22 s);
# gradings of M_2(GF(2)) with cyclic:3 (8-12 s).
_PRESENT = [
    Job("present", a, ("--max-degree", "3"))
    for a in (
        _alg("poly", 5, "QQ"),
        _alg("poly", 5, "GF(5)"),
        _alg("cyclic", 4, "QQ"),
        _alg("M", 2, "QQ"),
        _alg("M", 2, "QQ", reversed=True),
        _alg("T", 3, "QQ"),
        DUAL_Q,
        TRIANGULAR_Q,
    )
]

_CHECK = [
    Job("check", a, ("--max-degree", "4"))
    for a in (
        _alg("poly", 4, "QQ"),
        _alg("poly", 5, "QQ"),
        _alg("cyclic", 4, "QQ"),
        _alg("M", 2, "QQ"),
        _alg("poly", 4, "GF(3)"),
    )
]

_AUT_ALGEBRAS = (
    _alg("poly", 4, "GF(3)"),
    _alg("poly", 5, "GF(2)"),
    _alg("poly", 3, "GF(5)"),
    _alg("poly", 3, "GF(7)", reversed=True),
    _alg("M", 2, "GF(3)"),
    _alg("T", 2, "GF(5)"),
)
_AUT = [
    *(Job("aut", a, ("--field-check",)) for a in _AUT_ALGEBRAS),
    *(Job("endo", a) for a in _AUT_ALGEBRAS),
    Job("endo", _alg("poly", 3, "GF(3)"), ("--oracle",)),
]

_T2_GF2 = _alg("T", 2, "GF(2)")
_M2_GF2 = _alg("M", 2, "GF(2)")
_GRADINGS = [
    # direct point route (raw space within the default bound)
    Job("gradings", _T2_GF2, group="cyclic:2"),
    Job("gradings", _alg("T", 2, "GF(3)"), ("--oracle",), group="cyclic:2"),
    Job("gradings", _T2_GF2, group="cyclic:3"),
    Job("gradings", _M2_GF2, ("--classify",), group="cyclic:2"),
    Job("gradings", _alg("poly", 3, "GF(2)"), ("--oracle",), group="cyclic:2"),
    Job("gradings", _alg("poly", 3, "GF(3)"), ("--classify", "--oracle"), group="cyclic:2"),
    Job("gradings", _alg("poly", 4, "GF(2)"), group="cyclic:2"),
    Job("gradings", _alg("cyclic", 3, "GF(2)"), ("--oracle",), group="cyclic:2"),
    Job("gradings", DUAL_GF5, group=KLEIN),
    # structured point route (raw space 5^12 above the default bound)
    Job("gradings", DUAL_GF5, group="cyclic:6"),
]

JOBS = {"rewrite": _PRESENT + _CHECK, "search": _AUT + _GRADINGS}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Input files


def prepare(usym, workload: str, seed: int, workdir: Path) -> list[tuple[Job, list[str]]]:
    """Generate, validate and write every input of a workload; return its jobs
    in seeded order, each with the argv it runs."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, str] = {}
    out = []
    for job in JOBS[workload]:
        alg = job.algebra
        if alg.key not in paths:
            rng = random.Random(f"{seed}:{alg.key}")
            doc = alg.document(usym)
            doc = inputs.rescale(doc, inputs.draw_rescaling(rng, doc))
            inputs.check_algebra(usym, doc)
            path = workdir / f"{alg.key}.json"
            inputs.write_json(path, doc)
            paths[alg.key] = str(path)
        argv = [job.command, paths[alg.key], *job.flags, "--format", "json"]
        if job.group is not None:
            if job.group.startswith("cyclic:"):
                spec = job.group
            else:
                if job.group not in paths:
                    doc = json.loads(usym.fixture_path(job.group).read_text(encoding="utf-8"))
                    inputs.check_group(usym, doc)
                    path = workdir / job.group
                    inputs.write_json(path, doc)
                    paths[job.group] = str(path)
                spec = paths[job.group]
            argv += ["--group", spec]
        out.append((job, argv))
    random.Random(seed).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Reference answers


def aut_order(alg: Algebra) -> int:
    p, n = alg.p, alg.n
    if alg.family == "poly":
        return (p - 1) * p ** (n - 2)
    if alg.family == "M" and n == 2:
        return p * (p * p - 1)
    if alg.family == "T" and n == 2:
        return p * (p - 1)
    raise KeyError(alg.key)


def end_order(alg: Algebra, reference: dict) -> int:
    if alg.family == "poly":
        return alg.p ** (alg.n - 1)
    if alg.family == "M":
        return aut_order(alg)  # M_n(k) is simple, so every unital endomorphism is injective
    return reference["end"][alg.key.removesuffix("-rev")]


def check_count(n: int) -> int:
    """Items `usym check` reports: delta and eps descend along each of the
    n^3 + n relations, coassociativity and counit on each of the n(n-1)
    surviving generators, then the comodule unit, coassociativity and counit
    per basis element, and multiplicativity per pair."""
    return 2 * (n**3 + n) + 2 * n * (n - 1) + 1 + 2 * n + n * n


def expected(job: Job, reference: dict) -> dict:
    """Fields of the report's ``result`` that the job must reproduce.  Every
    value is invariant under the rescaling and relabelling of the basis."""
    alg = job.algebra
    n = alg.dim
    if job.command in ("present", "check"):
        # only the first column x[a,1] is eliminated on these algebras
        return {"generators": n * (n - 1)}
    if job.command == "aut":
        return {"count": aut_order(alg)}
    if job.command == "endo":
        return {"count": end_order(alg, reference)}
    ref = reference["gradings"][f"{alg.key} {job.group.removesuffix('.json')}"]
    want = {"count": ref["points"]}
    if "--oracle" in job.flags:
        want["oracle_count"] = ref["points"]
    if "--classify" in job.flags:
        want["class_count"] = ref["classes"]
        want["grading_class_count"] = ref["classes"]
    return want


def check_answer(job: Job, reference: dict, code: int, stdout: str) -> str | None:
    """None if the job's report is correct, else why it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if report.get("status") != "ok" or not all(report.get("checks", {}).values()):
        failing = [k for k, v in report.get("checks", {}).items() if not v]
        return f"report status {report.get('status')!r}, failing checks {failing}"
    result = report["result"]
    got = {
        "generators": len(result.get("generators", ())),
        "count": result.get("count"),
        "oracle_count": result.get("oracle_count"),
        "class_count": result.get("classification", {}).get("class_count"),
        "grading_class_count": result.get("classification", {}).get("grading_class_count"),
    }
    for key, want in expected(job, reference).items():
        if got[key] != want:
            return f"{key} is {got[key]}, expected {want}"
    if job.command == "check" and len(report["checks"]) != check_count(job.algebra.dim):
        return f"{len(report['checks'])} checks reported, expected {check_count(job.algebra.dim)}"
    return None
