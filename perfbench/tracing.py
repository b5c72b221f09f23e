"""Per-layer tracing, installed from outside the package.

A ``Tracer`` replaces the public functions and methods listed below with
wrappers, in the module that defines them and under every name another usym
module imported them as (``usym.cli`` and ``usym.gradings`` import most of
them directly).  Layer entries become spans (name, start, end, parent, job id)
kept in memory; self time is a span's duration minus that of its direct
children.  Hot leaf calls, which run 10^4 to 10^6 times per job, get no span
of their own: they add to a per-name count and time, and each span records
how much of those totals accrued while it was open.  ``FpElement``
constructions are counted in a separate pass (``count_fp_elements``), because
that wrapper alone slows an Aut job 2.5x and would distort every span's self
time.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute, metric name) of each layer entry that gets a span
SPANS = (
    ("usym.io", "load_algebra", "io.load_algebra"),
    ("usym.io", "load_group", "io.load_group"),
    ("usym.io", "Report.render", "io.Report.render"),
    ("usym.algebra", "validate_algebra", "algebra.validate_algebra"),
    ("usym.universal", "build_presentation", "universal.build_presentation"),
    ("usym.universal", "check_bialgebra", "universal.check_bialgebra"),
    ("usym.universal", "check_comodule", "universal.check_comodule"),
    ("usym.ncpoly", "interreduce", "ncpoly.interreduce"),
    ("usym.ncpoly", "complete", "ncpoly.complete"),
    ("usym.endomorphisms", "enumerate_measuring_points",
     "endomorphisms.enumerate_measuring_points"),
    ("usym.endomorphisms", "automorphism_group", "endomorphisms.automorphism_group"),
    ("usym.endomorphisms", "enumerate_homs", "endomorphisms.enumerate_homs"),
    ("usym.endomorphisms", "EndoMonoid.is_closed", "endomorphisms.EndoMonoid.is_closed"),
    ("usym.endomorphisms", "EndoMonoid.inverses_in_set",
     "endomorphisms.EndoMonoid.inverses_in_set"),
    ("usym.gradings", "enumerate_points", "gradings.enumerate_points"),
    ("usym.gradings", "enumerate_gradings_oracle", "gradings.enumerate_gradings_oracle"),
    ("usym.gradings", "classify", "gradings.classify"),
    ("usym.unionfind", "orbit_partition", "unionfind.orbit_partition"),
)

# (module, attribute, metric name) of each hot leaf: counted and timed only
LEAVES = (
    ("usym.algebra", "FinAlgebra.basis_product", "algebra.basis_product"),
    ("usym.algebra", "is_algebra_map", "algebra.is_algebra_map"),
    ("usym.ncpoly", "RewriteSystem.normal_form", "ncpoly.normal_form"),
    ("usym.ncpoly", "tensor_normal_form", "ncpoly.tensor_normal_form"),
    ("usym.ncpoly", "ideal_member_bounded", "ncpoly.ideal_member_bounded"),
    ("usym.gradings", "is_grading_point", "gradings.is_grading_point"),
    ("usym.gradings", "validate_grading", "gradings.validate_grading"),
    ("usym.gradings", "conjugate_point", "gradings.conjugate_point"),
    ("usym.linalg", "Matrix.__mul__", "linalg.Matrix.mul"),
    ("usym.linalg", "Matrix.inverse", "linalg.Matrix.inverse"),
    ("usym.linalg", "Matrix.det", "linalg.Matrix.det"),
    ("usym.linalg", "Subspace.from_vectors", "linalg.Subspace.from_vectors"),
)

# Sizes of results, counted where a layer returns them.
RESULT_COUNTS = {
    "universal.build_presentation": lambda r: {
        "ncpoly.rules": len(r.system.rules),
        "ncpoly.gens": len(r.gens),
    },
    "endomorphisms.enumerate_measuring_points": lambda r: {"endomorphisms.points": len(r)},
    "gradings.enumerate_points": lambda r: {"gradings.points": len(r)},
}

FP_NEW = "fields.FpElement.new"
OVERHEAD = "trace.overhead_frac"

# Every per-layer metric with its unit and better direction, and the
# end-to-end metric and workload it is expected to move.  Counts of results
# (rules, generators, points) are outputs: for one seed they must never move.
PER_LAYER = (
    ("ncpoly.interreduce.calls", "count", "lower", "pass_s on rewrite (present jobs)"),
    ("ncpoly.interreduce.s", "s", "lower", "pass_s on rewrite (present jobs)"),
    ("ncpoly.complete.calls", "count", "lower", "pass_s on rewrite (present jobs)"),
    ("ncpoly.complete.s", "s", "lower", "pass_s on rewrite (present jobs)"),
    ("ncpoly.normal_form.calls", "count", "lower", "pass_s on rewrite (check jobs)"),
    ("ncpoly.normal_form.s", "s", "lower", "pass_s on rewrite (check jobs)"),
    ("ncpoly.tensor_normal_form.calls", "count", "lower", "pass_s on rewrite (check jobs)"),
    ("ncpoly.tensor_normal_form.s", "s", "lower", "pass_s on rewrite (check jobs)"),
    ("ncpoly.ideal_member_bounded.calls", "count", "lower", "pass_s on rewrite (check jobs)"),
    ("ncpoly.ideal_member_bounded.s", "s", "lower", "pass_s on rewrite (check jobs)"),
    ("ncpoly.rules", "count", "lower", "output of rewrite: never moves"),
    ("ncpoly.gens", "count", "lower", "output of rewrite: never moves"),
    ("universal.build_presentation.s", "s", "lower", "pass_s on rewrite (present jobs)"),
    ("universal.build_presentation.self_s", "s", "lower", "pass_s on rewrite (present jobs)"),
    ("universal.check_bialgebra.s", "s", "lower", "pass_s on rewrite (check jobs)"),
    ("universal.check_bialgebra.self_s", "s", "lower", "pass_s on rewrite (check jobs)"),
    ("universal.check_comodule.s", "s", "lower", "pass_s on rewrite (check jobs)"),
    ("universal.check_comodule.self_s", "s", "lower", "pass_s on rewrite (check jobs)"),
    ("endomorphisms.enumerate_measuring_points.calls", "count", "lower", "pass_s on search (aut jobs)"),
    ("endomorphisms.enumerate_measuring_points.s", "s", "lower", "pass_s on search (aut jobs)"),
    ("endomorphisms.points", "count", "higher", "output of search: never moves"),
    ("endomorphisms.EndoMonoid.is_closed.s", "s", "lower", "pass_s on search (aut jobs)"),
    ("endomorphisms.EndoMonoid.inverses_in_set.s", "s", "lower", "pass_s on search (aut jobs)"),
    ("endomorphisms.enumerate_homs.s", "s", "lower", "pass_s on search (aut jobs)"),
    ("endomorphisms.automorphism_group.s", "s", "lower", "job_s.geomean on search (gradings jobs)"),
    ("algebra.basis_product.calls", "count", "lower", "pass_s on search (aut jobs)"),
    ("algebra.basis_product.s", "s", "lower", "pass_s on search (aut jobs)"),
    ("algebra.is_algebra_map.calls", "count", "lower", "pass_s on search (aut jobs)"),
    ("algebra.is_algebra_map.s", "s", "lower", "pass_s on search (aut jobs)"),
    ("algebra.validate_algebra.s", "s", "lower", "pass_s on search (aut jobs)"),
    ("gradings.enumerate_points.calls", "count", "lower", "pass_s on search (gradings jobs)"),
    ("gradings.enumerate_points.s", "s", "lower", "pass_s on search (gradings jobs)"),
    ("gradings.is_grading_point.calls", "count", "lower", "pass_s on search (gradings jobs)"),
    ("gradings.points", "count", "higher", "output of search: never moves"),
    ("gradings.point_yield", "ratio", "higher", "pass_s on search (gradings jobs)"),
    ("gradings.enumerate_gradings_oracle.s", "s", "lower", "job_s.geomean on search (gradings jobs)"),
    ("gradings.validate_grading.calls", "count", "lower", "job_s.geomean on search (gradings jobs)"),
    ("gradings.classify.s", "s", "lower", "job_s.geomean on search (gradings jobs)"),
    ("gradings.classify.self_s", "s", "lower", "job_s.geomean on search (gradings jobs)"),
    ("gradings.conjugate_point.calls", "count", "lower", "job_s.geomean on search (gradings jobs)"),
    ("linalg.Matrix.mul.calls", "count", "lower", "pass_s on search"),
    ("linalg.Matrix.mul.s", "s", "lower", "pass_s on search"),
    ("linalg.Matrix.inverse.calls", "count", "lower", "pass_s on search"),
    ("linalg.Matrix.det.calls", "count", "lower", "pass_s on search"),
    ("linalg.Subspace.from_vectors.calls", "count", "lower", "pass_s on search"),
    ("linalg.Subspace.from_vectors.s", "s", "lower", "pass_s on search"),
    ("unionfind.orbit_partition.s", "s", "lower", "job_s.geomean on search (gradings jobs)"),
    (FP_NEW, "count", "lower", "pass_s on search"),
    ("io.load_algebra.s", "s", "lower", "job_s.geomean on rewrite and search"),
    ("io.load_group.s", "s", "lower", "job_s.geomean on rewrite and search"),
    ("io.Report.render.s", "s", "lower", "job_s.geomean on rewrite and search"),
    (OVERHEAD, "ratio", "lower", "none: traced pass_s / untraced pass_s - 1"),
)

# Metrics that are counts of work or results: identical on every pass of one seed.
COUNT_METRICS = tuple(name for name, unit, _, _ in PER_LAYER if unit == "count")


@dataclass
class Span:
    id: int
    name: str
    label: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    # leaf name -> [calls, seconds] made while the span was open
    leaves: dict = field(default_factory=dict)


def _usym_modules() -> list:
    return [m for k, m in sorted(sys.modules.items()) if k == "usym" or k.startswith("usym.")]


def _resolve(module: str, attr: str):
    """(owner, name, raw attribute) for ``Class.method`` or a module function."""
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and leaf counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.leaf_totals: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._job = -1
        self._origin = time.perf_counter()

    # -- spans ------------------------------------------------------------

    def open(self, name: str, label: str = "") -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, label, self._job, parent, time.perf_counter())
        span.leaves = {k: tuple(v) for k, v in self.leaf_totals.items()}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # leaf calls made while the span was open, its children's included
        span.leaves = {
            k: [v[0] - span.leaves[k][0], v[1] - span.leaves[k][1]]
            for k, v in self.leaf_totals.items()
            if v[0] != span.leaves[k][0]
        }
        self.stack.pop()

    @contextlib.contextmanager
    def job(self, index: int, label: str):
        self._job = index
        span = self.open("job", label)
        try:
            yield
        finally:
            self.close(span)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        counts = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                for key, value in counts(result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def _leaf_wrapper(self, name: str, fn):
        total = self.leaf_totals.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total[1] += clock() - start
                total[0] += 1

        return counted

    def install(self) -> "Tracer":
        modules = _usym_modules()
        for table, make in ((SPANS, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
            for module, attr, name in table:
                owner, key, raw = _resolve(module, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(make(name, raw.__func__))
                else:
                    wrapped = make(name, raw)
                self._patch(owner, key, raw, wrapped)
                if "." not in attr:
                    for mod in modules:
                        for alias, value in list(vars(mod).items()):
                            if value is raw and mod is not owner:
                                self._patch(mod, alias, raw, wrapped)
        return self

    def _patch(self, owner, key: str, raw, wrapped) -> None:
        self._patches.append((owner, key, raw))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, raw = self._patches.pop()
            setattr(owner, key, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer totals of this pass, except the FpElement count and the
        overhead, which come from other passes."""
        out: dict[str, float] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            if s.name == "job":
                continue
            out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
            out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + (s.end - s.start)
            out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + self_s
        for name, (calls, seconds) in self.leaf_totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = seconds
        out.update(self.counts)
        tried = out.get("gradings.is_grading_point.calls", 0)
        out["gradings.point_yield"] = out.get("gradings.points", 0) / tried if tried else 0.0
        return out

    def write(self, path: Path) -> None:
        """Spans of this pass as JSON, times in seconds from the tracer's start."""
        rows = [
            {
                "id": s.id,
                "name": s.name,
                "label": s.label,
                "job": s.job,
                "parent": s.parent,
                "start": s.start - self._origin,
                "end": s.end - self._origin,
                "self_s": self_s,
                "leaves": s.leaves,
            }
            for s, self_s in zip(self.spans, self.self_times())
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows, indent=0) + "\n", encoding="utf-8")


@contextlib.contextmanager
def count_fp_elements(usym):
    """Count ``FpElement`` constructions while the block runs; yields a
    one-item list holding the count."""
    cls = usym.fields.FpElement
    original = cls.__dict__["__init__"]
    count = [0]

    def __init__(self, p, v):
        count[0] += 1
        original(self, p, v)

    cls.__init__ = __init__
    try:
        yield count
    finally:
        cls.__init__ = original
