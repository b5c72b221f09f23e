"""Acceptance suite: the package's exit criteria.

Each test prints one PASS/FAIL line (visible with `pytest -s`) and enforces
its runtime budget.  All arithmetic is exact, so every comparison is exact
equality.
"""

import itertools
import json
import random
import time

import pytest

from usym import (
    GF,
    QQ,
    Matrix,
    NCPoly,
    TensorPoly,
    automorphism_group,
    build_presentation,
    check_bialgebra,
    check_comodule,
    complete,
    counit_point,
    cyclic_group,
    enumerate_endomorphisms,
    enumerate_gradings_oracle,
    enumerate_homs,
    enumerate_points,
    fixture_path,
    grading_from_point,
    interreduce,
    point_from_grading,
)
from usym.io import load_algebra
from conftest import (
    apply,
    classified,
    dual_numbers,
    iter_words,
    overlap_candidates,
    rref,
    rule_relation,
    scan_reduce,
    shifted,
    substituted,
    triangular,
)

X12, X22 = (1, 2), (2, 2)
ONE = QQ.one


def _finish(num, name, t0, limit, conditions):
    elapsed = time.perf_counter() - t0
    ok = all(conditions.values()) and elapsed < limit
    print(
        f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.2f}s, limit {limit:g}s)"
    )
    for label, good in conditions.items():
        assert good, f"criterion {num}: {label}"
    assert elapsed < limit, f"criterion {num}: runtime {elapsed:.2f}s"


def qpoly(*terms):
    acc = {}
    for coeff, word in terms:
        acc[word] = acc.get(word, QQ.zero) + QQ(coeff)
    return NCPoly(acc)


def test_criterion_1_dual_numbers_golden():
    t0 = time.perf_counter()
    algebra, _ = load_algebra(fixture_path("dual_q.json"))
    p = build_presentation(algebra, 4)

    target_relations = [
        qpoly((1, (X12, X12))),
        qpoly((1, (X12, X22)), (1, (X22, X12))),
    ]
    target_system = complete(interreduce(target_relations), 4)
    ideal_equal = all(
        p.system.normal_form(rel).is_zero() for rel in target_relations
    ) and all(
        target_system.normal_form(rule_relation(rule, ONE)).is_zero() for rule in p.system.rules
    )

    conditions = {
        "surviving generators are x[1,2], x[2,2]": p.gens == (X12, X22),
        "rule set ideal-equal to {x^2, xy + yx}": ideal_equal,
        "Delta(x) = x(x)y + 1(x)x": p.delta[X12]
        == TensorPoly({((X12,), (X22,)): ONE, ((), (X12,)): ONE}),
        "Delta(y) = y(x)y": p.delta[X22] == TensorPoly({((X22,), (X22,)): ONE}),
        "eps(x) = 0": p.eps[X12] == QQ.zero,
        "eps(y) = 1": p.eps[X22] == QQ.one,
    }
    _finish(1, "dual-numbers presentation golden", t0, 1.0, conditions)


def _hand_reduced_triangular():
    x12, x22, x32 = (1, 2), (2, 2), (3, 2)
    x13, x23, x33 = (1, 3), (2, 3), (3, 3)
    W = lambda *gs: tuple(gs)
    return [
        qpoly((1, W(x12, x12))),
        qpoly((1, W(x12, x13)), (-1, W(x12))),
        qpoly((1, W(x13, x12))),
        qpoly((1, W(x13, x13)), (-1, W(x13))),
        qpoly((1, W(x12, x22)), (1, W(x22, x12)), (1, W(x22, x32))),
        qpoly((1, W(x12, x23)), (1, W(x22, x13)), (1, W(x22, x33)), (-1, W(x22))),
        qpoly((1, W(x13, x22)), (1, W(x23, x12)), (1, W(x23, x32))),
        qpoly((1, W(x13, x23)), (1, W(x23, x13)), (1, W(x23, x33)), (-1, W(x23))),
        qpoly((1, W(x12, x32)), (1, W(x32, x12)), (1, W(x32, x32))),
        qpoly((1, W(x12, x33)), (1, W(x32, x13)), (1, W(x32, x33)), (-1, W(x32))),
        qpoly((1, W(x13, x32)), (1, W(x33, x12)), (1, W(x33, x32))),
        qpoly((1, W(x13, x33)), (1, W(x33, x13)), (1, W(x33, x33)), (-1, W(x33))),
    ]


def test_criterion_2_triangular_golden():
    t0 = time.perf_counter()
    algebra, _ = load_algebra(fixture_path("triangular_q.json"))
    p = build_presentation(algebra, 4)

    words = list(iter_words(list(p.gens), 2))
    index = {w: k for k, w in enumerate(words)}

    def rowspace(polys):
        rows = []
        for poly in polys:
            row = [QQ.zero] * len(words)
            for w, c in poly.terms.items():
                row[index[w]] = c
            rows.append(row)
        reduced, pivots = rref(Matrix(QQ, rows))
        return tuple(reduced.rows[: len(pivots)])

    mine = rowspace([rule_relation(r, ONE) for r in p.system.rules if len(r.lead) <= 2])
    hand = rowspace(_hand_reduced_triangular())

    conditions = {
        "eliminates exactly x[1,1], x[2,1], x[3,1]": tuple(p.system.subs)
        == ((1, 1), (2, 1), (3, 1)),
        "degree-<=2 relation span equals the reduced relation list": mine == hand,
    }
    _finish(2, "triangular presentation golden", t0, 5.0, conditions)


def test_criterion_3_bialgebra_well_definedness():
    t0 = time.perf_counter()
    conditions = {}
    for name in ("dual_q.json", "triangular_q.json"):
        algebra, _ = load_algebra(fixture_path(name))
        p = build_presentation(algebra, 4)
        bial = check_bialgebra(p)
        comod = check_comodule(p)
        conditions[f"{name}: Delta/eps vanish on every relation"] = all(
            item.passed
            for item in bial.items
            if item.name.startswith(("delta-descends", "eps-descends"))
        )
        conditions[f"{name}: coalgebra axioms on generators"] = all(
            item.passed
            for item in bial.items
            if item.name.startswith(("coassoc", "counit"))
        )
        conditions[f"{name}: comodule diagrams commute"] = comod.ok
    _finish(3, "bialgebra and comodule axioms at D=4", t0, 5.0, conditions)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_criterion_4_automorphism_correspondence(p):
    t0 = time.perf_counter()
    algebra = dual_numbers(GF(p))
    monoid = enumerate_endomorphisms(algebra)
    group = automorphism_group(algebra)

    hom_ok = True
    for m1, m2 in itertools.product(monoid.points, repeat=2):
        composite = m1 * m2
        for i in range(algebra.n):
            v = algebra.basis_vector(i)
            if apply(composite, v) != apply(m1, apply(m2, v)):
                hom_ok = False
    ident = counit_point(algebra)
    identity_ok = all(
        apply(ident, algebra.basis_vector(i)) == algebra.basis_vector(i)
        for i in range(algebra.n)
    )

    conditions = {
        f"|End| = {p}": len(monoid) == p,
        f"|Aut| = {p - 1} (Aut is the nonzero scalars)": len(group) == p - 1,
        "gamma(M1 M2) = gamma(M1) o gamma(M2) on all pairs": hom_ok,
        "gamma(I) = id": identity_ok,
    }
    _finish(4, f"automorphism correspondence over GF({p})", t0, 1.0, conditions)


def test_criterion_5_endomorphism_oracle_equivalence():
    t0 = time.perf_counter()
    conditions = {}
    for build, label in ((dual_numbers, "dual"), (triangular, "triangular")):
        for p in (2, 3):
            algebra = build(GF(p))
            points = enumerate_endomorphisms(algebra).points
            brute = enumerate_homs(algebra, algebra)
            conditions[f"{label}/GF({p}): point set equals brute-force maps"] = tuple(
                m.rows for m in points
            ) == tuple(m.rows for m in brute)
    _finish(5, "endomorphism enumeration vs direct oracle", t0, 30.0, conditions)


GRID = [
    ("dual/C2/GF(2)", dual_numbers, 2, 2),
    ("dual/C2/GF(3)", dual_numbers, 3, 2),
    ("dual/C3/GF(2)", dual_numbers, 2, 3),
    ("triangular/C2/GF(2)", triangular, 2, 2),
]


def test_criterion_6_grading_bijection():
    t0 = time.perf_counter()
    conditions = {}
    for label, build, p, m in GRID:
        algebra = build(GF(p))
        group = cyclic_group(m)
        points = enumerate_points(algebra, group)
        oracle = enumerate_gradings_oracle(algebra, group)
        induced = sorted(
            (grading_from_point(algebra, group, pt) for pt in points),
            key=lambda g: g.sort_key(),
        )
        conditions[f"{label}: routes agree under grading_from_point"] = (
            list(induced) == list(oracle)
        )
        conditions[f"{label}: point_from_grading o grading_from_point = id"] = all(
            point_from_grading(algebra, group, grading_from_point(algebra, group, pt))
            == pt
            for pt in points
        )
    _finish(6, "grading bijection on the fixture grid", t0, 60.0, conditions)


def test_criterion_7_classification():
    t0 = time.perf_counter()
    conditions = {}
    for label, build, p, m in GRID:
        algebra = build(GF(p))
        group = cyclic_group(m)
        _, result = classified(algebra, group)
        conditions[f"{label}: orbit count equals isomorphism-class count"] = (
            result.counts_agree
        )
        conditions[f"{label}: partitions correspond under grading_from_point"] = (
            result.correspondence_ok
        )
        if label == "dual/C2/GF(3)":
            conditions["dual/C2/GF(3): exactly 2 classes"] = result.class_count == 2
    _finish(7, "classification orbit counts", t0, 60.0, conditions)


def test_criterion_8_rewriting_soundness():
    t0 = time.perf_counter()
    conditions = {}
    rng = random.Random(20240809)
    for name in ("dual_q.json", "triangular_q.json"):
        algebra, _ = load_algebra(fixture_path(name))
        p = build_presentation(algebra, 4)
        system = p.system

        # every overlap of degree <= 4 resolves to zero
        resolved = True
        for _, u, v, k, ri, rj in overlap_candidates(list(system.rules), 4):
            left = shifted(ri.rest, (), v[k:])
            right = shifted(rj.rest, u[: len(u) - k], ())
            if not (system.normal_form(left - right)).is_zero():
                resolved = False
        conditions[f"{name}: all overlaps at D=4 resolve"] = resolved

        gens = list(p.gens)
        agree = True
        for _ in range(500):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
                coeff = QQ(rng.randint(-5, 5))
                terms[word] = terms.get(word, QQ.zero) + coeff
            poly = NCPoly(terms)
            reverse = scan_reduce(substituted(poly, system.subs), list(system.rules), "reverse")
            if system.normal_form(poly) != reverse:
                agree = False
        conditions[f"{name}: 500 random degree-<=4 reductions agree with the reverse scan"] = (
            agree
        )
    _finish(8, "bounded completion soundness", t0, 10.0, conditions)


def test_criterion_9_determinism():
    t0 = time.perf_counter()
    import contextlib
    import io as _io

    from usym.cli import main as cli_main

    def run(argv):
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        return code, out.getvalue(), err.getvalue()

    algebra_fixtures = [
        "dual_q.json",
        "dual_gf2.json",
        "dual_gf3.json",
        "dual_gf5.json",
        "dual_gf7.json",
        "triangular_q.json",
        "triangular_gf2.json",
        "triangular_gf3.json",
        "ground_field_q.json",
    ]
    prime_fixtures = [f for f in algebra_fixtures if "gf" in f]
    runs = []
    for fixture in algebra_fixtures:
        path = str(fixture_path(fixture))
        for fmt in ("text", "json"):
            runs.append(["present", path, "--format", fmt])
            runs.append(["check", path, "--format", fmt])
    for fixture in prime_fixtures:
        path = str(fixture_path(fixture))
        runs.append(["endo", path, "--oracle", "--field-check"])
        runs.append(["aut", path, "--oracle"])
        runs.append(["endo", path, "--format", "json"])
    for fixture in ("dual_q.json", "triangular_q.json", "ground_field_q.json"):
        # rejected inputs must be rejected identically
        runs.append(["endo", str(fixture_path(fixture))])
        runs.append(["aut", str(fixture_path(fixture))])
    grading_runs = [
        ("dual_gf2.json", "cyclic:2"),
        ("dual_gf3.json", "cyclic:2"),
        ("dual_gf2.json", "cyclic:3"),
        ("triangular_gf2.json", "cyclic:2"),
        ("dual_gf2.json", str(fixture_path("group_klein.json"))),
        ("dual_gf3.json", str(fixture_path("group_c3.json"))),
        ("triangular_gf3.json", str(fixture_path("group_c2.json"))),
    ]
    for fixture, group in grading_runs:
        path = str(fixture_path(fixture))
        for fmt in ("text", "json"):
            runs.append(
                ["gradings", path, "--group", group, "--classify", "--oracle",
                 "--format", fmt]
            )

    identical = True
    for argv in runs:
        if run(argv) != run(argv):
            identical = False
    conditions = {
        f"{len(runs)} command invocations byte-identical across repeated runs": identical
    }
    _finish(9, "output determinism", t0, 120.0, conditions)
