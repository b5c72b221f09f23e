import dataclasses
import itertools

import pytest

from usym import (
    GF,
    QQ,
    NCPoly,
    RewriteSystem,
    TensorPoly,
    build_presentation,
    build_relations,
    check_bialgebra,
    check_comodule,
    cyclic_group,
    enumerate_endomorphisms,
    enumerate_points,
    fixture_path,
)
from usym.io import load_algebra, load_group
from usym.linalg import Matrix
from usym.ncpoly import _ints, _scalars
from usym.universal import _on_leg
from conftest import (
    S3,
    dual_numbers,
    ground_field,
    iter_words,
    legwise_product,
    rescaled,
    rref,
    tensor_term,
    triangular,
)

ONE = QQ.one
X12, X22 = (1, 2), (2, 2)


def qpoly(*terms):
    acc = {}
    for coeff, word in terms:
        acc[word] = acc.get(word, QQ.zero) + QQ(coeff)
    return NCPoly(acc)


def test_build_relations_counts(dual_q, triangular_q):
    assert len(build_relations(dual_q)) == 8 + 2
    assert len(build_relations(triangular_q)) == 27 + 3
    assert len(build_relations(ground_field(QQ))) == 1 + 1


def test_build_relations_emission_order(dual_q):
    rels = build_relations(dual_q)
    # first relation is (a,i,j) = (1,1,1): x[1,1] - x[1,1]^2
    assert rels[0] == qpoly((1, ((1, 1),)), (-1, ((1, 1), (1, 1))))
    # last two are the unit relations x[a,1] = delta(a,1)
    assert rels[-2] == qpoly((1, ((1, 1),)), (-1, ()))
    assert rels[-1] == qpoly((1, ((2, 1),)))


def test_dual_presentation_golden(dual_q):
    p = build_presentation(dual_q, 4)
    assert p.gens == (X12, X22)
    assert tuple(p.system.subs) == ((1, 1), (2, 1))
    assert p.system.subs[(1, 1)] == qpoly((1, ()))
    assert p.system.subs[(2, 1)].is_zero()
    rule_polys = {r.poly for r in p.system.rules}
    assert rule_polys == {
        qpoly((1, (X12, X12))),
        qpoly((1, (X22, X12)), (1, (X12, X22))),
    }
    assert p.delta[X12] == TensorPoly(
        {((X12,), (X22,)): ONE, ((), (X12,)): ONE}
    )
    assert p.delta[X22] == TensorPoly({((X22,), (X22,)): ONE})
    assert p.eps[X12] == QQ.zero
    assert p.eps[X22] == QQ.one
    assert p.coaction[0] == ((0, NCPoly.constant(ONE)),)
    assert p.coaction[1] == (
        (0, NCPoly.gen(X12, ONE)),
        (1, NCPoly.gen(X22, ONE)),
    )


def test_ground_field_presentation_is_trivial():
    p = build_presentation(ground_field(QQ), 4)
    assert p.gens == ()
    assert p.system.rules == ()
    assert tuple(p.system.subs) == ((1, 1),)


def test_triangular_elimination_and_rule_count(triangular_q):
    p = build_presentation(triangular_q, 4)
    assert tuple(p.system.subs) == ((1, 1), (2, 1), (3, 1))
    assert len(p.gens) == 6
    assert len(p.system.rules) == 12
    assert all(len(r.lead) == 2 for r in p.system.rules)


def hand_reduced_triangular_relations():
    """The reduced quadratic relations derived from the structure constants
    of the triangular fixture (coefficients over any field via QQ here)."""
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


def span_matrix(polys, gens):
    words = list(iter_words(list(gens), 2))
    index = {w: k for k, w in enumerate(words)}
    rows = []
    for p in polys:
        row = [QQ.zero] * len(words)
        for w, c in p.terms.items():
            row[index[w]] = c
        rows.append(row)
    return Matrix(QQ, rows)


def test_triangular_degree2_span_matches_hand_derivation(triangular_q):
    p = build_presentation(triangular_q, 4)
    mine = span_matrix([r.poly for r in p.system.rules if len(r.lead) <= 2], p.gens)
    hand = span_matrix(hand_reduced_triangular_relations(), p.gens)
    r_mine, piv_mine = rref(mine)
    r_hand, piv_hand = rref(hand)
    assert len(piv_mine) == 12 == len(piv_hand)
    assert piv_mine == piv_hand
    assert r_mine.rows[:12] == r_hand.rows[:12]


def test_triangular_hand_relations_all_in_ideal(triangular_q):
    p = build_presentation(triangular_q, 4)
    for rel in hand_reduced_triangular_relations():
        assert p.system.normal_form(rel).is_zero()


def test_build_presentation_rejects_small_degree(dual_q):
    with pytest.raises(ValueError):
        build_presentation(dual_q, 1)


def test_check_bialgebra_dual(dual_q):
    report = check_bialgebra(build_presentation(dual_q, 4))
    assert report.ok
    # 10 relations x (delta, eps) + 2 generators x (coassoc, counit)
    assert len(report.items) == 24


def test_check_bialgebra_ground_field_vacuous():
    report = check_bialgebra(build_presentation(ground_field(QQ), 4))
    assert report.ok


def test_check_bialgebra_triangular(triangular_q):
    assert check_bialgebra(build_presentation(triangular_q, 4)).ok


def test_check_comodule_dual(dual_q):
    p = build_presentation(dual_q, 4)
    report = check_comodule(p)
    assert report.ok
    names = [item.name for item in report.items]
    assert "coaction-unit e[1]" in names
    assert "coaction-coassoc e[2]" in names
    assert "coaction-mult e[2]e[2]" in names


def test_check_comodule_triangular(triangular_q):
    assert check_comodule(build_presentation(triangular_q, 4)).ok


def test_checks_over_prime_fields():
    for p in (2, 3, 5):
        a = triangular(GF(p))
        pres = build_presentation(a, 4)
        assert check_bialgebra(pres).ok
        assert check_comodule(pres).ok


# For each rule dropped from the system: the number of failing items of both
# checks, and the one failing coaction-mult item with its detail.  Every other
# failing item is a delta-descends one.
DROPPED_RULE_FAILURES = {
    "T_2": [
        (5, "e[2]e[2]", 1), (5, "e[2]e[3]", 1), (7, "e[2]e[2]", 2), (7, "e[2]e[3]", 2),
        (7, "e[2]e[2]", 3), (7, "e[2]e[3]", 3), (5, "e[3]e[2]", 1), (5, "e[3]e[3]", 1),
        (7, "e[3]e[2]", 2), (7, "e[3]e[3]", 2), (7, "e[3]e[2]", 3), (7, "e[3]e[3]", 3),
    ],
    "dual": [(2, "e[2]e[2]", 1), (3, "e[2]e[2]", 2)],
}


def test_checks_fail_on_dropped_rule():
    for name, algebra in (("T_2", triangular), ("dual", dual_numbers)):
        p = build_presentation(algebra(QQ), 4)
        rules = p.system.rules
        assert len(rules) == len(DROPPED_RULE_FAILURES[name])
        for k, (count, product, coordinate) in enumerate(DROPPED_RULE_FAILURES[name]):
            system = RewriteSystem(p.system.subs, rules[:k] + rules[k + 1 :], 4)
            broken = dataclasses.replace(p, system=system)
            items = check_bialgebra(broken).items + check_comodule(broken).items
            failed = [item for item in items if not item.passed]
            assert len(failed) == count
            mult = [item for item in failed if not item.name.startswith("delta-descends ")]
            assert [(item.name, item.detail) for item in mult] == [
                (f"coaction-mult {product}", f"coordinate a={coordinate}")
            ]


def failing_details(p):
    items = check_bialgebra(p).items + check_comodule(p).items
    return [(item.name, item.detail) for item in items if not item.passed]


def test_failing_details_show_the_exact_residues():
    # dual numbers in the basis 1, s e_2: the relations' coefficients and a
    # tampered Delta or eps make residues with denominators over QQ, and
    # the details print them as field scalars, words of both lengths, a
    # constant leg and the residues of GF(3) included
    qq = build_presentation(rescaled(dual_numbers(QQ), (1, "-3/2")), 4)
    gf3 = build_presentation(rescaled(dual_numbers(GF(3)), (1, 2)), 4)

    def with_extra_term(p):
        # Delta(x[1,2]) plus 2/5 x[2,2] (x) 1
        f = p.algebra.field
        return with_delta(p, X12, p.delta[X12] + tensor_term((X22,), (), f(2) / f(5)))

    assert failing_details(with_extra_term(qq)) == [
        (
            "delta-descends r[1,2,2]",
            "residue -4/25 * x[2,2] x[2,2] (x) 1 + -4/5 * x[2,2] (x) x[1,2]",
        ),
        ("delta-descends r[2,2,2]", "residue -4/5 * x[2,2] x[2,2] (x) x[2,2]"),
        ("coassoc x[1,2]", ""),
        ("counit x[1,2]", ""),
        ("coaction-coassoc e[2]", "component t=1"),
    ]
    assert failing_details(with_extra_term(gf3)) == [
        ("delta-descends r[1,2,2]", "residue 2 * x[2,2] x[2,2] (x) 1 + 1 * x[2,2] (x) x[1,2]"),
        ("delta-descends r[2,2,2]", "residue 1 * x[2,2] x[2,2] (x) x[2,2]"),
        ("coassoc x[1,2]", ""),
        ("counit x[1,2]", ""),
        ("coaction-coassoc e[2]", "component t=1"),
    ]
    assert failing_details(with_eps(qq, X12, QQ("-7/2"))) == [
        ("eps-descends r[1,2,2]", "residue -49/4"),
        ("eps-descends r[2,2,2]", "residue 7"),
        ("counit x[1,2]", ""),
        ("coaction-counit e[2]", ""),
    ]
    assert failing_details(with_eps(qq, (1, 1), QQ("-7/2"))) == [
        ("eps-descends r[1,1,1]", "residue -63/4"),
        ("eps-descends r[2,1,2]", "residue 9/2"),
        ("eps-descends r[2,2,1]", "residue 9/2"),
        ("eps-descends r[unit,1]", "residue -9/2"),
    ]
    assert failing_details(with_eps(gf3, X12, GF(3)(1))) == [
        ("eps-descends r[1,2,2]", "residue 2"),
        ("eps-descends r[2,2,2]", "residue 1"),
        ("counit x[1,2]", ""),
        ("coaction-counit e[2]", ""),
    ]
    rules = gf3.system.rules
    system = RewriteSystem(gf3.system.subs, rules[:1], 4)
    assert failing_details(dataclasses.replace(gf3, system=system)) == [
        (
            "delta-descends r[1,2,2]",
            "residue 2 * x[1,2] (x) x[2,2] x[1,2] + 2 * x[1,2] (x) x[1,2] x[2,2]",
        ),
        (
            "delta-descends r[2,2,2]",
            "residue 2 * x[2,2] x[1,2] (x) x[2,2] x[2,2] + 2 * x[1,2] x[2,2] (x) x[2,2] x[2,2]"
            " + 2 * x[2,2] (x) x[2,2] x[1,2] + 2 * x[2,2] (x) x[1,2] x[2,2]",
        ),
        ("coaction-mult e[2]e[2]", "coordinate a=2"),
    ]


def test_build_presentation_deterministic(dual_q, triangular_q):
    for a in (dual_q, triangular_q):
        p1 = build_presentation(a, 4)
        p2 = build_presentation(a, 4)
        assert p1.gens == p2.gens
        assert p1.system == p2.system
        assert p1.delta == p2.delta
        assert p1.eps == p2.eps
        assert p1.coaction == p2.coaction


def on_leg(table, legs, t, leg):
    """_on_leg on a table of scalar tensors and a scalar tensor t: both read
    into ints (see _ints), the result read back as field scalars."""
    ints, d, _ = _ints({(g, k): c for g, u in table.items() for k, c in u.terms.items()})
    int_table = {g: {} for g in table}
    for (g, k), c in ints.items():
        int_table[g][k] = c
    terms, dt, m = _ints(t.terms)
    return TensorPoly(_scalars(*_on_leg(int_table, legs, (terms, dt), leg, d, m), m))


def test_eps_kills_every_relation(dual_q, triangular_q):
    for a in (dual_q, triangular_q):
        p = build_presentation(a, 4)
        eps = {g: TensorPoly({(): e}) for g, e in p.eps.items()}
        for rel in build_relations(a):
            assert on_leg(eps, 0, TensorPoly.of(rel), 0).is_zero()


GF_FIXTURES = ["dual_gf2", "dual_gf3", "dual_gf5", "dual_gf7", "triangular_gf2", "triangular_gf3"]
GROUP_FIXTURES = ["group_c2", "group_c3", "group_klein"]
TRIVIAL_GROUP = cyclic_group(1)


def presentation_relations(p):
    """Every substitution g - q and every rule lead - rest of p."""
    one = p.algebra.field.one
    relations = [NCPoly.gen(g, one) - q for g, q in p.system.subs.items()]
    return relations + [rule.poly for rule in p.system.rules]


def value_in_group_algebra(rel, image, g, field):
    """rel at x[s,i] -> image[s, i] in k[G], an element of k[G] written as its
    coefficient list in g's element order; words multiply left to right."""
    m = g.order
    value = [field.zero] * m
    for w, c in rel.terms.items():
        term = [field.zero] * m
        term[g.identity] = c
        for gen in w:
            product = [field.zero] * m
            for sigma, x in enumerate(term):
                for tau, y in enumerate(image[gen]):
                    product[g.mul(sigma, tau)] = product[g.mul(sigma, tau)] + x * y
            term = product
        value = [x + y for x, y in zip(value, term)]
    return value


def value_in_field(rel, image, field):
    """rel at x[s,i] -> image[s, i] in k, which is k[G] for the trivial G."""
    image = {gen: [x] for gen, x in image.items()}
    return value_in_group_algebra(rel, image, TRIVIAL_GROUP, field)[0]



@pytest.mark.parametrize("name", GF_FIXTURES)
def test_endomorphisms_are_the_characters_of_the_presentation(name):
    # End(A) = Hom_Alg(a(A), k): x[s,i] -> M[s][i] at every endomorphism M
    # kills every substitution g - q and every rule lead - rest; the zero
    # matrix, not an endomorphism, does not
    a = load_algebra(fixture_path(f"{name}.json"))[0]
    p = build_presentation(a, 3)
    f = a.field
    relations = presentation_relations(p)

    def at(m, rel):
        image = {(s + 1, i + 1): x for s, row in enumerate(m.rows) for i, x in enumerate(row)}
        return value_in_field(rel, image, f)

    points = enumerate_endomorphisms(a).points
    assert points and relations
    for m in points:
        for rel in relations:
            assert not at(m, rel), (m, rel)
    assert any(at(Matrix.zeros(f, a.n, a.n), rel) for rel in relations)

    # conversely, the common zeros of the rules, over all values of the
    # surviving generators and the eliminated ones set by their
    # substitutions, are exactly the endomorphisms
    n, q = a.n, f.characteristic
    gens = [(s, i) for s in range(1, n + 1) for i in range(1, n + 1)]
    free = [gen for gen in gens if gen not in p.system.subs]
    assert q ** len(free) <= 10**5  # small enough to try every value
    zeros = []
    for values in itertools.product(map(f, range(q)), repeat=len(free)):
        x = dict(zip(free, values))
        x.update({gen: value_in_field(sub, x, f) for gen, sub in p.system.subs.items()})
        if not any(value_in_field(rule.poly, x, f) for rule in p.system.rules):
            zeros.append(tuple(tuple(x[s, i] for i in range(1, n + 1)) for s in range(1, n + 1)))
    assert len(zeros) == len(points)
    assert sorted(zeros) == sorted(m.rows for m in points)


@pytest.mark.parametrize(
    "name, group_name",
    [(name, group_name) for name in GF_FIXTURES for group_name in GROUP_FIXTURES]
    + [(name, "S3") for name in GF_FIXTURES if name.startswith("dual_")],
)
def test_grading_points_are_the_characters_of_the_presentation(name, group_name):
    # the grading points are Hom_BiAlg(a(A), k[G]): x[s,i] -> sum_sigma
    # P^sigma[s][i] sigma at every point kills every substitution and every
    # rule, with the words multiplied in k[G] in order (S_3 does not
    # commute); the zero family, not a point, does not
    a = load_algebra(fixture_path(f"{name}.json"))[0]
    g = S3 if group_name == "S3" else load_group(str(fixture_path(f"{group_name}.json")))[0]
    f = a.field
    relations = presentation_relations(build_presentation(a, 3))

    def at(matrices, rel):
        image = {
            (s + 1, i + 1): [mat.rows[s][i] for mat in matrices]
            for s in range(a.n)
            for i in range(a.n)
        }
        return value_in_group_algebra(rel, image, g, f)

    points = enumerate_points(a, g)
    assert points and relations
    for point in points:
        for rel in relations:
            assert not any(at(point.matrices, rel)), (point, rel)
    zero = [Matrix.zeros(f, a.n, a.n)] * g.order
    assert any(any(at(zero, rel)) for rel in relations)


def test_tables_cover_every_generator(dual_q, triangular_q):
    # Delta and eps on the eliminated generators too: the first column goes
    # to x[1,1] = 1 and x[s,1] = 0 (s > 1), so Delta there is 1 (x) 1 or 0
    for a in (dual_q, triangular_q):
        p = build_presentation(a, 4)
        n = a.n
        every = sorted((s, i) for s in range(1, n + 1) for i in range(1, n + 1))
        assert sorted(p.delta) == sorted(p.eps) == every
        for s in range(1, n + 1):
            assert p.delta[s, 1] == (tensor_term((), (), ONE) if s == 1 else TensorPoly())
            assert p.eps[s, 1] == (ONE if s == 1 else QQ.zero)


def failing_items(p):
    items = check_bialgebra(p).items + check_comodule(p).items
    return [item.name for item in items if not item.passed]


def with_delta(p, g, t):
    return dataclasses.replace(p, delta={**p.delta, g: t})


def with_eps(p, g, c):
    return dataclasses.replace(p, eps={**p.eps, g: c})


def doubled(t):
    """t + t, for an NCPoly or a TensorPoly."""
    return type(t)({k: c + c for k, c in t.terms.items()})


def test_checks_fail_on_tampered_presentation():
    dual = build_presentation(dual_numbers(QQ), 4)
    assert failing_items(with_delta(dual, X12, doubled(dual.delta[X12]))) == [
        "coassoc x[1,2]",
        "counit x[1,2]",
        "coaction-coassoc e[2]",
    ]

    t2 = build_presentation(triangular(QQ), 4)
    swapped = TensorPoly({(w2, w1): c for (w1, w2), c in t2.delta[X12].terms.items()})
    failed = failing_items(with_delta(t2, X12, swapped))
    assert [name for name in failed if not name.startswith("delta-descends ")] == [
        "coassoc x[1,2]",
        "coassoc x[1,3]",
        "coaction-coassoc e[2]",
    ]
    assert len(failed) == 8 + 3

    # the tables do not follow a tampered substitution, so only the item that
    # reduces the raw relations modulo the system sees it
    subs = dict(dual.system.subs)
    subs[(2, 1)] = subs[(2, 1)] + NCPoly.gen(X12, ONE)
    system = RewriteSystem(subs, dual.system.rules, dual.system.degree_bound)
    assert failing_items(dataclasses.replace(dual, system=system)) == ["coaction-mult e[1]e[1]"]


def test_checks_fail_on_tampered_coaction():
    # eta(e_n) doubled: (id (x) Delta) eta(e_n) and (eps (x) id) eta(e_n) see
    # it, and so does (eta (x) id) eta(e_i) for every e_i with an e_n component
    # (e_2 of T_2, through x[3,2])
    for algebra, want in (
        (dual_numbers, ["coaction-coassoc e[2]", "coaction-counit e[2]"]),
        (
            triangular,
            ["coaction-coassoc e[2]", "coaction-coassoc e[3]", "coaction-counit e[3]"],
        ),
    ):
        p = build_presentation(algebra(QQ), 4)
        last = tuple((s, doubled(poly)) for s, poly in p.coaction[-1])
        assert failing_items(dataclasses.replace(p, coaction=p.coaction[:-1] + (last,))) == want


def test_checks_fail_on_tampered_eps():
    dual = build_presentation(dual_numbers(QQ), 4)
    # eps(x[1,2]) = 1 on a surviving generator
    assert failing_items(with_eps(dual, X12, ONE)) == [
        "eps-descends r[1,2,2]",
        "eps-descends r[2,2,2]",
        "counit x[1,2]",
        "coaction-counit e[2]",
    ]
    # eps(x[1,1]) = 0 on an eliminated generator: only the raw relations read it
    assert failing_items(with_eps(dual, (1, 1), QQ.zero)) == [
        "eps-descends r[2,1,2]",
        "eps-descends r[2,2,1]",
        "eps-descends r[unit,1]",
    ]
    assert failing_items(with_eps(dual, X22, QQ(2))) == [
        "counit x[1,2]",
        "counit x[2,2]",
        "coaction-counit e[2]",
    ]

    t2 = build_presentation(triangular(QQ), 4)
    assert failing_items(with_eps(t2, X12, ONE)) == [
        "eps-descends r[1,2,2]",
        "eps-descends r[1,2,3]",
        "eps-descends r[2,2,2]",
        "eps-descends r[3,2,3]",
        "eps-descends r[3,3,2]",
        "counit x[1,2]",
        "counit x[1,3]",
        "coaction-counit e[2]",
    ]
    assert failing_items(with_eps(t2, (1, 1), QQ.zero)) == [
        "eps-descends r[2,1,2]",
        "eps-descends r[2,2,1]",
        "eps-descends r[3,1,3]",
        "eps-descends r[3,3,1]",
        "eps-descends r[unit,1]",
    ]


def delta_tables(field):
    """Delta of T_3, and the same table with its terms rescaled, so that
    coefficients other than one occur."""
    delta = build_presentation(triangular(field), 3).delta
    rescaled = {
        g: TensorPoly({k: field(j + 2) * c for j, (k, c) in enumerate(t.terms.items())})
        for g, t in delta.items()
    }
    return delta, rescaled


def test_delta_word_is_the_legwise_product():
    # Delta of a word times a scalar, against the product of its generators'
    # tensors formed term by term
    for field in (QQ, GF(3)):
        one, two = field.one, field(2)
        for delta in delta_tables(field):
            for w in iter_words(list(delta), 3):
                want = legwise_product(delta, 2, w, field)
                assert on_leg(delta, 2, tensor_term(w, one), 0) == TensorPoly(want)
                scaled = {k: two * c for k, c in want.items()}
                assert on_leg(delta, 2, tensor_term(w, two), 0) == TensorPoly(scaled)


def test_eps_word_is_the_product_of_scalars():
    # 0-leg tables, eps of the presentation and one with values other than 0
    # and 1, against the products of the tables' values
    for field in (QQ, GF(5)):
        presentation = build_presentation(triangular(field), 3)
        one, three = field.one, field(3)
        values = [field.zero, one, field(2), field(-1), three]
        tables = [
            {g: TensorPoly({(): e}) for g, e in presentation.eps.items()},
            {g: TensorPoly({(): values[k % 5]}) for k, g in enumerate(presentation.eps)},
        ]
        for table in tables:
            for w in iter_words(list(table), 3):
                want = {k: three * c for k, c in legwise_product(table, 0, w, field).items()}
                assert on_leg(table, 0, tensor_term(w, three), 0) == TensorPoly(want)
            # eps on either leg of a 2-leg tensor leaves the other leg
            words = list(iter_words(list(table), 2))
            t = TensorPoly({(u, v): field(k + 1) for k, (u, v) in enumerate(zip(words, words[3:]))})
            for leg in (0, 1):
                want = {}
                for key, c in t.terms.items():
                    for d in legwise_product(table, 0, key[leg], field).values():
                        rest = (key[1 - leg],)
                        want[rest] = want.get(rest, field.zero) + c * d
                assert on_leg(table, 0, t, leg) == TensorPoly(want)


def test_delta_on_the_second_leg_gives_three_legs():
    # Delta on leg 1 of a 2-leg tensor, with the empty word among its legs,
    # against the term-by-term products spliced after leg 0
    for field in (QQ, GF(3)):
        for delta in delta_tables(field):
            words = list(iter_words(list(delta), 2))
            pairs = zip(words[5:], words)
            t = TensorPoly({(u, v): field(k % 4 + 1) for k, (u, v) in enumerate(pairs)})
            assert any(not v for _, v in t.terms) and len(t.terms) > 50
            want = {}
            for (u, v), c in t.terms.items():
                for split, d in legwise_product(delta, 2, v, field).items():
                    key = (u,) + split
                    want[key] = want.get(key, field.zero) + c * d
            got = on_leg(delta, 2, t, 1)
            assert got == TensorPoly(want)
            assert got.terms and all(len(key) == 3 for key in got.terms)
